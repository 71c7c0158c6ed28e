package profile

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"semdisco/internal/ontology"
	"semdisco/internal/rdf"
)

const ns = "http://semdisco.example/onto#"

func sampleProfile() *Profile {
	return &Profile{
		ServiceIRI:  "http://unit.example/services/radar-7",
		Name:        "Coastal radar 7",
		Text:        "X-band coastal surveillance radar feed",
		Category:    ontology.Class(ns + "Radar"),
		Inputs:      []ontology.Class{ontology.Class(ns + "AreaOfInterest")},
		Outputs:     []ontology.Class{ontology.Class(ns + "Track"), ontology.Class(ns + "Image")},
		QoS:         map[string]float64{"accuracy": 0.92, "updateHz": 4},
		Grounding:   "udp://10.1.2.3:9000/radar",
		Coverage:    &Circle{LatDeg: 59.9, LonDeg: 10.7, RadiusKm: 80},
		OntologyIRI: ns,
	}
}

func TestValidate(t *testing.T) {
	p := sampleProfile()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []struct {
		mutate  func(*Profile)
		wantSub string
	}{
		{func(p *Profile) { p.ServiceIRI = "" }, "ServiceIRI"},
		{func(p *Profile) { p.Category = "" }, "Category"},
		{func(p *Profile) { p.Grounding = "" }, "Grounding"},
		{func(p *Profile) { p.QoS = map[string]float64{"": 1} }, "QoS"},
		{func(p *Profile) { p.QoS = map[string]float64{"x": math.NaN()} }, "not finite"},
		{func(p *Profile) { p.Coverage.RadiusKm = -1 }, "radius"},
	}
	for _, c := range cases {
		p := sampleProfile()
		c.mutate(p)
		err := p.Validate()
		if err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Validate = %v, want error containing %q", err, c.wantSub)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProfile()
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, p)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := sampleProfile()
	first := p.Encode()
	for i := 0; i < 20; i++ {
		if string(sampleProfile().Encode()) != string(first) {
			t.Fatal("Encode is not deterministic (map iteration leaked)")
		}
	}
}

func TestDecodeMinimalProfile(t *testing.T) {
	p := &Profile{ServiceIRI: "urn:s", Category: "urn:c", Grounding: "urn:g"}
	got, err := Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("minimal round trip mismatch: %+v vs %+v", got, p)
	}
	if got.Coverage != nil || got.QoS != nil || got.Inputs != nil {
		t.Fatal("empty fields materialized non-nil values")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	enc := sampleProfile().Encode()
	if _, err := Decode(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated profile accepted")
	}
	if _, err := Decode(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte{}, enc...)
	bad[0] = 99
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("unknown version error = %v", err)
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestDecodeFuzzNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		Decode(b) // errors fine, panics not
		DecodeTemplate(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestClone(t *testing.T) {
	p := sampleProfile()
	c := p.Clone()
	if !reflect.DeepEqual(p, c) {
		t.Fatal("clone differs")
	}
	c.Outputs[0] = "mutated"
	c.QoS["accuracy"] = 0
	c.Coverage.RadiusKm = 1
	if p.Outputs[0] == "mutated" || p.QoS["accuracy"] == 0 || p.Coverage.RadiusKm == 1 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCircleGeometry(t *testing.T) {
	c := Circle{LatDeg: 60, LonDeg: 10, RadiusKm: 50}
	if !c.Contains(60, 10) {
		t.Fatal("center not contained")
	}
	if !c.Contains(60.4, 10) { // ~44.5 km north
		t.Fatal("point 44 km away not contained in 50 km circle")
	}
	if c.Contains(61, 10) { // ~111 km north
		t.Fatal("point 111 km away contained in 50 km circle")
	}
}

func TestTemplateRoundTrip(t *testing.T) {
	tpl := &Template{
		Category:        ontology.Class(ns + "Sensor"),
		RequiredOutputs: []ontology.Class{ontology.Class(ns + "Track")},
		ProvidedInputs:  []ontology.Class{ontology.Class(ns + "AreaOfInterest")},
		MinQoS:          map[string]float64{"accuracy": 0.8},
		Keywords:        []string{"radar", "coastal"},
		Near:            &Point{LatDeg: 59.9, LonDeg: 10.7},
	}
	got, err := DecodeTemplate(tpl.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tpl) {
		t.Fatalf("template round trip mismatch:\n got %+v\nwant %+v", got, tpl)
	}
}

func TestTemplateEmptyRoundTrip(t *testing.T) {
	got, err := DecodeTemplate((&Template{}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, &Template{}) {
		t.Fatalf("empty template mismatch: %+v", got)
	}
}

func TestToGraph(t *testing.T) {
	p := sampleProfile()
	g := p.ToGraph()
	s := rdf.IRI(p.ServiceIRI)
	if !has(g, rdf.Triple{S: s, P: rdf.IRI(rdf.RDFType), O: rdf.IRI(vocabService)}) {
		t.Fatal("missing type triple")
	}
	if !has(g, rdf.Triple{S: s, P: rdf.IRI(vocabCategory), O: rdf.IRI(string(p.Category))}) {
		t.Fatal("missing category triple")
	}
	if got := len(g.Match(s, rdf.IRI(vocabOutput), rdf.Wildcard)); got != 2 {
		t.Fatalf("graph has %d outputs, want 2", got)
	}
	if !has(g, rdf.Triple{S: s, P: rdf.IRI(vocabQoSPrefix + "accuracy"), O: rdf.FloatLiteral(0.92)}) {
		t.Fatal("missing QoS triple")
	}
	// The graph must serialize and re-parse (it is what a registry's
	// artifact repository would serve).
	if _, err := rdf.ParseTurtle(rdf.EncodeNTriples(g)); err != nil {
		t.Fatalf("profile graph does not round-trip through N-Triples: %v", err)
	}
}

func TestBinarySmallerThanRDF(t *testing.T) {
	// The compact binary form must beat the N-Triples rendering by a
	// comfortable margin — this underpins experiment E8.
	p := sampleProfile()
	bin := len(p.Encode())
	ntl := len(rdf.EncodeNTriples(p.ToGraph()))
	if bin*2 > ntl {
		t.Fatalf("binary form %dB not ≤ half of N-Triples %dB", bin, ntl)
	}
}

// TestDecodeRecordEqualsCompile: decoding a payload of either version
// straight into its record gives the record Compile builds from the
// decoded profile, bar the payload it keeps; every truncation of the
// payload fails both decoders alike.
func TestDecodeRecordEqualsCompile(t *testing.T) {
	o := ontology.New(ns)
	for _, c := range []string{"Radar", "Track", "Image", "AreaOfInterest"} {
		if err := o.AddClass(ontology.Class(ns + c)); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	wide := sampleProfile()
	wide.Inputs = append(wide.Inputs, ontology.Class(ns+"Ghost"))
	wide.Outputs = append(wide.Outputs, ontology.Class(ns+"Blob"), ontology.Thing, "")
	wide.QoS = map[string]float64{"accuracy": 0.9, "latency": 3, "updateHz": 4, "cost": 2}
	var payloads [][]byte
	for _, p := range []*Profile{sampleProfile(), wide, {}} {
		payloads = append(payloads, encodeWhole(p), p.Encode())
	}
	for _, enc := range payloads {
		var got Record
		if err := DecodeRecord(enc, o, &got); err != nil {
			t.Fatal(err)
		}
		if got.Source != string(enc) {
			t.Fatal("the record does not keep its payload")
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		var want Record
		CompileRecord(dec, o, &want)
		got.Source = ""
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRecord = %+v, CompileRecord(Decode) = %+v", got, want)
		}
		for n := range enc {
			_, perr := Decode(enc[:n])
			if rerr := DecodeRecord(enc[:n], o, &got); (perr == nil) != (rerr == nil) {
				t.Fatalf("truncated at %d: Decode says %v, DecodeRecord says %v", n, perr, rerr)
			}
		}
	}
}

// has reports whether g holds exactly the triple t.
func has(g *rdf.Graph, t rdf.Triple) bool { return len(g.Match(t.S, t.P, t.O)) == 1 }
