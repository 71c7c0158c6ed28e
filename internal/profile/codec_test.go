package profile

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"semdisco/internal/codec"
	"semdisco/internal/ontology"
)

// encodeWhole is Profile.Encode in payload version 1: every concept IRI
// written whole.
func encodeWhole(p *Profile) []byte {
	var w codec.Buffer
	w.Byte(versionWhole)
	w.String(p.ServiceIRI)
	w.String(p.Name)
	w.String(p.Text)
	w.String(string(p.Category))
	for _, cs := range [][]ontology.Class{p.Inputs, p.Outputs} {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			w.String(string(c))
		}
	}
	writeQoS(&w, p.QoS)
	w.String(p.Grounding)
	w.Bool(p.Coverage != nil)
	if c := p.Coverage; c != nil {
		w.Float64(c.LatDeg)
		w.Float64(c.LonDeg)
		w.Float64(c.RadiusKm)
	}
	w.String(p.OntologyIRI)
	return w.Bytes()
}

// encodeTemplateWhole is Template.Encode in payload version 1.
func encodeTemplateWhole(t *Template) []byte {
	var w codec.Buffer
	w.Byte(versionWhole)
	w.String(string(t.Category))
	for _, cs := range [][]ontology.Class{t.RequiredOutputs, t.ProvidedInputs} {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			w.String(string(c))
		}
	}
	writeQoS(&w, t.MinQoS)
	w.StringSlice(t.Keywords)
	w.Bool(t.Near != nil)
	if t.Near != nil {
		w.Float64(t.Near.LatDeg)
		w.Float64(t.Near.LonDeg)
	}
	return w.Bytes()
}

// genIRIs draws n concept IRIs that share prefixes the way an
// ontology's do — a few namespaces, class names with common stems —
// plus empty, unrelated and long (over 127 bytes) ones.
func genIRIs(rng *rand.Rand, n int) []ontology.Class {
	spaces := []string{"http://semdisco.example/gen#", "http://semdisco.example/onto#", "urn:x:", ""}
	out := make([]ontology.Class, 0, n)
	for range n {
		var s string
		switch rng.Intn(8) {
		case 0:
			s = ""
		case 1:
			s = strings.Repeat("q", 120+rng.Intn(40)) + fmt.Sprint(rng.Intn(3))
		default:
			s = fmt.Sprintf("%sC_%d_%d", spaces[rng.Intn(len(spaces))], rng.Intn(3), rng.Intn(30))
		}
		out = append(out, ontology.Class(s))
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func genProfile(rng *rand.Rand) *Profile {
	p := &Profile{
		ServiceIRI:  fmt.Sprintf("urn:svc:%d", rng.Intn(1000)),
		Name:        "n",
		Category:    genIRIs(rng, 1)[0],
		Inputs:      genIRIs(rng, rng.Intn(3)),
		Outputs:     genIRIs(rng, rng.Intn(6)),
		Grounding:   "udp://g",
		OntologyIRI: string(genIRIs(rng, 1)[0]),
	}
	if rng.Intn(2) == 0 {
		p.QoS = map[string]float64{"accuracy": rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		p.Coverage = &Circle{LatDeg: 60, LonDeg: 10, RadiusKm: rng.Float64() * 100}
	}
	return p
}

func genTemplate(rng *rand.Rand) *Template {
	t := &Template{
		Category:        genIRIs(rng, 1)[0],
		RequiredOutputs: genIRIs(rng, rng.Intn(4)),
		ProvidedInputs:  genIRIs(rng, rng.Intn(4)),
	}
	if rng.Intn(2) == 0 {
		t.MinQoS = map[string]float64{"accuracy": rng.Float64()}
	}
	if rng.Intn(3) == 0 {
		t.Near = &Point{LatDeg: 60, LonDeg: 10}
	}
	return t
}

// TestFrontCodingSizeBound: on generated profiles and templates, a
// version 2 payload is at most one byte per concept IRI after the
// first larger than version 1 (an IRI that shares nothing costs its
// shared length, 0), and both versions decode to the same value.
func TestFrontCodingSizeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	smaller := 0
	for range 2000 {
		p := genProfile(rng)
		v1, v2 := encodeWhole(p), p.Encode()
		iris := 3 + len(p.Inputs) + len(p.Outputs) // category, I/O, ontology IRI
		if len(v2) > len(v1)+iris-1 {
			t.Fatalf("profile %+v: v2 %d B > v1 %d B + %d", p, len(v2), len(v1), iris-1)
		}
		if len(v2) < len(v1) {
			smaller++
		}
		for _, b := range [][]byte{v1, v2} {
			got, err := Decode(b)
			if err != nil || !reflect.DeepEqual(got, p) {
				t.Fatalf("version %d: Decode = %+v, %v; want %+v", b[0], got, err, p)
			}
		}

		tpl := genTemplate(rng)
		tv1, tv2 := encodeTemplateWhole(tpl), tpl.Encode()
		iris = 1 + len(tpl.RequiredOutputs) + len(tpl.ProvidedInputs)
		if len(tv2) > len(tv1)+iris-1 {
			t.Fatalf("template %+v: v2 %d B > v1 %d B + %d", tpl, len(tv2), len(tv1), iris-1)
		}
		for _, b := range [][]byte{tv1, tv2} {
			got, err := DecodeTemplate(b)
			if err != nil || !reflect.DeepEqual(got, tpl) {
				t.Fatalf("version %d: DecodeTemplate = %+v, %v; want %+v", b[0], got, err, tpl)
			}
		}
	}
	if smaller < 1000 {
		t.Fatalf("front coding shrank only %d of 2000 profiles", smaller)
	}
}

// amplified is a version 2 payload of about 64 KB, one UDP datagram,
// whose concept IRIs after the first each repeat all 1000 bytes of it:
// front coded, each costs 3 bytes and would rebuild to 1000, about 21 MB
// in all. It is a profile's layout, or a template's when template is
// set.
func amplified(template bool) []byte {
	long := "http://semdisco.example/gen#" + strings.Repeat("x", 1000-28)
	var w codec.Buffer
	w.Byte(versionFront)
	if !template {
		w.String("urn:svc:amp")
		w.String("") // Name
		w.String("") // Text
	}
	w.String(long)
	w.Uvarint(0) // inputs, or required outputs
	const n = 21_400
	w.Uvarint(n)
	for range n {
		w.Uvarint(uint64(len(long)))
		w.String("")
	}
	w.Uvarint(0) // QoS
	if template {
		w.Uvarint(0) // keywords
		w.Bool(false)
		return w.Bytes()
	}
	w.String("udp://g")
	w.Bool(false)
	w.Uvarint(0)
	w.String("")
	return w.Bytes()
}

// TestExpansionBoundRejectsAmplification: a datagram-sized payload
// whose IRIs rebuild to hundreds of times its length is rejected with
// ErrBadPayload by every decoder, each allocating less than 16 times
// the payload's length on the way: at most maxExpansion times for
// rebuilt IRIs, the rest for the payload copy and the concept lists.
func TestExpansionBoundRejectsAmplification(t *testing.T) {
	b, tpl := amplified(false), amplified(true)
	if len(b) > 65_507 {
		t.Fatalf("payload is %d B, more than one datagram holds", len(b))
	}
	o := ontology.New(ns)
	if err := o.AddClass(ontology.Class(ns + "Radar")); err != nil {
		t.Fatal(err)
	}
	o.Freeze()
	for name, decode := range map[string]func() error{
		"Decode":         func() error { _, err := Decode(b); return err },
		"DecodeRecord":   func() error { var r Record; return DecodeRecord(b, o, &r) },
		"DecodeTemplate": func() error { _, err := DecodeTemplate(tpl); return err },
	} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadPayload) {
			t.Fatalf("%s = %v, want ErrBadPayload", name, err)
		}
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(b)); got >= bound {
			t.Fatalf("%s allocated %d B rejecting a %d B payload, bound %d B", name, got, len(b), bound)
		}
		t.Logf("%s: %d B allocated for a %d B payload", name, after.TotalAlloc-before.TotalAlloc, len(b))
	}
}

// TestEncoderKeepsExpansionBound: when front coding every IRI would
// break the bound, Encode writes some whole, so what it writes always
// decodes.
func TestEncoderKeepsExpansionBound(t *testing.T) {
	long := ontology.Class(strings.Repeat("y", 3000))
	p := &Profile{ServiceIRI: "urn:s", Category: long, Outputs: slicesRepeat(long, 200), Grounding: "g"}
	enc := p.Encode()
	if len(enc) >= len(encodeWhole(p)) {
		t.Fatal("no IRI was front-coded")
	}
	got, err := Decode(enc)
	if err != nil || !reflect.DeepEqual(got, p) {
		t.Fatalf("Decode = %v", err)
	}
	tpl := &Template{Category: long, RequiredOutputs: slicesRepeat(long, 100), ProvidedInputs: slicesRepeat(long, 100)}
	if gt, err := DecodeTemplate(tpl.Encode()); err != nil || !reflect.DeepEqual(gt, tpl) {
		t.Fatalf("DecodeTemplate = %v", err)
	}
}

func slicesRepeat(c ontology.Class, n int) []ontology.Class {
	out := make([]ontology.Class, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// TestDecodeRecordAllocs: a record decoded from a version 2 payload
// whose concepts are declared allocates only its payload copy, as one
// from version 1 does — each rebuilt IRI resolves by its bytes and takes
// the ontology's string.
func TestDecodeRecordAllocs(t *testing.T) {
	o := ontology.New(ns)
	for _, c := range []string{"Radar", "Track", "Image", "AreaOfInterest"} {
		if err := o.AddClass(ontology.Class(ns + c)); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	p := sampleProfile()
	for _, b := range [][]byte{encodeWhole(p), p.Encode()} {
		var r Record
		if n := testing.AllocsPerRun(100, func() {
			if err := DecodeRecord(b, o, &r); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Fatalf("version %d: DecodeRecord allocates %v times, want 1", b[0], n)
		}
	}
}

// totalIRIBytes is the length of every concept IRI a decoded template
// holds.
func totalIRIBytes(t *Template) int {
	n := len(t.Category)
	for _, c := range append(append([]ontology.Class(nil), t.RequiredOutputs...), t.ProvidedInputs...) {
		n += len(c)
	}
	return n
}

// FuzzDecodeTemplate decodes arbitrary bytes as a template: it never
// panics, every template it accepts rebuilds to at most maxExpansion
// times the input's length and round-trips through Encode, and the
// re-encoding decodes again.
func FuzzDecodeTemplate(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for range 16 {
		tpl := genTemplate(rng)
		f.Add(tpl.Encode())
		f.Add(encodeTemplateWhole(tpl))
	}
	full := &Template{Category: ontology.Class(ns + "Sensor"), RequiredOutputs: []ontology.Class{ontology.Class(ns + "Track")},
		ProvidedInputs: []ontology.Class{ontology.Class(ns + "AreaOfInterest")}, MinQoS: map[string]float64{"accuracy": 0.8},
		Keywords: []string{"radar"}, Near: &Point{LatDeg: 59.9, LonDeg: 10.7}}
	f.Add(full.Encode())
	f.Add(encodeTemplateWhole(full))
	f.Fuzz(func(t *testing.T, b []byte) {
		tpl, err := DecodeTemplate(b)
		if err != nil {
			return
		}
		if n := totalIRIBytes(tpl); n > maxExpansion*len(b) {
			t.Fatalf("%d input bytes rebuilt %d IRI bytes", len(b), n)
		}
		enc := tpl.Encode()
		got, err := DecodeTemplate(enc)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(got, tpl) {
			t.Fatalf("round trip: got %+v, want %+v", got, tpl)
		}
	})
}
