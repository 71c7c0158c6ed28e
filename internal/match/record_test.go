package match_test

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"semdisco/internal/codec"
	"semdisco/internal/describe"
	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/workload"
)

const recNS = "http://semdisco.example/onto#"

func rc(name string) ontology.Class { return ontology.Class(recNS + name) }

// recordOntology is the hand cases' taxonomy. Ghost, Phantom, Blob and
// Wisp are never declared.
func recordOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(recNS)
	for _, a := range [][2]string{
		{"Sensor", "Device"}, {"Radar", "Sensor"}, {"CoastalRadar", "Radar"}, {"Camera", "Sensor"},
		{"Track", "Observation"}, {"RadarTrack", "Track"}, {"Image", "Observation"},
		{"AreaOfInterest", "Region"}, {"CoastalArea", "AreaOfInterest"},
	} {
		if err := o.AddClass(rc(a[0]), rc(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

// rawPayload encodes p in payload version 1 or 2 as Profile.Encode
// does, except that the QoS values are written as given — in any
// order, repeats included — in place of p.QoS. Version 1 writes every
// concept IRI whole; version 2 writes the first whole and each later one
// as the length of the prefix it shares with the one before, then the
// rest.
func rawPayload(version byte, p *profile.Profile, qos ...profile.QoSValue) []byte {
	var w codec.Buffer
	prev, n := "", 0
	iri := func(s string) {
		if version == 2 && n > 0 {
			shared := 0
			for shared < len(s) && shared < len(prev) && s[shared] == prev[shared] {
				shared++
			}
			w.Uvarint(uint64(shared))
			w.String(s[shared:])
		} else {
			w.String(s)
		}
		prev, n = s, n+1
	}
	w.Byte(version)
	w.String(p.ServiceIRI)
	w.String(p.Name)
	w.String(p.Text)
	iri(string(p.Category))
	for _, cs := range [][]ontology.Class{p.Inputs, p.Outputs} {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			iri(string(c))
		}
	}
	w.Uvarint(uint64(len(qos)))
	for _, q := range qos {
		w.String(q.Attr)
		w.Float64(q.Value)
	}
	w.String(p.Grounding)
	w.Bool(p.Coverage != nil)
	if p.Coverage != nil {
		w.Float64(p.Coverage.LatDeg)
		w.Float64(p.Coverage.LonDeg)
		w.Float64(p.Coverage.RadiusKm)
	}
	iri(p.OntologyIRI)
	return w.Bytes()
}

// handPayloads are the hand cases' adverts, each in payload version 1
// and 2: undeclared concepts on each side, Thing, inputs, coverage,
// several, repeated and unsorted QoS values, and more concepts and QoS
// values than a record holds inline.
func handPayloads() [][]byte {
	qv := func(a string, v float64) profile.QoSValue { return profile.QoSValue{Attr: a, Value: v} }
	cov := &profile.Circle{LatDeg: 60, LonDeg: 10, RadiusKm: 50}
	base := func(cat ontology.Class) *profile.Profile {
		return &profile.Profile{ServiceIRI: "urn:svc:" + string(cat), Name: "n", Text: "t", Category: cat, Grounding: "udp://g", OntologyIRI: recNS}
	}
	var out [][]byte
	add := func(p *profile.Profile, qos ...profile.QoSValue) {
		out = append(out, rawPayload(1, p, qos...), rawPayload(2, p, qos...))
	}

	p := base(rc("Radar"))
	p.Inputs = []ontology.Class{rc("AreaOfInterest")}
	p.Outputs = []ontology.Class{rc("Track"), rc("Image")}
	p.Coverage = cov
	add(p, qv("accuracy", 0.92), qv("latency", 4))

	p = base(rc("Ghost"))
	p.Inputs = []ontology.Class{rc("Wisp")}
	p.Outputs = []ontology.Class{rc("Blob"), rc("Track")}
	add(p, qv("accuracy", 0.7))

	p = base(ontology.Thing)
	p.Inputs = []ontology.Class{ontology.Thing}
	p.Outputs = []ontology.Class{ontology.Thing}
	add(p)

	p = base("")
	p.Outputs = []ontology.Class{""}
	p.Inputs = []ontology.Class{""}
	add(p)

	p = base(rc("CoastalRadar"))
	p.Inputs = []ontology.Class{rc("AreaOfInterest"), rc("Wisp")}
	p.Outputs = []ontology.Class{rc("Image"), rc("Blob"), rc("Observation"), rc("Ghost"), rc("Image"), rc("RadarTrack")}
	p.Coverage = cov
	add(p, qv("z", 1), qv("accuracy", 0.3), qv("latency", 9), qv("accuracy", 0.95), qv("b", 2), qv("a", 0.5),
		qv("accuracy2", 0.4), qv("acc", 0.7), qv("a\x00", 3))

	p = base(rc("Camera"))
	p.Outputs = []ontology.Class{rc("Image")}
	add(p, qv("latency", 2), qv("accuracy", 0.8))
	add(p, qv("accuracy", 1e308), qv("latency", -1e308))
	return out
}

// nonFinitePayloads are adverts every decoder must reject, in payload
// version 1 and 2: a NaN or ±Inf QoS value, also where a later repeat
// of the attribute would hide it, and a non-finite coverage field.
func nonFinitePayloads() [][]byte {
	qv := func(a string, v float64) profile.QoSValue { return profile.QoSValue{Attr: a, Value: v} }
	p := &profile.Profile{ServiceIRI: "urn:svc:cam", Category: rc("Camera"), Outputs: []ontology.Class{rc("Image")}, Grounding: "udp://g"}
	var out [][]byte
	for _, qos := range [][]profile.QoSValue{
		{qv("accuracy", math.NaN()), qv("latency", 2)},
		{qv("accuracy", math.Inf(1))},
		{qv("latency", math.Inf(-1))},
		{qv("accuracy", math.NaN()), qv("accuracy", 0.9)},
		{qv("accuracy", 0.9), qv("accuracy", math.NaN())},
	} {
		out = append(out, rawPayload(1, p, qos...), rawPayload(2, p, qos...))
	}
	for _, cov := range []profile.Circle{{RadiusKm: math.NaN()}, {LatDeg: math.Inf(1), RadiusKm: 1}, {LonDeg: math.NaN(), RadiusKm: 1}} {
		p.Coverage = &cov
		out = append(out, rawPayload(1, p), rawPayload(2, p))
	}
	return out
}

// handTemplates pair with handPayloads: every aspect the matcher rates,
// alone and combined.
func handTemplates() []*profile.Template {
	cs := func(names ...ontology.Class) []ontology.Class { return names }
	inside := &profile.Point{LatDeg: 60.1, LonDeg: 10.1}
	outside := &profile.Point{LatDeg: 63, LonDeg: 10}
	q := func(kv ...any) map[string]float64 {
		m := map[string]float64{}
		for i := 0; i < len(kv); i += 2 {
			m[kv[i].(string)] = kv[i+1].(float64)
		}
		return m
	}
	tpls := []*profile.Template{{}, {Near: inside}, {Near: outside}}
	for _, cat := range cs(rc("Sensor"), rc("Radar"), rc("Device"), rc("Camera"), rc("CoastalRadar"), ontology.Thing, rc("Ghost"), rc("Phantom")) {
		tpls = append(tpls, &profile.Template{Category: cat})
	}
	for _, outs := range [][]ontology.Class{
		cs(rc("Track")), cs(rc("Observation")), cs(rc("RadarTrack")), cs(rc("Blob")), cs(ontology.Thing),
		cs(ontology.Thing, rc("Track")), cs(rc("Phantom")), cs(""), cs(rc("Ghost"), rc("Image")),
	} {
		tpls = append(tpls, &profile.Template{RequiredOutputs: outs})
	}
	for _, ins := range [][]ontology.Class{
		cs(rc("CoastalArea")), cs(rc("Region")), cs(rc("Wisp")), cs(ontology.Thing), cs(rc("Phantom")),
		cs(rc("AreaOfInterest"), rc("Wisp")), cs(""),
	} {
		tpls = append(tpls, &profile.Template{ProvidedInputs: ins})
	}
	for _, floors := range []map[string]float64{
		q("accuracy", 0.9), q("accuracy", 0.9, "latency", 2.0), q("latency", 5.0), q("z", 1.0, "accuracy", 0.5),
		q("a", 0.1, "b", 1.0, "z", 0.5), q("missing", 1.0), q("accuracy", 0.5, "missing", 1.0),
		q("accuracy", math.NaN()), q("accuracy", math.Inf(1)), q("accuracy", -1.0), q("accuracy", 0.0),
		q("accuracy2", 0.3), q("acc", 0.5, "accuracy", 0.9), q("accuracy2", 0.3, "accuracy", 0.2), q("a\x00", 1.0, "a", 0.1),
	} {
		tpls = append(tpls, &profile.Template{MinQoS: floors})
	}
	return append(tpls,
		&profile.Template{Category: rc("Sensor"), RequiredOutputs: cs(rc("Track")), ProvidedInputs: cs(rc("CoastalArea")),
			MinQoS: q("accuracy", 0.5), Near: inside},
		&profile.Template{Category: ontology.Thing, RequiredOutputs: cs(ontology.Thing, rc("Blob")), ProvidedInputs: cs(ontology.Thing, rc("Wisp"))},
		&profile.Template{Category: rc("Radar"), RequiredOutputs: cs(rc("RadarTrack"), rc("Image")), MinQoS: q("a", 0.2, "accuracy", 0.9)},
	)
}

// recordChecker compares every evaluation path over a match record with
// OracleMatch, bit for bit.
type recordChecker struct {
	onto  *ontology.Ontology
	m     *match.Matcher
	model *describe.SemanticModel
}

func newRecordChecker(o *ontology.Ontology) *recordChecker {
	return &recordChecker{onto: o, m: match.New(o), model: describe.NewSemanticModel(o)}
}

// decode decodes the payload both ways: the oracle's profile and the
// model's record. They must agree on whether it is valid.
func (c *recordChecker) decode(t testing.TB, payload []byte) (*profile.Profile, describe.Description) {
	t.Helper()
	p, perr := profile.Decode(payload)
	d, derr := c.model.DecodeDescription(payload)
	if (perr == nil) != (derr == nil) {
		t.Fatalf("profile.Decode says %v, DecodeDescription says %v", perr, derr)
	}
	if perr != nil {
		return nil, nil
	}
	if d.ServiceKey() != p.ServiceIRI || d.Endpoint() != p.Grounding || !bytes.Equal(d.Encode(), payload) {
		t.Fatalf("decoded record: key %q, endpoint %q; profile: %q, %q", d.ServiceKey(), d.Endpoint(), p.ServiceIRI, p.Grounding)
	}
	return p, d
}

// check evaluates the query against the decoded record, and its
// template against p raw and interned, and compares each with the
// oracle.
func (c *recordChecker) check(t testing.TB, q *describe.SemanticQuery, p *profile.Profile, d describe.Description) {
	t.Helper()
	tpl := q.Template
	want := match.OracleMatch(c.onto, tpl, p)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, path := range []struct {
		name string
		got  match.Result
	}{
		{"compiled", c.m.Match(tpl, p)},
		{"decoded", c.m.MatchRecord(tpl, &d.(*describe.SemanticRecord).Record)},
	} {
		if path.got.Degree != want.Degree || !same(path.got.Score, want.Score) {
			t.Fatalf("%s record: template %+v, profile %+v: got %+v, oracle %+v", path.name, tpl, p, path.got, want)
		}
	}
	wantEv := describe.Evaluation{}
	if want.Matches(q.MinDegree) {
		wantEv = describe.Evaluation{Matched: true, Degree: uint8(want.Degree), Score: want.Score}
	}
	ev := c.model.Evaluate(q, d)
	if ev.Matched != wantEv.Matched || ev.Degree != wantEv.Degree || !same(ev.Score, wantEv.Score) {
		t.Fatalf("Evaluate: template %+v (min %v), profile %+v: got %+v, oracle %+v", tpl, q.MinDegree, p, ev, wantEv)
	}
}

// TestRecordMatchesOracleHandCases: every hand template against every
// hand advert, at three minimum degrees, equals the oracle — the
// decoded record, the record compiled from the profile, and the one
// Profile.Intern caches.
func TestRecordMatchesOracleHandCases(t *testing.T) {
	o := recordOntology(t)
	c := newRecordChecker(o)
	plain := &profile.Profile{ServiceIRI: "urn:s", Category: rc("Radar"), Grounding: "g", OntologyIRI: recNS,
		Outputs: []ontology.Class{rc("RadarTrack"), rc("Track")},
		QoS:     map[string]float64{"b": 2, "a": 1}, Coverage: &profile.Circle{RadiusKm: 1}}
	if !bytes.Equal(rawPayload(2, plain, profile.QoSValue{Attr: "a", Value: 1}, profile.QoSValue{Attr: "b", Value: 2}), plain.Encode()) {
		t.Fatal("rawPayload drifted from Profile.Encode")
	}
	tpls := handTemplates()
	for _, tpl := range tpls {
		tpl.Intern(o)
	}
	// A profile built in process is never decoded, so its QoS values
	// may be non-finite; the matcher must still agree with the oracle.
	for _, qos := range []map[string]float64{{"accuracy": math.NaN()}, {"accuracy": math.Inf(1)}, {"latency": math.Inf(-1), "accuracy": 0.9}} {
		p := &profile.Profile{ServiceIRI: "urn:s", Category: rc("Camera"), Grounding: "g", QoS: qos}
		p.Intern(o)
		for _, tpl := range tpls {
			want := match.OracleMatch(o, tpl, p)
			for _, got := range []match.Result{c.m.Match(tpl, p), c.m.MatchRecord(tpl, p.RecordFor(o))} {
				if got.Degree != want.Degree || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
					t.Fatalf("template %+v, QoS %v: got %+v, oracle %+v", tpl, qos, got, want)
				}
			}
		}
	}
	for _, payload := range handPayloads() {
		p, d := c.decode(t, payload)
		if p == nil {
			t.Fatal("hand payload does not decode")
		}
		for _, interned := range []bool{false, true} {
			if interned {
				p.Intern(o)
			}
			for _, tpl := range tpls {
				for _, min := range []match.Degree{match.Fail, match.PlugIn, match.Exact} {
					c.check(t, &describe.SemanticQuery{Template: tpl, MinDegree: min}, p, d)
				}
			}
		}
	}
}

// TestRecordMatchesOracleOverBenchGrids: the bench's population
// (workload.GenProfiles over the leaves of a depth-6, branching-3
// taxonomy) against its hot grid (every leaf category) and a stride of
// its cold grid (category at levels 1–4 × required output × accuracy
// floor), decoded as the registry decodes them.
func TestRecordMatchesOracleOverBenchGrids(t *testing.T) {
	o, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	c := newRecordChecker(o)
	pop := workload.GenProfiles(workload.PopulationSpec{N: 120, Classes: levels[5], DataClasses: levels[3], OntologyIRI: o.IRI, Seed: 3})
	var grid []*profile.Template
	for _, leaf := range levels[5] {
		grid = append(grid, &profile.Template{Category: leaf})
	}
	cold := 0
	for _, cat := range slices.Concat(levels[1:5]...) {
		for _, out := range levels[3] {
			for _, acc := range []float64{.5, .6, .7, .8} {
				if cold++; cold%13 == 0 {
					grid = append(grid, &profile.Template{Category: cat, RequiredOutputs: []ontology.Class{out}, MinQoS: map[string]float64{"accuracy": acc}})
				}
			}
		}
	}
	queries := make([]*describe.SemanticQuery, len(grid))
	for i, tpl := range grid {
		q, err := c.model.DecodeQuery((&describe.SemanticQuery{Template: tpl, MinDegree: match.Subsumed}).Encode())
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q.(*describe.SemanticQuery)
	}
	matched := 0
	for _, gp := range pop {
		p, d := c.decode(t, gp.Encode())
		p.Intern(o)
		for _, q := range queries {
			c.check(t, q, p, d)
			if c.model.Evaluate(q, d).Matched {
				matched++
			}
		}
	}
	if matched == 0 {
		t.Fatal("degenerate grid: nothing matched")
	}
}

// TestNonFiniteRejectedAtDecode: an advert with accuracy +Inf against
// a floor of +Inf once matched with score (Inf−Inf)/Inf = NaN, which
// breaks the ranking's strict order; a NaN coverage radius decoded
// too. Every decoder now rejects a non-finite QoS value, floor,
// coverage field or Near coordinate, in both payload versions.
func TestNonFiniteRejectedAtDecode(t *testing.T) {
	o := recordOntology(t)
	c := newRecordChecker(o)
	for i, payload := range nonFinitePayloads() {
		if _, err := profile.Decode(payload); !errors.Is(err, profile.ErrBadPayload) {
			t.Errorf("payload %d: profile.Decode = %v, want ErrBadPayload", i, err)
		}
		if _, err := c.model.DecodeDescription(payload); !errors.Is(err, profile.ErrBadPayload) {
			t.Errorf("payload %d: DecodeDescription = %v, want ErrBadPayload", i, err)
		}
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, tpl := range []*profile.Template{
		{MinQoS: map[string]float64{"accuracy": inf}},
		{MinQoS: map[string]float64{"accuracy": 0.5, "latency": nan}},
		{MinQoS: map[string]float64{"accuracy": math.Inf(-1)}},
		{Near: &profile.Point{LatDeg: nan}},
		{Near: &profile.Point{LatDeg: 60, LonDeg: inf}},
	} {
		q := &describe.SemanticQuery{Template: tpl, MinDegree: match.Fail}
		if _, err := c.model.DecodeQuery(q.Encode()); !errors.Is(err, profile.ErrBadPayload) {
			t.Errorf("template %+v: DecodeQuery = %v, want ErrBadPayload", tpl, err)
		}
	}
}

// FuzzSemanticRecord decodes arbitrary profile and query bytes, in
// either payload version; whenever both decode, Evaluate on the decoded
// record must equal the oracle on the decoded profile and its score
// must be finite, and the record decoder must accept exactly the
// payloads profile.Decode accepts.
func FuzzSemanticRecord(f *testing.F) {
	o := recordOntology(f)
	c := newRecordChecker(o)
	payloads := handPayloads()
	for i, tpl := range handTemplates() {
		q := &describe.SemanticQuery{Template: tpl, MinDegree: match.Degree(i % 4)}
		f.Add(payloads[i%len(payloads)], q.Encode())
	}
	infFloor := &describe.SemanticQuery{Template: &profile.Template{MinQoS: map[string]float64{"accuracy": math.Inf(1)}}}
	for _, payload := range nonFinitePayloads() {
		f.Add(payload, infFloor.Encode())
	}
	f.Fuzz(func(t *testing.T, payload, query []byte) {
		p, d := c.decode(t, payload)
		q, err := c.model.DecodeQuery(query)
		if p == nil || err != nil {
			return
		}
		sq := q.(*describe.SemanticQuery)
		c.check(t, sq, p, d)
		if s := c.model.Evaluate(sq, d).Score; math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score %v for template %+v, profile %+v", s, sq.Template, p)
		}
	})
}
