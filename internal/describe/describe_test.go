package describe

import (
	"reflect"
	"testing"
	"testing/quick"

	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/workload"
)

const ns = "http://semdisco.example/onto#"

func c(name string) ontology.Class { return ontology.Class(ns + name) }

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(ns)
	for _, a := range [][2]string{
		{"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"},
		{"Track", "Observation"},
	} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

func stdRegistry(t testing.TB) *Registry {
	t.Helper()
	return NewRegistry(URIModel{}, KVModel{}, NewSemanticModel(testOntology(t)))
}

func TestRegistryDispatch(t *testing.T) {
	r := stdRegistry(t)
	if got := r.Kinds(); !reflect.DeepEqual(got, []Kind{KindURI, KindKV, KindSemantic}) {
		t.Fatalf("Kinds = %v", got)
	}
	if _, ok := r.Model(KindURI); !ok {
		t.Fatal("URI model missing")
	}
	if _, ok := r.Model(Kind(42)); ok {
		t.Fatal("unknown kind resolved")
	}
	if _, err := r.DecodeDescription(Kind(42), nil); err == nil {
		t.Fatal("decode for unknown kind succeeded")
	}
	if _, err := r.DecodeQuery(Kind(42), nil); err == nil {
		t.Fatal("query decode for unknown kind succeeded")
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate model registration did not panic")
		}
	}()
	NewRegistry(URIModel{}, URIModel{})
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{KindURI: "uri", KindKV: "kv", KindSemantic: "semantic", KindInvalid: "invalid", Kind(9): "kind(9)"} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// --- URI model ---

func TestURIRoundTripAndMatch(t *testing.T) {
	m := URIModel{}
	d := &URIDescription{TypeURI: "urn:type:radar", ServiceURI: "urn:svc:1", Name: "r1", Addr: "udp://h:1"}
	got, err := m.DecodeDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	q := &URIQuery{TypeURI: "urn:type:radar"}
	gq, err := m.DecodeQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gq, q) {
		t.Fatalf("query round trip mismatch: %+v", gq)
	}
	if ev := m.Evaluate(q, d); !ev.Matched {
		t.Fatal("exact type did not match")
	}
	if ev := m.Evaluate(&URIQuery{TypeURI: "urn:type:sensor"}, d); ev.Matched {
		t.Fatal("different type matched — URI model must be exact-only")
	}
	// Trailing slash normalization.
	if ev := m.Evaluate(&URIQuery{TypeURI: "urn:type:radar/"}, d); !ev.Matched {
		t.Fatal("trailing slash broke the match")
	}
}

func TestURISummaryAndQueryTokens(t *testing.T) {
	m := URIModel{}
	d := &URIDescription{TypeURI: "urn:type:radar"}
	if toks := m.SummaryTokens(d); len(toks) != 1 || toks[0] != "urn:type:radar" {
		t.Fatalf("SummaryTokens = %v", toks)
	}
	toks, prunable := m.QueryTokens(&URIQuery{TypeURI: "urn:type:radar"})
	if !prunable || len(toks) != 1 {
		t.Fatalf("QueryTokens = (%v, %v)", toks, prunable)
	}
}

// --- KV model ---

func TestKVRoundTrip(t *testing.T) {
	m := KVModel{}
	d := &KVDescription{
		ServiceURI: "urn:svc:2", Name: "Weather feed", TypeURI: "urn:type:weather",
		Attrs: map[string]string{"region": "north", "format": "grib"},
		Addr:  "http://h:2",
	}
	got, err := m.DecodeDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	q := &KVQuery{NamePrefix: "Wea", TypeURI: "urn:type:weather", Attrs: map[string]string{"region": "north"}}
	gq, err := m.DecodeQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gq, q) {
		t.Fatalf("query round trip mismatch: %+v", gq)
	}
}

func TestKVEvaluate(t *testing.T) {
	m := KVModel{}
	d := &KVDescription{
		ServiceURI: "urn:svc:2", Name: "Weather feed", TypeURI: "urn:type:weather",
		Attrs: map[string]string{"region": "north"},
	}
	cases := []struct {
		q    *KVQuery
		want bool
	}{
		{&KVQuery{}, true},                      // catch-all
		{&KVQuery{NamePrefix: "weather"}, true}, // case-insensitive prefix
		{&KVQuery{NamePrefix: "xyz"}, false},
		{&KVQuery{TypeURI: "urn:type:weather"}, true},
		{&KVQuery{TypeURI: "urn:type:radar"}, false},
		{&KVQuery{Attrs: map[string]string{"region": "north"}}, true},
		{&KVQuery{Attrs: map[string]string{"region": "south"}}, false},
		{&KVQuery{Attrs: map[string]string{"missing": "x"}}, false},
		{&KVQuery{NamePrefix: "Wea", TypeURI: "urn:type:weather", Attrs: map[string]string{"region": "north"}}, true},
	}
	for i, cs := range cases {
		if got := m.Evaluate(cs.q, d).Matched; got != cs.want {
			t.Errorf("case %d: Matched = %v, want %v", i, got, cs.want)
		}
	}
	// More specific queries score their hits higher.
	broad := m.Evaluate(&KVQuery{}, d)
	narrow := m.Evaluate(&KVQuery{TypeURI: "urn:type:weather", Attrs: map[string]string{"region": "north"}}, d)
	if narrow.Score <= 0 || broad.Score <= 0 {
		t.Fatal("scores must be positive for matches")
	}
}

func TestKVQueryTokens(t *testing.T) {
	m := KVModel{}
	if _, prunable := m.QueryTokens(&KVQuery{Attrs: map[string]string{"a": "b"}}); prunable {
		t.Fatal("attribute-only query must not be prunable")
	}
	toks, prunable := m.QueryTokens(&KVQuery{TypeURI: "urn:t"})
	if !prunable || len(toks) != 1 {
		t.Fatalf("typed query tokens = (%v, %v)", toks, prunable)
	}
}

// --- Semantic model ---

func semanticPair(t testing.TB) (*SemanticModel, *SemanticDescription) {
	m := NewSemanticModel(testOntology(t))
	d := &SemanticDescription{Profile: &profile.Profile{
		ServiceIRI: "urn:svc:radar", Category: c("Radar"),
		Outputs: []ontology.Class{c("Track")}, Grounding: "urn:g",
	}}
	return m, d
}

// TestSemanticRoundTrip checks the decoded description against the
// authored one through the public contract only: the same kind, key,
// endpoint and payload bytes, the same index keys, and the same
// evaluation of every query.
func TestSemanticRoundTrip(t *testing.T) {
	m, d := semanticPair(t)
	d.Profile.Inputs = []ontology.Class{c("Track"), c("Ghost")}
	d.Profile.QoS = map[string]float64{"accuracy": 0.9, "latency": 3}
	d.Profile.Coverage = &profile.Circle{LatDeg: 60, LonDeg: 10, RadiusKm: 50}
	got, err := m.DecodeDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != d.Kind() || got.ServiceKey() != d.ServiceKey() || got.Endpoint() != d.Endpoint() {
		t.Fatalf("decoded (%v, %q, %q), authored (%v, %q, %q)",
			got.Kind(), got.ServiceKey(), got.Endpoint(), d.Kind(), d.ServiceKey(), d.Endpoint())
	}
	if !reflect.DeepEqual(got.Encode(), d.Encode()) {
		t.Fatal("the decoded description encodes to other bytes")
	}
	if !reflect.DeepEqual(m.SummaryTokens(got), m.SummaryTokens(d)) || !reflect.DeepEqual(m.OutputConceptIDs(got), m.OutputConceptIDs(d)) {
		t.Fatal("decoded and authored descriptions carry different index keys")
	}
	gid, gok := m.DescriptionConceptID(got)
	did, dok := m.DescriptionConceptID(d)
	if gid != did || gok != dok {
		t.Fatalf("DescriptionConceptID: decoded (%d, %v), authored (%d, %v)", gid, gok, did, dok)
	}
	near := &profile.Point{LatDeg: 60.1, LonDeg: 10.1}
	far := &profile.Point{LatDeg: 63, LonDeg: 10}
	for _, tpl := range []*profile.Template{
		{}, {Category: c("Sensor")}, {Category: c("Camera")}, {Category: ontology.Thing},
		{RequiredOutputs: []ontology.Class{c("Observation")}},
		{ProvidedInputs: []ontology.Class{c("Track"), c("Ghost")}},
		{ProvidedInputs: []ontology.Class{c("Track")}},
		{MinQoS: map[string]float64{"accuracy": 0.5, "latency": 1}},
		{MinQoS: map[string]float64{"accuracy": 0.95}},
		{Near: near}, {Near: far},
	} {
		for _, min := range []match.Degree{match.Fail, match.Exact} {
			q := &SemanticQuery{Template: tpl, MinDegree: min}
			if ev, want := m.Evaluate(q, got), m.Evaluate(q, d); ev != want {
				t.Fatalf("template %+v: decoded evaluates %+v, authored %+v", tpl, ev, want)
			}
		}
	}

	q := &SemanticQuery{Template: &profile.Template{Category: c("Sensor")}, MinDegree: match.PlugIn}
	gq, err := m.DecodeQuery(q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	q.Template.Intern(m.Ontology()) // DecodeQuery interns eagerly
	if !reflect.DeepEqual(gq, q) {
		t.Fatalf("query round trip mismatch: %+v vs %+v", gq, q)
	}
	if _, err := m.DecodeQuery(nil); err == nil {
		t.Fatal("empty semantic query accepted")
	}
}

// TestSemanticRecordFromAnotherOntology: a record decoded by a model
// over another ontology carries that ontology's class IDs, so a model
// evaluates and indexes it as if it had decoded the payload itself.
func TestSemanticRecordFromAnotherOntology(t *testing.T) {
	m, d := semanticPair(t)
	// An extra class that sorts first shifts every class ID by one.
	o := ontology.New(ns)
	for _, a := range [][2]string{
		{"Aardvark", "Device"}, {"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"}, {"Track", "Observation"},
	} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	if o.ClassID(c("Radar")) == m.Ontology().ClassID(c("Radar")) {
		t.Fatal("setup: the foreign ontology numbers Radar alike")
	}
	foreign := NewSemanticModel(o)
	theirs, err := foreign.DecodeDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ours, err := m.DecodeDescription(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for _, cat := range []ontology.Class{c("Sensor"), c("Radar"), c("Camera"), ontology.Thing} {
		q := &SemanticQuery{Template: &profile.Template{Category: cat, RequiredOutputs: []ontology.Class{c("Observation")}}}
		if got, want := m.Evaluate(q, theirs), m.Evaluate(q, ours); got != want {
			t.Fatalf("query %s: foreign record evaluates %+v, own record %+v", cat, got, want)
		}
	}
	gid, gok := m.DescriptionConceptID(theirs)
	wid, wok := m.DescriptionConceptID(ours)
	if gid != wid || gok != wok || !reflect.DeepEqual(m.OutputConceptIDs(theirs), m.OutputConceptIDs(ours)) {
		t.Fatal("a foreign record carries other index keys than an own one")
	}
}

func TestSemanticEvaluateSubsumption(t *testing.T) {
	m, d := semanticPair(t)
	// Requesting Sensor finds the Radar service — the paper's core
	// semantic-discovery example.
	ev := m.Evaluate(&SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}, d)
	if !ev.Matched || match.Degree(ev.Degree) != match.PlugIn {
		t.Fatalf("Evaluate = %+v, want plugin match", ev)
	}
	// MinDegree gates weaker matches out.
	ev = m.Evaluate(&SemanticQuery{
		Template:  &profile.Template{Category: c("Sensor")},
		MinDegree: match.Exact,
	}, d)
	if ev.Matched {
		t.Fatal("plugin match cleared an Exact floor")
	}
	// Unrelated category fails.
	ev = m.Evaluate(&SemanticQuery{Template: &profile.Template{Category: c("Camera")}}, d)
	if ev.Matched {
		t.Fatal("Camera query matched a Radar service")
	}
}

func TestSemanticQueryTokensSoundness(t *testing.T) {
	m, d := semanticPair(t)
	// Soundness: if a query matches a description, the description's
	// summary token must be among the query tokens.
	queries := []ontology.Class{c("Radar"), c("Sensor"), c("Device"), c("Camera"), ontology.Thing}
	for _, qc := range queries {
		q := &SemanticQuery{Template: &profile.Template{Category: qc}}
		ev := m.Evaluate(q, d)
		toks, prunable := m.QueryTokens(q)
		if !prunable {
			continue
		}
		tokSet := map[string]bool{}
		for _, tok := range toks {
			tokSet[tok] = true
		}
		summary := m.SummaryTokens(d)
		overlap := false
		for _, s := range summary {
			if tokSet[s] {
				overlap = true
			}
		}
		if ev.Matched && !overlap {
			t.Errorf("query %s matched but summary pruning would drop it", qc)
		}
	}
}

func TestSemanticQueryTokensUnprunableWithoutCategory(t *testing.T) {
	m, _ := semanticPair(t)
	q := &SemanticQuery{Template: &profile.Template{RequiredOutputs: []ontology.Class{c("Track")}}}
	if _, prunable := m.QueryTokens(q); prunable {
		t.Fatal("category-free query must not be prunable")
	}
}

func TestCrossModelEvaluateIsSafe(t *testing.T) {
	// Feeding a model a query/description of the wrong dynamic type must
	// yield no-match, never a panic.
	uri, kv := URIModel{}, KVModel{}
	sem, sd := semanticPair(t)
	ud := &URIDescription{TypeURI: "t"}
	uq := &URIQuery{TypeURI: "t"}
	if uri.Evaluate(&KVQuery{}, ud).Matched ||
		kv.Evaluate(uq, &KVDescription{}).Matched ||
		sem.Evaluate(uq, sd).Matched {
		t.Fatal("cross-model evaluation matched")
	}
}

func TestDecodeFuzzSafety(t *testing.T) {
	r := stdRegistry(t)
	f := func(kind uint8, b []byte) bool {
		k := Kind(kind%4 + 1)
		if m, ok := r.Model(k); ok {
			m.DecodeDescription(b)
			m.DecodeQuery(b)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticPruningSoundnessOverRandomTaxonomies(t *testing.T) {
	// Property over generated taxonomies: whenever the semantic model
	// matches a (query, description) pair, the description's summary
	// tokens intersect the query's tokens — the invariant both the
	// registry token index and federation summary pruning rely on.
	for seed := int64(0); seed < 5; seed++ {
		onto, levels := workload.GenOntology(workload.OntologySpec{
			Depth: 3 + int(seed%3), Branching: 2 + int(seed%2),
		})
		m := NewSemanticModel(onto)
		var all []ontology.Class
		for _, lvl := range levels {
			all = append(all, lvl...)
		}
		pop := workload.GenProfiles(workload.PopulationSpec{N: 40, Classes: all, Seed: seed})
		for qi := 0; qi < len(all); qi += 2 {
			q := &SemanticQuery{Template: &profile.Template{Category: all[qi]}}
			toks, prunable := m.QueryTokens(q)
			if !prunable {
				continue
			}
			tokSet := map[string]bool{}
			for _, tok := range toks {
				tokSet[tok] = true
			}
			for _, p := range pop {
				d := &SemanticDescription{Profile: p}
				if !m.Evaluate(q, d).Matched {
					continue
				}
				overlap := false
				for _, s := range m.SummaryTokens(d) {
					if tokSet[s] {
						overlap = true
						break
					}
				}
				if !overlap {
					t.Fatalf("seed %d: match between %s and %s invisible to pruning",
						seed, all[qi], p.Category)
				}
			}
		}
	}
}
