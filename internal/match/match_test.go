package match

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

const ns = "http://semdisco.example/onto#"

func c(name string) ontology.Class { return ontology.Class(ns + name) }

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(ns)
	axioms := [][2]string{
		{"Sensor", "Device"},
		{"Radar", "Sensor"},
		{"CoastalRadar", "Radar"},
		{"Camera", "Sensor"},
		{"Track", "Observation"},
		{"RadarTrack", "Track"},
		{"Image", "Observation"},
		{"AreaOfInterest", "Region"},
		{"CoastalArea", "AreaOfInterest"},
	}
	for _, a := range axioms {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

func radarService() *profile.Profile {
	return &profile.Profile{
		ServiceIRI: "urn:svc:radar",
		Category:   c("Radar"),
		Inputs:     []ontology.Class{c("AreaOfInterest")},
		Outputs:    []ontology.Class{c("RadarTrack")},
		QoS:        map[string]float64{"accuracy": 0.9},
		Grounding:  "urn:g",
	}
}

func TestCategoryDegrees(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService()
	cases := []struct {
		requested string
		want      Degree
	}{
		{"Radar", Exact},
		{"Sensor", PlugIn},         // a Radar is a kind of Sensor
		{"Device", PlugIn},         // transitively
		{"CoastalRadar", Subsumed}, // service is more general than asked
		{"Camera", Fail},
	}
	for _, cs := range cases {
		r := m.Match(&profile.Template{Category: c(cs.requested)}, svc)
		if r.Degree != cs.want {
			t.Errorf("category %s: degree = %v, want %v", cs.requested, r.Degree, cs.want)
		}
	}
}

func TestOutputMatching(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService()
	// Requesting Track: service outputs RadarTrack ⊑ Track → PlugIn.
	r := m.Match(&profile.Template{RequiredOutputs: []ontology.Class{c("Track")}}, svc)
	if r.Degree != PlugIn {
		t.Fatalf("Track request = %v, want plugin", r.Degree)
	}
	// Requesting RadarTrack exactly.
	r = m.Match(&profile.Template{RequiredOutputs: []ontology.Class{c("RadarTrack")}}, svc)
	if r.Degree != Exact {
		t.Fatalf("RadarTrack request = %v, want exact", r.Degree)
	}
	// Requesting Image: no service output relates → Fail.
	r = m.Match(&profile.Template{RequiredOutputs: []ontology.Class{c("Image")}}, svc)
	if r.Degree != Fail {
		t.Fatalf("Image request = %v, want fail", r.Degree)
	}
	// Two required outputs where one fails → overall Fail.
	r = m.Match(&profile.Template{RequiredOutputs: []ontology.Class{c("Track"), c("Image")}}, svc)
	if r.Degree != Fail {
		t.Fatalf("partial outputs = %v, want fail", r.Degree)
	}
}

func TestBestOutputChosen(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService()
	svc.Outputs = []ontology.Class{c("Observation"), c("Track")}
	// Requesting Track: Track itself (Exact) must win over Observation
	// (Subsumed).
	r := m.Match(&profile.Template{RequiredOutputs: []ontology.Class{c("Track")}}, svc)
	if r.Degree != Exact {
		t.Fatalf("degree = %v, want exact (best advertised output)", r.Degree)
	}
}

func TestInputMatching(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService() // needs AreaOfInterest
	// Client provides CoastalArea ⊑ AreaOfInterest → PlugIn.
	r := m.Match(&profile.Template{ProvidedInputs: []ontology.Class{c("CoastalArea")}}, svc)
	if r.Degree != PlugIn {
		t.Fatalf("specialized input = %v, want plugin", r.Degree)
	}
	// Client provides exactly AreaOfInterest → Exact.
	r = m.Match(&profile.Template{ProvidedInputs: []ontology.Class{c("AreaOfInterest")}}, svc)
	if r.Degree != Exact {
		t.Fatalf("exact input = %v, want exact", r.Degree)
	}
	// Client provides only Region (too general) → Subsumed.
	r = m.Match(&profile.Template{ProvidedInputs: []ontology.Class{c("Region")}}, svc)
	if r.Degree != Subsumed {
		t.Fatalf("general input = %v, want subsumed", r.Degree)
	}
	// Client provides an unrelated concept → Fail.
	r = m.Match(&profile.Template{ProvidedInputs: []ontology.Class{c("Image")}}, svc)
	if r.Degree != Fail {
		t.Fatalf("unrelated input = %v, want fail", r.Degree)
	}
	// Template that says nothing about inputs is unconstrained.
	r = m.Match(&profile.Template{Category: c("Radar")}, svc)
	if r.Degree != Exact {
		t.Fatalf("input-free template = %v, want exact", r.Degree)
	}
}

func TestOverallIsWeakestAspect(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService()
	// Category exact but outputs only plugin → overall plugin.
	r := m.Match(&profile.Template{
		Category:        c("Radar"),
		RequiredOutputs: []ontology.Class{c("Track")},
	}, svc)
	if r.Degree != PlugIn {
		t.Fatalf("overall = %v, want plugin (weakest aspect)", r.Degree)
	}
}

func TestQoSThresholds(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService() // accuracy 0.9
	r := m.Match(&profile.Template{MinQoS: map[string]float64{"accuracy": 0.8}}, svc)
	if r.Degree == Fail {
		t.Fatal("satisfied QoS threshold failed the match")
	}
	r = m.Match(&profile.Template{MinQoS: map[string]float64{"accuracy": 0.95}}, svc)
	if r.Degree != Fail {
		t.Fatal("unsatisfied QoS threshold did not fail")
	}
	r = m.Match(&profile.Template{MinQoS: map[string]float64{"updateHz": 1}}, svc)
	if r.Degree != Fail {
		t.Fatal("missing QoS attribute did not fail")
	}
}

func TestCoverage(t *testing.T) {
	m := New(testOntology(t))
	svc := radarService()
	svc.Coverage = &profile.Circle{LatDeg: 60, LonDeg: 10, RadiusKm: 50}
	inside := &profile.Point{LatDeg: 60.1, LonDeg: 10.1}
	outside := &profile.Point{LatDeg: 63, LonDeg: 10}
	if r := m.Match(&profile.Template{Near: inside}, svc); r.Degree == Fail {
		t.Fatal("in-coverage request failed")
	}
	if r := m.Match(&profile.Template{Near: outside}, svc); r.Degree != Fail {
		t.Fatal("out-of-coverage request matched")
	}
	svc.Coverage = nil
	if r := m.Match(&profile.Template{Near: outside}, svc); r.Degree == Fail {
		t.Fatal("coverage-free service failed a located request")
	}
}

func TestScoreOrdersSpecificity(t *testing.T) {
	m := New(testOntology(t))
	tpl := &profile.Template{Category: c("Sensor")}
	radar := radarService() // Radar: depth(Sensor)=2, depth(Radar)=3
	coastal := radarService()
	coastal.ServiceIRI = "urn:svc:coastal"
	coastal.Category = c("CoastalRadar") // deeper → less similar to Sensor
	rRadar := m.Match(tpl, radar)
	rCoastal := m.Match(tpl, coastal)
	if rRadar.Degree != PlugIn || rCoastal.Degree != PlugIn {
		t.Fatalf("degrees = %v, %v; want plugin, plugin", rRadar.Degree, rCoastal.Degree)
	}
	if rRadar.Score <= rCoastal.Score {
		t.Fatalf("closer concept must score higher: %v vs %v", rRadar.Score, rCoastal.Score)
	}
}

// TestRankDeterministicTotalOrder: Result.Compare orders results best
// first, by degree and then score, and ties equal results so that a
// caller's own tiebreaker (here the service IRI, as the client and the
// centralized baseline use) makes the order total.
func TestRankDeterministicTotalOrder(t *testing.T) {
	m := New(testOntology(t))
	tpl := &profile.Template{Category: c("Sensor")}
	type ranked struct {
		iri string
		r   Result
	}
	mk := func(iri, cat string) ranked {
		p := radarService()
		p.ServiceIRI = iri
		p.Category = c(cat)
		return ranked{iri, m.Match(tpl, p)}
	}
	rs := []ranked{
		mk("urn:b", "Radar"),
		mk("urn:a", "Radar"),  // equal degree+score as urn:b → IRI tiebreak
		mk("urn:c", "Sensor"), // exact → first
		mk("urn:d", "CoastalRadar"),
	}
	if rs[0].r.Compare(rs[1].r) != 0 {
		t.Fatalf("equal results compare %d, want 0", rs[0].r.Compare(rs[1].r))
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		if c := a.r.Compare(b.r); c != 0 {
			return c
		}
		return strings.Compare(a.iri, b.iri)
	})
	gotOrder := []string{}
	for _, r := range rs {
		gotOrder = append(gotOrder, r.iri)
	}
	want := []string{"urn:c", "urn:a", "urn:b", "urn:d"}
	for i := range want {
		if gotOrder[i] != want[i] {
			t.Fatalf("rank order = %v, want %v", gotOrder, want)
		}
	}
}

func TestMatchesHelper(t *testing.T) {
	if (Result{Degree: Fail}).Matches(Fail) {
		t.Fatal("Fail result must never match")
	}
	if !(Result{Degree: Subsumed}).Matches(Subsumed) {
		t.Fatal("subsumed should clear a subsumed floor")
	}
	if (Result{Degree: Subsumed}).Matches(PlugIn) {
		t.Fatal("subsumed cleared a plugin floor")
	}
	if !(Result{Degree: Exact}).Matches(PlugIn) {
		t.Fatal("exact should clear a plugin floor")
	}
}

func TestDegreeString(t *testing.T) {
	want := map[Degree]string{Fail: "fail", Subsumed: "subsumed", PlugIn: "plugin", Exact: "exact"}
	for d, s := range want {
		if d.String() != s {
			t.Errorf("Degree(%d).String() = %q, want %q", d, d.String(), s)
		}
	}
	if Degree(9).String() == "" {
		t.Error("unknown degree should still render")
	}
}

func TestNilOntologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(nil) did not panic")
		}
	}()
	New(nil)
}

func TestConceptDegreeProperties(t *testing.T) {
	// Properties over all class pairs of the test ontology:
	//  1. Exact ⇔ equality
	//  2. PlugIn(requested, advertised) ⇔ Subsumed(advertised, requested)
	//     (the degrees are duals under swapping roles)
	//  3. Fail is symmetric.
	o := testOntology(t)
	m := New(o)
	classes := append(o.Classes(), c("Undeclared"), c("Unknown"))
	for _, req := range classes {
		for _, adv := range classes {
			d, _ := m.evalConcept(req, adv, o.ClassID(req), o.ClassID(adv))
			dual, _ := m.evalConcept(adv, req, o.ClassID(adv), o.ClassID(req))
			switch d {
			case Exact:
				if req != adv {
					t.Fatalf("Exact for %s vs %s", req, adv)
				}
				if dual != Exact {
					t.Fatalf("Exact not symmetric for %s/%s", req, adv)
				}
			case PlugIn:
				if dual != Subsumed {
					t.Fatalf("PlugIn(%s,%s) dual = %v, want Subsumed", req, adv, dual)
				}
			case Subsumed:
				if dual != PlugIn {
					t.Fatalf("Subsumed(%s,%s) dual = %v, want PlugIn", req, adv, dual)
				}
			case Fail:
				if dual != Fail {
					t.Fatalf("Fail not symmetric for %s/%s", req, adv)
				}
			}
		}
	}
}

func TestMatchDegreeMonotoneInTemplateStrictness(t *testing.T) {
	// Adding constraints to a template can never improve the degree.
	o := testOntology(t)
	m := New(o)
	svc := radarService()
	base := &profile.Template{Category: c("Sensor")}
	tightened := []*profile.Template{
		{Category: c("Sensor"), RequiredOutputs: []ontology.Class{c("Track")}},
		{Category: c("Sensor"), MinQoS: map[string]float64{"accuracy": 0.8}},
		{Category: c("Sensor"), RequiredOutputs: []ontology.Class{c("Image")}}, // unsatisfiable
		{Category: c("Sensor"), MinQoS: map[string]float64{"accuracy": 0.99}},  // unsatisfiable
	}
	baseDeg := m.Match(base, svc).Degree
	for i, tpl := range tightened {
		if got := m.Match(tpl, svc).Degree; got > baseDeg {
			t.Fatalf("template %d: tightening improved degree %v > %v", i, got, baseDeg)
		}
	}
}

func TestMatchWithIOPopulation(t *testing.T) {
	// The matchmaker's I/O dimension at generated-population scale:
	// requiring an output keeps exactly the services that can serve it.
	o := testOntology(t)
	m := New(o)
	mk := func(iri string, outs ...ontology.Class) *profile.Profile {
		return &profile.Profile{ServiceIRI: iri, Category: c("Radar"), Outputs: outs, Grounding: "e"}
	}
	pop := []*profile.Profile{
		mk("urn:1", c("RadarTrack")),
		mk("urn:2", c("Image")),
		mk("urn:3", c("RadarTrack"), c("Image")),
		mk("urn:4"),
	}
	tpl := &profile.Template{RequiredOutputs: []ontology.Class{c("Track")}}
	var hits []string
	for _, p := range pop {
		if m.Match(tpl, p).Matches(PlugIn) {
			hits = append(hits, p.ServiceIRI)
		}
	}
	if len(hits) != 2 || hits[0] != "urn:1" || hits[1] != "urn:3" {
		t.Fatalf("I/O filtering = %v", hits)
	}
}

func fixtureTemplates() []*profile.Template {
	return []*profile.Template{
		{Category: c("Sensor")},
		{Category: c("Sensor"), RequiredOutputs: []ontology.Class{c("Track")},
			ProvidedInputs: []ontology.Class{c("CoastalArea")}},
		{Category: c("Device"), RequiredOutputs: []ontology.Class{c("Observation")}},
		{Category: c("CoastalRadar")},
		{Category: c("Camera")},
		{Category: c("Unknown")},
		{Category: c("Sensor"), RequiredOutputs: []ontology.Class{c("Image")}},
		{},
	}
}

func fixtureProfiles() []*profile.Profile {
	return []*profile.Profile{
		radarService(),
		{ServiceIRI: "urn:svc:cam", Category: c("Camera"),
			Outputs: []ontology.Class{c("Image")}, Grounding: "urn:g"},
		{ServiceIRI: "urn:svc:odd", Category: c("Unknown"), Grounding: "urn:g"},
		{ServiceIRI: "urn:svc:dev", Category: c("Device"),
			Inputs:  []ontology.Class{c("Region")},
			Outputs: []ontology.Class{c("Observation"), c("RadarTrack")}, Grounding: "urn:g"},
	}
}

// goldenResults is Match(fixtureTemplates()[i], fixtureProfiles()[j]),
// computed by the string- and map-based matcher this package replaced.
// Scores are in shortest round-trip form, so equality is bit-exact.
var goldenResults = [][]Result{
	{{PlugIn, 0.8}, {PlugIn, 0.8}, {Fail, 0}, {Subsumed, 0.6666666666666666}},
	{{PlugIn, 0.8000000000000002}, {Fail, 0}, {Fail, 0}, {Subsumed, 0.6555555555555556}},
	{{PlugIn, 0.5}, {PlugIn, 0.5833333333333333}, {Fail, 0}, {Exact, 1}},
	{{Subsumed, 0.8571428571428571}, {Fail, 0}, {Fail, 0}, {Subsumed, 0.4}},
	{{Fail, 0}, {Exact, 1}, {Fail, 0}, {Subsumed, 0.5}},
	{{Fail, 0}, {Fail, 0}, {Exact, 0}, {Fail, 0}},
	{{Fail, 0}, {PlugIn, 0.9}, {Fail, 0}, {Subsumed, 0.6666666666666666}},
	{{Exact, 1}, {Exact, 1}, {Exact, 1}, {Exact, 1}},
}

// TestMatchGolden pins the matcher's results bit for bit, whether the
// inputs are raw, interned against the matcher's ontology, or interned
// against another one (which the matcher must ignore).
func TestMatchGolden(t *testing.T) {
	o := testOntology(t)
	m := New(o)
	for _, intern := range []struct {
		name string
		onto *ontology.Ontology
	}{{"raw", nil}, {"interned", o}, {"foreign", testOntology(t)}} {
		tpls, profs := fixtureTemplates(), fixtureProfiles()
		for _, tpl := range tpls {
			tpl.Intern(intern.onto)
		}
		for _, p := range profs {
			p.Intern(intern.onto)
		}
		for i, tpl := range tpls {
			for j, p := range profs {
				if got, want := m.Match(tpl, p), goldenResults[i][j]; got != want {
					t.Errorf("%s: Match(t%d, p%d) = %+v, want %+v", intern.name, i, j, got, want)
				}
			}
		}
	}
}

// TestMatcherConcurrent hammers one matcher from many goroutines over a
// frozen ontology; -race in CI proves the match path shares no mutable
// state. Results are checked against a single-threaded pass.
func TestMatcherConcurrent(t *testing.T) {
	o := testOntology(t)
	m := New(o)
	tpls := fixtureTemplates()
	profs := fixtureProfiles()
	// Mix of interned and raw inputs, like a registry serving decoded
	// (interned) adverts alongside caller-constructed ones.
	for _, tpl := range tpls[:4] {
		tpl.Intern(o)
	}
	for _, p := range profs[:2] {
		p.Intern(o)
	}
	want := make([][]Result, len(tpls))
	for i, tpl := range tpls {
		want[i] = make([]Result, len(profs))
		for j, p := range profs {
			want[i][j] = m.Match(tpl, p)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				ti := (i + g) % len(tpls)
				pi := (i*3 + g) % len(profs)
				if got := m.Match(tpls[ti], profs[pi]); got != want[ti][pi] {
					select {
					case errs <- "concurrent Match diverged":
					default:
					}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
