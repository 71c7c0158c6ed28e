package ontology

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"semdisco/internal/rdf"
)

const ns = "http://semdisco.example/onto#"

func c(name string) Class { return Class(ns + name) }

// sensorTaxonomy builds the running example from the papers:
// a Radar is a kind of Sensor ("inference mechanisms can be used to find
// matches based on a subtype hierarchy (e.g. a Radar is a kind of
// Sensor)").
func sensorTaxonomy(t testing.TB) *Ontology {
	o := New(ns)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(o.AddClass(c("Device")))
	must(o.AddClass(c("Sensor"), c("Device")))
	must(o.AddClass(c("Radar"), c("Sensor")))
	must(o.AddClass(c("CoastalRadar"), c("Radar")))
	must(o.AddClass(c("Camera"), c("Sensor")))
	must(o.AddClass(c("InfraredCamera"), c("Camera")))
	must(o.AddClass(c("Actuator"), c("Device")))
	must(o.AddProperty(Property(ns+"detects"), c("Sensor"), c("Device"), Property(ns+"observes")))
	must(o.AddProperty(Property(ns+"observes"), "", ""))
	o.Freeze()
	return o
}

func TestSubsumes(t *testing.T) {
	o := sensorTaxonomy(t)
	cases := []struct {
		super, sub string
		want       bool
	}{
		{"Sensor", "Radar", true},
		{"Device", "Radar", true},
		{"Device", "CoastalRadar", true},
		{"Radar", "Radar", true},
		{"Radar", "Sensor", false},
		{"Camera", "Radar", false},
		{"Actuator", "Radar", false},
		{"Sensor", "InfraredCamera", true},
	}
	for _, cs := range cases {
		if got := o.Subsumes(c(cs.super), c(cs.sub)); got != cs.want {
			t.Errorf("Subsumes(%s, %s) = %v, want %v", cs.super, cs.sub, got, cs.want)
		}
	}
	if !o.Subsumes(Thing, c("Radar")) {
		t.Error("Thing must subsume every class")
	}
	if !o.Subsumes(Thing, Class("http://unknown/X")) {
		t.Error("Thing must subsume even unknown classes")
	}
	if o.Subsumes(c("Sensor"), Class("http://unknown/X")) {
		t.Error("a named class must not subsume an unknown class")
	}
}

func TestQueryBeforeFreezePanics(t *testing.T) {
	o := New(ns)
	if err := o.AddClass(c("A")); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Subsumes before Freeze did not panic")
		}
	}()
	o.Subsumes(c("A"), c("A"))
}

func TestMutateAfterFreeze(t *testing.T) {
	o := sensorTaxonomy(t)
	if err := o.AddClass(c("New")); err != ErrFrozen {
		t.Fatalf("AddClass after Freeze = %v, want ErrFrozen", err)
	}
	if err := o.AddProperty(Property(ns+"p"), "", ""); err != ErrFrozen {
		t.Fatalf("AddProperty after Freeze = %v, want ErrFrozen", err)
	}
	if err := o.SetLabel(c("Radar"), "x"); err != ErrFrozen {
		t.Fatalf("SetLabel after Freeze = %v, want ErrFrozen", err)
	}
}

func TestForwardReferences(t *testing.T) {
	o := New(ns)
	// Child declared before parent; parent never declared explicitly.
	if err := o.AddClass(c("Radar"), c("Sensor")); err != nil {
		t.Fatal(err)
	}
	o.Freeze()
	if !o.HasClass(c("Sensor")) {
		t.Fatal("undeclared parent not implicitly created")
	}
	if !o.Subsumes(c("Sensor"), c("Radar")) {
		t.Fatal("forward-referenced subclass axiom lost")
	}
	if !o.Subsumes(Thing, c("Sensor")) {
		t.Fatal("implicit class not rooted at Thing")
	}
}

func TestDepths(t *testing.T) {
	o := sensorTaxonomy(t)
	want := map[string]int{"Device": 1, "Sensor": 2, "Radar": 3, "CoastalRadar": 4}
	for name, d := range want {
		if got := o.depth(c(name)); got != d {
			t.Errorf("Depth(%s) = %d, want %d", name, got, d)
		}
	}
	if o.depth(Thing) != 0 {
		t.Errorf("Depth(Thing) = %d, want 0", o.depth(Thing))
	}
	if o.depth(Class("http://unknown/X")) != -1 {
		t.Error("unknown class depth must be -1")
	}
}

func TestMultipleInheritanceDepthIsShortestPath(t *testing.T) {
	o := New(ns)
	o.AddClass(c("A"))                 // depth 1
	o.AddClass(c("B"), c("A"))         // depth 2
	o.AddClass(c("C"), c("B"), c("A")) // paths of length 2 and 3 → depth 2
	o.Freeze()
	if got := o.depth(c("C")); got != 2 {
		t.Fatalf("Depth(C) = %d, want 2 (shortest path)", got)
	}
}

func TestLCS(t *testing.T) {
	o := sensorTaxonomy(t)
	cases := []struct {
		a, b, want string
	}{
		{"Radar", "Camera", "Sensor"},
		{"CoastalRadar", "InfraredCamera", "Sensor"},
		{"Radar", "Actuator", "Device"},
		{"Radar", "Radar", "Radar"},
		{"Radar", "Sensor", "Sensor"},
	}
	for _, cs := range cases {
		if got := o.lcs(c(cs.a), c(cs.b)); got != c(cs.want) {
			t.Errorf("LCS(%s, %s) = %s, want %s", cs.a, cs.b, got, cs.want)
		}
	}
	if got := o.lcs(c("Radar"), Class("http://unknown/X")); got != Thing {
		t.Errorf("LCS with unknown = %s, want Thing", got)
	}
}

func TestSimilarity(t *testing.T) {
	o := sensorTaxonomy(t)
	if s := o.similarity(c("Radar"), c("Radar")); s != 1 {
		t.Errorf("self similarity = %v, want 1", s)
	}
	// Radar(3) and Camera(3) share Sensor(2): 2·2/(3+3) = 0.666…
	if s := o.similarity(c("Radar"), c("Camera")); math.Abs(s-2.0/3.0) > 1e-9 {
		t.Errorf("Similarity(Radar, Camera) = %v, want 2/3", s)
	}
	// Sibling at a deeper level is more similar than a cousin.
	deep := o.similarity(c("CoastalRadar"), c("Radar"))
	shallow := o.similarity(c("CoastalRadar"), c("Actuator"))
	if deep <= shallow {
		t.Errorf("similarity ordering wrong: parent %v <= distant %v", deep, shallow)
	}
	if s := o.similarity(c("Radar"), Class("http://unknown/X")); s != 0 {
		t.Errorf("similarity to unknown = %v, want 0", s)
	}
}

func TestSimilarityProperties(t *testing.T) {
	o := sensorTaxonomy(t)
	classes := o.Classes()
	// Symmetry and range [0,1] over all pairs.
	for _, a := range classes {
		for _, b := range classes {
			s1, s2 := o.similarity(a, b), o.similarity(b, a)
			if s1 != s2 {
				t.Fatalf("Similarity(%s,%s)=%v asymmetric vs %v", a, b, s1, s2)
			}
			if s1 < 0 || s1 > 1 {
				t.Fatalf("Similarity(%s,%s)=%v out of range", a, b, s1)
			}
		}
	}
}

func TestAncestorsAndDescendants(t *testing.T) {
	o := sensorTaxonomy(t)
	anc := o.ancestors(c("Radar"))
	wantAnc := map[Class]bool{c("Radar"): true, c("Sensor"): true, c("Device"): true, Thing: true}
	if len(anc) != len(wantAnc) {
		t.Fatalf("Ancestors(Radar) = %v", anc)
	}
	for _, a := range anc {
		if !wantAnc[a] {
			t.Fatalf("unexpected ancestor %s", a)
		}
	}
	desc := o.descendants(c("Sensor")) // Sensor, Radar, CoastalRadar, Camera, InfraredCamera
	if len(desc) != 5 {
		t.Fatalf("Descendants(Sensor) = %v, want 5 classes", desc)
	}
	if ds := o.descendants(Class("http://unknown/X")); ds != nil {
		t.Fatalf("Descendants(unknown) = %v, want nil", ds)
	}
}

func TestSubsumptionConsistentWithDescendants(t *testing.T) {
	// Property: b ∈ Descendants(a) ⇔ Subsumes(a, b), for all pairs.
	o := sensorTaxonomy(t)
	for _, a := range o.Classes() {
		inDesc := make(map[Class]bool)
		for _, d := range o.descendants(a) {
			inDesc[d] = true
		}
		for _, b := range o.Classes() {
			if o.Subsumes(a, b) != inDesc[b] {
				t.Fatalf("Subsumes(%s,%s)=%v but descendants say %v", a, b, o.Subsumes(a, b), inDesc[b])
			}
		}
	}
}

func TestCycleCollapses(t *testing.T) {
	o := New(ns)
	o.AddClass(c("A"), c("B"))
	o.AddClass(c("B"), c("A"))
	o.Freeze() // must terminate
	if !o.Subsumes(c("A"), c("B")) || !o.Subsumes(c("B"), c("A")) {
		t.Fatal("cycle members must subsume each other")
	}
}

// TestSubPropertyOf: a declared property keeps its superproperty,
// domain and range, and its RDF form says so; a property declared with
// none of them has no RDF form.
func TestSubPropertyOf(t *testing.T) {
	o := sensorTaxonomy(t)
	det := ns + "detects"
	if !declares(o, det, rdf.RDFSSubPropOf, rdf.IRI(ns+"observes")) {
		t.Fatal("detects ⊑ observes lost")
	}
	if !declares(o, det, rdf.RDFSDomain, rdf.IRI(string(c("Sensor")))) || !declares(o, det, rdf.RDFSRange, rdf.IRI(string(c("Device")))) {
		t.Fatal("domain/range lost")
	}
	if got := o.ToGraph().Match(rdf.IRI(ns+"observes"), rdf.Wildcard, rdf.Wildcard); len(got) != 0 {
		t.Fatalf("observes has RDF form %v, want none", got)
	}
}

func TestLabels(t *testing.T) {
	o := New(ns)
	o.AddClass(c("Radar"))
	o.AddClass(c("Camera"))
	if err := o.SetLabel(c("Radar"), "radar station"); err != nil {
		t.Fatal(err)
	}
	if err := o.SetLabel(c("Nope"), "x"); err == nil {
		t.Fatal("SetLabel on unknown class succeeded")
	}
	o.Freeze()
	if !declares(o, string(c("Radar")), rdf.RDFSLabel, rdf.Literal("radar station")) {
		t.Fatal("label lost")
	}
	if got := o.ToGraph().Match(rdf.IRI(string(c("Camera"))), rdf.IRI(rdf.RDFSLabel), rdf.Wildcard); len(got) != 0 {
		t.Fatalf("unlabelled class has label %v", got)
	}
}

func TestDeterministicEnumeration(t *testing.T) {
	o := sensorTaxonomy(t)
	first := fmt.Sprint(o.Classes(), o.Properties(), o.Parents(c("Radar")))
	for i := 0; i < 5; i++ {
		o2 := sensorTaxonomy(t)
		if got := fmt.Sprint(o2.Classes(), o2.Properties(), o2.Parents(c("Radar"))); got != first {
			t.Fatal("enumeration order not deterministic across builds")
		}
	}
}

func TestRandomTaxonomyInvariants(t *testing.T) {
	// Property test: random parent assignments always produce an ontology
	// where (1) Thing subsumes everything, (2) Subsumes is reflexive and
	// transitive, (3) depth(child) <= depth(parent)+1.
	f := func(edges []uint8) bool {
		o := New(ns)
		const n = 12
		for i := 0; i < n; i++ {
			o.AddClass(c(fmt.Sprintf("C%d", i)))
		}
		for i, e := range edges {
			child := c(fmt.Sprintf("C%d", i%n))
			parent := c(fmt.Sprintf("C%d", int(e)%n))
			o.AddClass(child, parent)
		}
		o.Freeze()
		for i := 0; i < n; i++ {
			ci := c(fmt.Sprintf("C%d", i))
			if !o.Subsumes(Thing, ci) || !o.Subsumes(ci, ci) {
				return false
			}
			for _, p := range o.Parents(ci) {
				if !o.Subsumes(p, ci) {
					return false
				}
				// Depth is computed on the SCC condensation, so child
				// depth never exceeds any parent's depth by more than 1
				// (cycle members share one depth).
				if o.depth(ci) > o.depth(p)+1 {
					return false
				}
			}
			// transitivity via ancestors-of-ancestors
			for _, a := range o.ancestors(ci) {
				for _, aa := range o.ancestors(a) {
					if !o.Subsumes(aa, ci) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
