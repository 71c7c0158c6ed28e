package ontology

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// buildRandom constructs the taxonomy described by edges (random parent
// assignments, including self-loops and subclass cycles) twice: once
// compiled and once held on the map path via DisableCompiledIndex.
func buildRandom(t testing.TB, edges []uint8, n int) (compiled, maps *Ontology) {
	build := func(disable bool) *Ontology {
		o := New(ns)
		if disable {
			if err := o.DisableCompiledIndex(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			o.AddClass(c(fmt.Sprintf("C%d", i)))
		}
		for i, e := range edges {
			child := c(fmt.Sprintf("C%d", i%n))
			parent := c(fmt.Sprintf("C%d", int(e)%n))
			o.AddClass(child, parent)
		}
		o.Freeze()
		return o
	}
	return build(false), build(true)
}

// TestRelatedIsTheSubsumptionNeighbourhood checks Related against its
// definition on both paths: b ∈ Related(a) exactly when one subsumes
// the other. Thing subsumes everything, including the members of a
// top-level subclass cycle, whose closure rows carry no Thing bit.
func TestRelatedIsTheSubsumptionNeighbourhood(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 10
		co, mo := buildRandom(t, edges, n)
		for _, o := range []*Ontology{co, mo} {
			all := o.Classes()
			for _, a := range all {
				rel := map[Class]bool{}
				for _, r := range o.Related(a) {
					rel[r] = true
				}
				for _, b := range all {
					if want := o.Subsumes(a, b) || o.Subsumes(b, a); rel[b] != want {
						t.Fatalf("compiled=%v: %s in Related(%s) = %v, want %v", o.Compiled(), b, a, rel[b], want)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// A cycle with no other parent is the case that needs the explicit bit.
	o := New(ns)
	o.AddClass(c("A"), c("B"))
	o.AddClass(c("B"), c("A"))
	o.Freeze()
	if rel := o.RelatedIDs(o.ClassID(c("A"))); !slices.Contains(rel, o.ThingID()) {
		t.Fatalf("RelatedIDs(A) = %v misses Thing", rel)
	}
}

// TestCompiledAgreesWithMaps is the central property test for the
// compiled index: on randomized DAGs — including SCC/cycle inputs,
// since random parent edges routinely close subclass cycles — every
// query answer from the bitset path must equal the map path's, for all
// class pairs plus Thing and an undeclared class.
func TestCompiledAgreesWithMaps(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 12
		co, mo := buildRandom(t, edges, n)
		if !co.Compiled() || mo.Compiled() {
			t.Fatalf("Compiled() = %v/%v, want true/false", co.Compiled(), mo.Compiled())
		}
		probe := make([]Class, 0, n+2)
		for i := 0; i < n; i++ {
			probe = append(probe, c(fmt.Sprintf("C%d", i)))
		}
		probe = append(probe, Thing, c("Undeclared"))
		for _, a := range probe {
			if got, want := co.Depth(a), mo.Depth(a); got != want {
				t.Fatalf("Depth(%s) = %d, want %d", a, got, want)
			}
			if got, want := co.Ancestors(a), mo.Ancestors(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Ancestors(%s) = %v, want %v", a, got, want)
			}
			if got, want := co.Descendants(a), mo.Descendants(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Descendants(%s) = %v, want %v", a, got, want)
			}
			if got, want := co.Related(a), mo.Related(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Related(%s) = %v, want %v", a, got, want)
			}
			if got, want := co.Label(a), mo.Label(a); got != want {
				t.Fatalf("Label(%s) = %q, want %q", a, got, want)
			}
			for _, b := range probe {
				if got, want := co.Subsumes(a, b), mo.Subsumes(a, b); got != want {
					t.Fatalf("Subsumes(%s, %s) = %v, want %v", a, b, got, want)
				}
				if got, want := co.LCS(a, b), mo.LCS(a, b); got != want {
					t.Fatalf("LCS(%s, %s) = %s, want %s", a, b, got, want)
				}
				if got, want := co.Similarity(a, b), mo.Similarity(a, b); got != want {
					t.Fatalf("Similarity(%s, %s) = %v, want %v", a, b, got, want)
				}
			}
		}
		if !reflect.DeepEqual(co.Classes(), mo.Classes()) {
			t.Fatal("Classes() enumeration differs")
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestClassIDRoundTrip(t *testing.T) {
	o := sensorTaxonomy(t)
	classes := o.Classes()
	if o.NumClassIDs() != len(classes) {
		t.Fatalf("NumClassIDs = %d, want %d", o.NumClassIDs(), len(classes))
	}
	for i, cl := range classes {
		id := o.ClassID(cl)
		if id != ClassID(i) {
			t.Fatalf("ClassID(%s) = %d, want %d (IDs must follow sorted order)", cl, id, i)
		}
		if got := o.ClassByID(id); got != cl {
			t.Fatalf("ClassByID(%d) = %s, want %s", id, got, cl)
		}
	}
	if o.ClassID(c("Nope")) != NoClass {
		t.Fatal("undeclared class got an ID")
	}
	if o.ClassByID(NoClass) != "" || o.ClassByID(ClassID(len(classes))) != "" {
		t.Fatal("out-of-range ID resolved to a class")
	}
	if o.ThingID() != o.ClassID(Thing) {
		t.Fatal("ThingID mismatch")
	}
}

func TestIDQueriesMatchStringQueries(t *testing.T) {
	o := sensorTaxonomy(t)
	classes := o.Classes()
	for _, a := range classes {
		for _, b := range classes {
			ida, idb := o.ClassID(a), o.ClassID(b)
			if got, want := o.SubsumesID(ida, idb), o.Subsumes(a, b); got != want {
				t.Fatalf("SubsumesID(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := o.ClassByID(o.LCSID(ida, idb)), o.LCS(a, b); got != want {
				t.Fatalf("LCSID(%s, %s) = %s, want %s", a, b, got, want)
			}
			if got, want := o.SimilarityID(ida, idb), o.Similarity(a, b); got != want {
				t.Fatalf("SimilarityID(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := o.DepthID(ida), o.Depth(a); got != want {
				t.Fatalf("DepthID(%s) = %d, want %d", a, got, want)
			}
		}
	}
	// Invalid IDs: subsume nothing, LCS to Thing, zero similarity.
	if o.SubsumesID(NoClass, 0) || o.SubsumesID(0, NoClass) {
		t.Fatal("invalid ID subsumption")
	}
	if o.LCSID(NoClass, 0) != o.ThingID() {
		t.Fatal("invalid-ID LCS is not Thing")
	}
	if o.SimilarityID(NoClass, NoClass) != 0 {
		t.Fatal("invalid-ID similarity is not 0")
	}
	if o.DepthID(NoClass) != -1 {
		t.Fatal("invalid-ID depth is not -1")
	}
}

func TestDisableCompiledIndexAfterFreeze(t *testing.T) {
	o := sensorTaxonomy(t)
	if err := o.DisableCompiledIndex(); err != ErrFrozen {
		t.Fatalf("DisableCompiledIndex on frozen ontology = %v, want ErrFrozen", err)
	}
}

// TestCompiledConcurrentReads hammers a frozen compiled ontology from
// many goroutines; run under -race it proves the index is read-only
// after Freeze.
func TestCompiledConcurrentReads(t *testing.T) {
	o := sensorTaxonomy(t)
	classes := o.Classes()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a := classes[(i+g)%len(classes)]
				b := classes[(i*7+g)%len(classes)]
				o.Subsumes(a, b)
				o.LCS(a, b)
				o.Similarity(a, b)
				o.SubsumesID(o.ClassID(a), o.ClassID(b))
				o.Ancestors(a)
				o.Descendants(b)
				o.Related(a)
			}
		}(g)
	}
	wg.Wait()
}
