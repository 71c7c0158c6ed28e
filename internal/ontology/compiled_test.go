package ontology

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// buildRandom constructs the taxonomy described by edges (random
// parent assignments, including self-loops and subclass cycles) over
// the classes C0..C(n-1), and returns it with its reference answers.
func buildRandom(edges []uint8, n int) (*Ontology, *reference) {
	o := New(ns)
	declared := make([]Class, n)
	for i := range declared {
		declared[i] = c(fmt.Sprintf("C%d", i))
		o.AddClass(declared[i])
	}
	for i, e := range edges {
		o.AddClass(declared[i%n], declared[int(e)%n])
	}
	o.Freeze()
	return o, newReference(o, declared)
}

// reference answers the taxonomy queries from Parents() alone, sharing
// no code with the compiled index: closures come from a breadth-first
// walk up the parent edges, and depths from the components that mutual
// ancestry defines (0 for Thing's, 1 for a top-level cluster, otherwise
// 1 + the minimum depth of the cluster's outside parents).
type reference struct {
	classes []Class                  // Thing and every declared class, sorted
	anc     map[Class]map[Class]bool // reflexive-transitive superclasses
	depth   map[Class]int
}

func newReference(o *Ontology, declared []Class) *reference {
	r := &reference{
		classes: append([]Class{Thing}, declared...),
		anc:     make(map[Class]map[Class]bool),
		depth:   make(map[Class]int),
	}
	slices.Sort(r.classes)
	for _, x := range r.classes {
		seen := map[Class]bool{x: true}
		for queue := []Class{x}; len(queue) > 0; queue = queue[1:] {
			for _, p := range o.Parents(queue[0]) {
				if !seen[p] {
					seen[p] = true
					queue = append(queue, p)
				}
			}
		}
		r.anc[x] = seen
	}
	for _, x := range r.classes {
		r.depthOf(o, x)
	}
	return r
}

func (r *reference) depthOf(o *Ontology, x Class) int {
	if d, ok := r.depth[x]; ok {
		return d
	}
	var comp []Class
	for _, y := range r.classes {
		if r.anc[x][y] && r.anc[y][x] {
			comp = append(comp, y)
		}
	}
	d, outside := 1, false
	for _, m := range comp {
		for _, p := range o.Parents(m) {
			if r.anc[p][x] {
				continue // p is in x's component
			}
			if pd := r.depthOf(o, p) + 1; !outside || pd < d {
				d, outside = pd, true
			}
		}
	}
	if slices.Contains(comp, Thing) {
		d = 0
	}
	for _, m := range comp {
		r.depth[m] = d
	}
	return d
}

func (r *reference) known(x Class) bool { return r.anc[x] != nil }

func (r *reference) Depth(x Class) int {
	if !r.known(x) {
		return -1
	}
	return r.depth[x]
}

func (r *reference) Subsumes(super, sub Class) bool {
	return super == Thing || r.anc[sub][super]
}

// where lists the known classes satisfying keep, sorted; nil when x is
// unknown.
func (r *reference) where(x Class, keep func(Class) bool) []Class {
	if !r.known(x) {
		return nil
	}
	out := []Class{}
	for _, y := range r.classes {
		if keep(y) {
			out = append(out, y)
		}
	}
	return out
}

func (r *reference) Ancestors(x Class) []Class {
	return r.where(x, func(y Class) bool { return r.anc[x][y] })
}

func (r *reference) Descendants(x Class) []Class {
	return r.where(x, func(y Class) bool { return r.anc[y][x] })
}

func (r *reference) Related(x Class) []Class {
	return r.where(x, func(y Class) bool {
		return x == Thing || y == Thing || r.anc[x][y] || r.anc[y][x]
	})
}

// LCS is the deepest shared ancestor, the smallest IRI on ties; Thing
// when there is none or either class is unknown.
func (r *reference) LCS(a, b Class) Class {
	best, bestDepth := Thing, -1
	for y := range r.anc[a] {
		if !r.anc[b][y] {
			continue
		}
		if d := r.depth[y]; d > bestDepth || (d == bestDepth && y < best) {
			best, bestDepth = y, d
		}
	}
	return best
}

func (r *reference) Similarity(a, b Class) float64 {
	if !r.known(a) || !r.known(b) {
		return 0
	}
	if a == b {
		return 1
	}
	da, db := r.depth[a], r.depth[b]
	if da+db == 0 {
		return 0
	}
	return 2 * float64(r.depth[r.LCS(a, b)]) / float64(da+db)
}

// TestRelatedIsTheSubsumptionNeighbourhood checks Related against its
// definition: b ∈ Related(a) exactly when one subsumes the other. Thing
// subsumes everything, including the members of a top-level subclass
// cycle, whose closure rows carry no Thing bit.
func TestRelatedIsTheSubsumptionNeighbourhood(t *testing.T) {
	f := func(edges []uint8) bool {
		o, _ := buildRandom(edges, 10)
		all := o.Classes()
		for _, a := range all {
			rel := map[Class]bool{}
			for _, r := range o.related(a) {
				rel[r] = true
			}
			for _, b := range all {
				if want := o.Subsumes(a, b) || o.Subsumes(b, a); rel[b] != want {
					t.Fatalf("%s in Related(%s) = %v, want %v", b, a, rel[b], want)
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

// TestCompiledAgreesWithReference is the central property test for the
// compiled index: on random taxonomies — including SCC/cycle inputs,
// since random parent edges routinely close subclass cycles — every
// query answer must equal the reference's, for all class pairs plus
// Thing and an undeclared class.
func TestCompiledAgreesWithReference(t *testing.T) {
	f := func(edges []uint8) bool {
		const n = 12
		o, ref := buildRandom(edges, n)
		if got := o.Classes(); !reflect.DeepEqual(got, ref.classes) {
			t.Fatalf("Classes() = %v, want %v", got, ref.classes)
		}
		probe := append(slices.Clone(ref.classes), c("Undeclared"))
		for _, a := range probe {
			if got, want := o.depth(a), ref.Depth(a); got != want {
				t.Fatalf("Depth(%s) = %d, want %d", a, got, want)
			}
			if got, want := o.ancestors(a), ref.Ancestors(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Ancestors(%s) = %v, want %v", a, got, want)
			}
			if got, want := o.descendants(a), ref.Descendants(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Descendants(%s) = %v, want %v", a, got, want)
			}
			if got, want := o.related(a), ref.Related(a); !reflect.DeepEqual(got, want) {
				t.Fatalf("Related(%s) = %v, want %v", a, got, want)
			}
			for _, b := range probe {
				if got, want := o.Subsumes(a, b), ref.Subsumes(a, b); got != want {
					t.Fatalf("Subsumes(%s, %s) = %v, want %v", a, b, got, want)
				}
				if got, want := o.lcs(a, b), ref.LCS(a, b); got != want {
					t.Fatalf("LCS(%s, %s) = %s, want %s", a, b, got, want)
				}
				if got, want := o.similarity(a, b), ref.Similarity(a, b); got != want {
					t.Fatalf("Similarity(%s, %s) = %v, want %v", a, b, got, want)
				}
			}
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
	if o.NumClasses() != len(classes) {
		t.Fatalf("NumClasses = %d, want %d", o.NumClasses(), len(classes))
	}
	for i, cl := range classes {
		id := o.ClassID(cl)
		if id != ClassID(i) {
			t.Fatalf("ClassID(%s) = %d, want %d (IDs must follow sorted order)", cl, id, i)
		}
		if got := o.ClassByID(id); got != cl {
			t.Fatalf("ClassByID(%d) = %s, want %s", id, got, cl)
		}
		b := []byte(cl)
		if got := o.ClassIDBytes(b); got != id {
			t.Fatalf("ClassIDBytes(%s) = %d, want %d", cl, got, id)
		}
		if n := testing.AllocsPerRun(10, func() { o.ClassIDBytes(b) }); n != 0 {
			t.Fatalf("ClassIDBytes allocates %v times", n)
		}
	}
	if o.ClassID(c("Nope")) != NoClass || o.ClassIDBytes([]byte(c("Nope"))) != NoClass {
		t.Fatal("undeclared class got an ID")
	}
	if o.ClassByID(NoClass) != "" || o.ClassByID(ClassID(len(classes))) != "" {
		t.Fatal("out-of-range ID resolved to a class")
	}
	if o.ThingID() != o.ClassID(Thing) {
		t.Fatal("ThingID mismatch")
	}
}

// TestIDQueriesMatchStringQueries checks every ID query on the sensor
// taxonomy against the string-keyed reference answers.
func TestIDQueriesMatchStringQueries(t *testing.T) {
	o := sensorTaxonomy(t)
	classes := o.Classes()
	ref := newReference(o, slices.DeleteFunc(slices.Clone(classes), func(x Class) bool { return x == Thing }))
	for _, a := range classes {
		for _, b := range classes {
			ida, idb := o.ClassID(a), o.ClassID(b)
			if got, want := o.SubsumesID(ida, idb), ref.Subsumes(a, b); got != want {
				t.Fatalf("SubsumesID(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := o.ClassByID(o.LCSID(ida, idb)), ref.LCS(a, b); got != want {
				t.Fatalf("LCSID(%s, %s) = %s, want %s", a, b, got, want)
			}
			if got, want := o.SimilarityID(ida, idb), ref.Similarity(a, b); got != want {
				t.Fatalf("SimilarityID(%s, %s) = %v, want %v", a, b, got, want)
			}
			if got, want := o.DepthID(ida), ref.Depth(a); got != want {
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
				o.lcs(a, b)
				o.similarity(a, b)
				o.SubsumesID(o.ClassID(a), o.ClassID(b))
				o.ancestors(a)
				o.descendants(b)
				o.related(a)
			}
		}(g)
	}
	wg.Wait()
}
