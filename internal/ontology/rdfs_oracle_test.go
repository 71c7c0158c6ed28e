package ontology_test

import (
	"maps"
	"slices"
	"testing"

	"semdisco/internal/ontology"
	"semdisco/internal/rdf"
	"semdisco/internal/workload"
)

// The RDFS forward-chainer below is the test oracle for the closure
// Freeze compiles: the differential tests check that a frozen ontology
// answers Subsumes exactly as RDFS entailment does on the graph it was
// built from.

// objects returns the objects of (s, p, ?).
func objects(g *rdf.Graph, s, p rdf.Term) []rdf.Term {
	var out []rdf.Term
	for _, t := range g.Match(s, p, rdf.Wildcard) {
		out = append(out, t.O)
	}
	return out
}

func has(g *rdf.Graph, t rdf.Triple) bool { return len(g.Match(t.S, t.P, t.O)) == 1 }

// clone copies g, so the forward-chainer can grow the copy in place.
func clone(g *rdf.Graph) *rdf.Graph {
	out := rdf.NewGraph()
	for _, t := range g.Triples() {
		out.MustAdd(t)
	}
	return out
}

// InferRDFS runs RDFS forward-chaining on the graph in place until
// fixpoint:
//
//	rdfs5  (p subPropertyOf q) ∧ (q subPropertyOf r) ⇒ (p subPropertyOf r)
//	rdfs7  (s p o) ∧ (p subPropertyOf q)             ⇒ (s q o)
//	rdfs11 (a subClassOf b) ∧ (b subClassOf c)       ⇒ (a subClassOf c)
//	rdfs9  (x type a) ∧ (a subClassOf b)             ⇒ (x type b)
//	rdfs2  (s p o) ∧ (p domain c)                    ⇒ (s type c)
//	rdfs3  (s p o) ∧ (p range c)                     ⇒ (o type c) for non-literal o
//	owl:equivalentClass a≡b                          ⇒ a subClassOf b ∧ b subClassOf a
//
// It returns the number of inferred triples added. Each round joins
// against the whole graph; it favours clarity over speed.
func InferRDFS(g *rdf.Graph) int {
	total := 0

	// Expand owl:equivalentClass into mutual subClassOf once up front.
	subClassOf := rdf.IRI(rdf.RDFSSubClassOf)
	for _, t := range g.Match(rdf.Wildcard, rdf.IRI(rdf.OWLEquivClass), rdf.Wildcard) {
		if t.O.IsLiteral() {
			continue
		}
		if g.MustAdd(rdf.Triple{S: t.S, P: subClassOf, O: t.O}) {
			total++
		}
		if g.MustAdd(rdf.Triple{S: t.O, P: subClassOf, O: t.S}) {
			total++
		}
	}

	for {
		added := 0
		added += inferTransitive(g, rdf.RDFSSubPropOf)
		added += inferSubProperty(g)
		added += inferTransitive(g, rdf.RDFSSubClassOf)
		added += inferTypes(g)
		added += inferDomainRange(g)
		total += added
		if added == 0 {
			return total
		}
	}
}

// inferTransitive closes the given predicate transitively (rdfs5/rdfs11).
func inferTransitive(g *rdf.Graph, pred string) int {
	p := rdf.IRI(pred)
	added := 0
	// Repeated single-step join until no change; each pass is O(E·avg-out).
	for {
		n := 0
		for _, t := range g.Match(rdf.Wildcard, p, rdf.Wildcard) {
			for _, next := range objects(g, t.O, p) {
				if next == t.S { // skip trivial cycles back to self
					continue
				}
				if g.MustAdd(rdf.Triple{S: t.S, P: p, O: next}) {
					n++
				}
			}
		}
		added += n
		if n == 0 {
			return added
		}
	}
}

// inferSubProperty applies rdfs7.
func inferSubProperty(g *rdf.Graph) int {
	sub := rdf.IRI(rdf.RDFSSubPropOf)
	added := 0
	for _, sp := range g.Match(rdf.Wildcard, sub, rdf.Wildcard) {
		if !sp.S.IsIRI() || !sp.O.IsIRI() {
			continue
		}
		for _, t := range g.Match(rdf.Wildcard, sp.S, rdf.Wildcard) {
			if g.MustAdd(rdf.Triple{S: t.S, P: rdf.IRI(sp.O.Value), O: t.O}) {
				added++
			}
		}
	}
	return added
}

// inferTypes applies rdfs9.
func inferTypes(g *rdf.Graph) int {
	typ := rdf.IRI(rdf.RDFType)
	sub := rdf.IRI(rdf.RDFSSubClassOf)
	added := 0
	for _, t := range g.Match(rdf.Wildcard, typ, rdf.Wildcard) {
		for _, super := range objects(g, t.O, sub) {
			if super.IsLiteral() {
				continue
			}
			if g.MustAdd(rdf.Triple{S: t.S, P: typ, O: super}) {
				added++
			}
		}
	}
	return added
}

// inferDomainRange applies rdfs2 and rdfs3.
func inferDomainRange(g *rdf.Graph) int {
	typ := rdf.IRI(rdf.RDFType)
	added := 0
	for _, dom := range g.Match(rdf.Wildcard, rdf.IRI(rdf.RDFSDomain), rdf.Wildcard) {
		if !dom.S.IsIRI() || dom.O.IsLiteral() {
			continue
		}
		for _, t := range g.Match(rdf.Wildcard, rdf.IRI(dom.S.Value), rdf.Wildcard) {
			if g.MustAdd(rdf.Triple{S: t.S, P: typ, O: dom.O}) {
				added++
			}
		}
	}
	for _, rng := range g.Match(rdf.Wildcard, rdf.IRI(rdf.RDFSRange), rdf.Wildcard) {
		if !rng.S.IsIRI() || rng.O.IsLiteral() {
			continue
		}
		for _, t := range g.Match(rdf.Wildcard, rdf.IRI(rng.S.Value), rdf.Wildcard) {
			if t.O.IsLiteral() {
				continue
			}
			if g.MustAdd(rdf.Triple{S: t.O, P: typ, O: rng.O}) {
				added++
			}
		}
	}
	return added
}

// fromAxioms builds an ontology through the programmatic API the way
// sim and workload do: one AddClass per subclass axiom (and two per
// equivalence), declaring nothing else, so a class that appears only as
// a superclass is left for Freeze to declare.
func fromAxioms(g *rdf.Graph) *ontology.Ontology {
	o := ontology.New("urn:axioms")
	for _, t := range g.Match(rdf.Wildcard, rdf.IRI(rdf.RDFSSubClassOf), rdf.Wildcard) {
		o.AddClass(ontology.Class(t.S.Value), ontology.Class(t.O.Value))
	}
	for _, t := range g.Match(rdf.Wildcard, rdf.IRI(rdf.OWLEquivClass), rdf.Wildcard) {
		a, b := ontology.Class(t.S.Value), ontology.Class(t.O.Value)
		o.AddClass(a, b)
		o.AddClass(b, a)
	}
	o.Freeze()
	return o
}

// rewritesClassAxioms reports whether the entailed graph makes some
// property a sub-property of rdfs:subClassOf or owl:equivalentClass.
// RDFS (rdfs7) then derives class axioms from that property's triples;
// the compiled closure reads the two predicates only as written, so
// such graphs are outside the differential property (DESIGN.md states
// the rule).
func rewritesClassAxioms(entailed *rdf.Graph) bool {
	for _, t := range entailed.Match(rdf.Wildcard, rdf.IRI(rdf.RDFSSubPropOf), rdf.Wildcard) {
		if t.S != t.O && (t.O.Value == rdf.RDFSSubClassOf || t.O.Value == rdf.OWLEquivClass) {
			return true
		}
	}
	return false
}

// checkAgainstRDFS is the differential property. For a graph FromGraph
// accepts, and for every two distinct non-Thing classes a and b that
// the graph names, Subsumes(b, a) holds exactly when RDFS entails
// a ⊑ b — for the ontology FromGraph builds, and for the one the
// AddClass API builds from the same subclass and equivalence axioms. The
// entailment adds one OWL axiom RDFS lacks: owl:Thing is the top class,
// so every class is a subclass of it. It returns false when the input
// is outside the property (rejected by FromGraph, or subject to the
// sub-property rule).
func checkAgainstRDFS(t *testing.T, g *rdf.Graph) bool {
	t.Helper()
	loaded, err := ontology.FromGraph("urn:loaded", g)
	if err != nil {
		return false
	}
	// Classes named by a subclass or equivalence axiom, then every class
	// FromGraph declares (declarations and domain and range objects too).
	inAxioms := map[ontology.Class]bool{}
	for _, p := range []string{rdf.RDFSSubClassOf, rdf.OWLEquivClass} {
		for _, tr := range g.Match(rdf.Wildcard, rdf.IRI(p), rdf.Wildcard) {
			inAxioms[ontology.Class(tr.S.Value)] = true
			inAxioms[ontology.Class(tr.O.Value)] = true
		}
	}
	named := maps.Clone(inAxioms)
	for _, c := range loaded.Classes() {
		named[c] = true
	}
	delete(inAxioms, ontology.Thing)
	delete(named, ontology.Thing)

	entailed := clone(g)
	for c := range named {
		entailed.MustAdd(rdf.Triple{S: rdf.IRI(string(c)), P: rdf.IRI(rdf.RDFSSubClassOf), O: rdf.IRI(rdf.OWLThing)})
	}
	InferRDFS(entailed)
	if rewritesClassAxioms(entailed) {
		return false
	}
	sub := map[rdf.Triple]bool{}
	for _, tr := range entailed.Match(rdf.Wildcard, rdf.IRI(rdf.RDFSSubClassOf), rdf.Wildcard) {
		sub[tr] = true
	}
	// The AddClass build declares only the classes its axioms name.
	for _, built := range []struct {
		name    string
		o       *ontology.Ontology
		classes []ontology.Class
	}{
		{"FromGraph", loaded, sortedClasses(named)},
		{"AddClass", fromAxioms(g), sortedClasses(inAxioms)},
	} {
		for _, a := range built.classes {
			for _, b := range built.classes {
				if a == b {
					continue
				}
				want := sub[rdf.Triple{S: rdf.IRI(string(a)), P: rdf.IRI(rdf.RDFSSubClassOf), O: rdf.IRI(string(b))}]
				if got := built.o.Subsumes(b, a); got != want {
					t.Fatalf("%s: Subsumes(%s, %s) = %v, but RDFS entails %s ⊑ %s: %v\n%s",
						built.name, b, a, got, a, b, want, rdf.EncodeNTriples(g))
				}
			}
		}
	}
	return true
}

func sortedClasses(set map[ontology.Class]bool) []ontology.Class {
	out := make([]ontology.Class, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	slices.Sort(out)
	return out
}

// oracleSeeds are Turtle documents that exercise what a generated tree
// taxonomy does not: equivalence, subclass cycles with outside parents,
// superclasses that are never declared, multiple inheritance, owl:Thing
// with a superclass, and the axioms the sub-property rule excludes.
var oracleSeeds = []string{
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:Radar rdfs:subClassOf ex:Sensor . ex:CoastalRadar rdfs:subClassOf ex:Radar .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> . @prefix owl: <http://www.w3.org/2002/07/owl#> .
ex:Sensor rdfs:subClassOf ex:Device . ex:Radar rdfs:subClassOf ex:Sensor .
ex:RadarStation owl:equivalentClass ex:Radar . ex:Dish rdfs:subClassOf ex:RadarStation .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:A rdfs:subClassOf ex:B . ex:B rdfs:subClassOf ex:C . ex:C rdfs:subClassOf ex:A .
ex:C rdfs:subClassOf ex:Top . ex:Leaf rdfs:subClassOf ex:A .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:B rdfs:subClassOf ex:A . ex:A rdfs:subClassOf ex:B . ex:A rdfs:subClassOf ex:P .
ex:B rdfs:subClassOf ex:Q . ex:Z rdfs:subClassOf ex:B . ex:Q rdfs:subClassOf ex:R .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> . @prefix owl: <http://www.w3.org/2002/07/owl#> .
ex:M rdfs:subClassOf ex:X, ex:Y . ex:X rdfs:subClassOf ex:R . ex:Y a owl:Class .
ex:p rdfs:domain ex:D ; rdfs:range ex:E . ex:x ex:p ex:y .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> . @prefix owl: <http://www.w3.org/2002/07/owl#> .
owl:Thing rdfs:subClassOf ex:Top . ex:A rdfs:subClassOf ex:B . ex:C a rdfs:Class .`,
	`@prefix ex: <http://e/> . @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:narrower rdfs:subPropertyOf rdfs:subClassOf . ex:A ex:narrower ex:B .`,
}

// TestClosureMatchesRDFS runs the differential property over the
// workload.GenOntology grid (the bench taxonomy, depth 6 and branching
// 3, included), each taxonomy written as Turtle the way sdgen writes it
// and parsed back, and over the fuzz seeds.
func TestClosureMatchesRDFS(t *testing.T) {
	for depth := 1; depth <= 6; depth++ {
		for branching := 1; branching <= 3; branching++ {
			o, _ := workload.GenOntology(workload.OntologySpec{Depth: depth, Branching: branching})
			ttl := rdf.EncodeTurtle(o.ToGraph(), map[string]string{
				"gen":  "http://semdisco.example/gen#",
				"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
				"owl":  "http://www.w3.org/2002/07/owl#",
			})
			g, err := rdf.ParseTurtle(ttl)
			if err != nil {
				t.Fatal(err)
			}
			if !checkAgainstRDFS(t, g) {
				t.Fatalf("depth %d, branching %d: taxonomy outside the property", depth, branching)
			}
		}
	}
	for i, src := range oracleSeeds {
		g, err := rdf.ParseTurtle(src)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		checked := checkAgainstRDFS(t, g)
		if last := i == len(oracleSeeds)-1; checked == last {
			t.Fatalf("seed %d: checked = %v, want %v", i, checked, !last)
		}
	}
}

// FuzzClosureMatchesRDFS is the differential property over arbitrary
// Turtle: whatever FromGraph accepts must subsume as RDFS entails.
func FuzzClosureMatchesRDFS(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		g, err := rdf.ParseTurtle(src)
		if err != nil || len(g.Triples()) > 200 {
			return
		}
		checkAgainstRDFS(t, g)
	})
}

// The oracle's own rules, each checked on a small document.

const ex = "http://example.org/"

var (
	radar  = rdf.IRI(ex + "Radar")
	sensor = rdf.IRI(ex + "Sensor")
	subOf  = rdf.IRI(rdf.RDFSSubClassOf)
	typ    = rdf.IRI(rdf.RDFType)
)

func parse(t *testing.T, src string) *rdf.Graph {
	t.Helper()
	g, err := rdf.ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	return clone(g)
}

func taxonomy(t *testing.T) *rdf.Graph {
	t.Helper()
	return parse(t, `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .

ex:Radar rdfs:subClassOf ex:Sensor .
ex:Sensor rdfs:subClassOf ex:Device .
ex:Device rdfs:subClassOf owl:Thing .
ex:coastalRadar a ex:Radar .

ex:detects rdfs:subPropertyOf ex:observes .
ex:observes rdfs:subPropertyOf ex:relatesTo .
ex:coastalRadar ex:detects ex:vessel1 .

ex:operates rdfs:domain ex:Operator ;
            rdfs:range ex:Device .
ex:alice ex:operates ex:coastalRadar .

ex:RadarStation owl:equivalentClass ex:Radar .
`)
}

func TestInferSubClassTransitivity(t *testing.T) {
	g := taxonomy(t)
	InferRDFS(g)
	if !has(g, rdf.Triple{S: radar, P: subOf, O: rdf.IRI(ex + "Device")}) {
		t.Fatal("rdfs11: Radar ⊑ Device not inferred")
	}
	if !has(g, rdf.Triple{S: radar, P: subOf, O: rdf.IRI(rdf.OWLThing)}) {
		t.Fatal("rdfs11: Radar ⊑ Thing not inferred")
	}
}

func TestInferTypePropagation(t *testing.T) {
	g := taxonomy(t)
	InferRDFS(g)
	cr := rdf.IRI(ex + "coastalRadar")
	for _, class := range []string{"Radar", "Sensor", "Device"} {
		if !has(g, rdf.Triple{S: cr, P: typ, O: rdf.IRI(ex + class)}) {
			t.Errorf("rdfs9: coastalRadar type %s not inferred", class)
		}
	}
}

func TestInferSubPropertyChain(t *testing.T) {
	g := taxonomy(t)
	InferRDFS(g)
	cr, v := rdf.IRI(ex+"coastalRadar"), rdf.IRI(ex+"vessel1")
	if !has(g, rdf.Triple{S: cr, P: rdf.IRI(ex + "observes"), O: v}) {
		t.Fatal("rdfs7: detects ⇒ observes not inferred")
	}
	if !has(g, rdf.Triple{S: cr, P: rdf.IRI(ex + "relatesTo"), O: v}) {
		t.Fatal("rdfs5+7: detects ⇒ relatesTo not inferred transitively")
	}
}

func TestInferDomainRange(t *testing.T) {
	g := taxonomy(t)
	InferRDFS(g)
	if !has(g, rdf.Triple{S: rdf.IRI(ex + "alice"), P: typ, O: rdf.IRI(ex + "Operator")}) {
		t.Fatal("rdfs2: domain type not inferred")
	}
	if !has(g, rdf.Triple{S: rdf.IRI(ex + "coastalRadar"), P: typ, O: rdf.IRI(ex + "Device")}) {
		t.Fatal("rdfs3: range type not inferred")
	}
}

func TestInferEquivalentClass(t *testing.T) {
	g := taxonomy(t)
	InferRDFS(g)
	rs := rdf.IRI(ex + "RadarStation")
	if !has(g, rdf.Triple{S: rs, P: subOf, O: radar}) || !has(g, rdf.Triple{S: radar, P: subOf, O: rs}) {
		t.Fatal("owl:equivalentClass not expanded to mutual subClassOf")
	}
	// Equivalence must propagate up the hierarchy too.
	if !has(g, rdf.Triple{S: rs, P: subOf, O: sensor}) {
		t.Fatal("equivalent class did not inherit superclasses")
	}
}

func TestInferRangeSkipsLiterals(t *testing.T) {
	g := parse(t, `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:hasName rdfs:range ex:Name .
ex:s ex:hasName "a literal" .
`)
	InferRDFS(g) // must not panic or create literal-subject triples
	for _, tr := range g.Triples() {
		if tr.S.IsLiteral() {
			t.Fatalf("inference produced literal subject: %v", tr)
		}
	}
}

func TestInferFixpoint(t *testing.T) {
	g := taxonomy(t)
	first := InferRDFS(g)
	if first == 0 {
		t.Fatal("first inference pass added nothing")
	}
	if again := InferRDFS(g); again != 0 {
		t.Fatalf("second pass added %d triples; fixpoint not reached", again)
	}
}

func TestInferCycleTerminates(t *testing.T) {
	g := parse(t, `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
ex:A rdfs:subClassOf ex:B .
ex:B rdfs:subClassOf ex:C .
ex:C rdfs:subClassOf ex:A .
ex:x a ex:A .
`)
	InferRDFS(g) // must terminate despite the subclass cycle
	for _, c := range []string{"A", "B", "C"} {
		if !has(g, rdf.Triple{S: rdf.IRI(ex + "x"), P: typ, O: rdf.IRI(ex + c)}) {
			t.Errorf("type %s not inferred through cycle", c)
		}
	}
}
