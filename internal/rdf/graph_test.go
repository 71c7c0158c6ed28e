package rdf

import (
	"reflect"
	"strconv"
	"testing"
	"testing/quick"
)

var (
	ex     = "http://example.org/"
	alice  = IRI(ex + "alice")
	bob    = IRI(ex + "bob")
	knows  = IRI(ex + "knows")
	name   = IRI(ex + "name")
	radar  = IRI(ex + "Radar")
	sensor = IRI(ex + "Sensor")
)

func TestAddDedupes(t *testing.T) {
	g := NewGraph()
	tr := Triple{alice, knows, bob}
	added, err := g.Add(tr)
	if err != nil || !added {
		t.Fatalf("Add = (%v, %v), want (true, nil)", added, err)
	}
	if !has(g, tr) {
		t.Fatal("triple absent after Add")
	}
	added, err = g.Add(tr)
	if err != nil || added {
		t.Fatalf("duplicate Add = (%v, %v), want (false, nil)", added, err)
	}
	if size(g) != 1 {
		t.Fatalf("%d triples after a duplicate Add, want 1", size(g))
	}
}

func TestAddRejectsInvalid(t *testing.T) {
	g := NewGraph()
	cases := []Triple{
		{Literal("x"), knows, bob}, // literal subject
		{alice, Literal("x"), bob}, // literal predicate
		{alice, Blank("b"), bob},   // blank predicate
	}
	for _, tr := range cases {
		if _, err := g.Add(tr); err == nil {
			t.Errorf("Add(%v) succeeded, want error", tr)
		}
	}
	if size(g) != 0 {
		t.Fatal("invalid triples entered the store")
	}
}

func TestMatchAllPatterns(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Triple{alice, knows, bob})
	g.MustAdd(Triple{bob, knows, alice})
	g.MustAdd(Triple{alice, name, Literal("Alice")})

	cases := []struct {
		s, p, o Term
		want    int
	}{
		{alice, knows, bob, 1},
		{alice, knows, Wildcard, 1},
		{Wildcard, knows, bob, 1},
		{alice, Wildcard, bob, 1},
		{alice, Wildcard, Wildcard, 2},
		{Wildcard, knows, Wildcard, 2},
		{Wildcard, Wildcard, bob, 1},
		{Wildcard, Wildcard, Wildcard, 3},
		{bob, name, Wildcard, 0},
	}
	for _, c := range cases {
		got := g.Match(c.s, c.p, c.o)
		if len(got) != c.want {
			t.Errorf("Match(%v,%v,%v) = %d results, want %d", c.s, c.p, c.o, len(got), c.want)
		}
	}
}

func TestMatchDeterministicOrder(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Triple{bob, knows, alice})
	g.MustAdd(Triple{alice, knows, bob})
	g.MustAdd(Triple{alice, name, Literal("Alice")})
	first := g.Match(Wildcard, Wildcard, Wildcard)
	for i := 0; i < 10; i++ {
		if got := g.Match(Wildcard, Wildcard, Wildcard); !reflect.DeepEqual(got, first) {
			t.Fatal("Match order is not deterministic")
		}
	}
}

// TestMatchAgreesWithSetProperty: after any sequence of adds, every
// pattern shape answers exactly the added triples it constrains.
func TestMatchAgreesWithSetProperty(t *testing.T) {
	f := func(ops []struct{ S, P, O uint8 }) bool {
		g := NewGraph()
		model := make(map[Triple]bool)
		terms := []Term{alice, bob, radar, sensor}
		preds := []Term{knows, name, IRI(RDFSSubClassOf)}
		for _, op := range ops {
			tr := Triple{terms[int(op.S)%len(terms)], preds[int(op.P)%len(preds)], terms[int(op.O)%len(terms)]}
			g.MustAdd(tr)
			model[tr] = true
		}
		for _, s := range append(terms, Wildcard) {
			for _, p := range append(preds, Wildcard) {
				for _, o := range append(terms, Wildcard) {
					want := 0
					for tr := range model {
						if matches(s, tr.S) && matches(p, tr.P) && matches(o, tr.O) {
							want++
						}
					}
					if len(g.Match(s, p, o)) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTermLiteralAccessors(t *testing.T) {
	cases := []struct {
		t                     Term
		value, datatype, lang string
	}{
		{FloatLiteral(2.5), "2.5", XSDDouble, ""},
		{BoolLiteral(true), "true", XSDBoolean, ""},
		{LangLiteral("hei", "no"), "hei", "", "no"},
		{TypedLiteral("7", XSDInteger), "7", XSDInteger, ""},
	}
	for _, c := range cases {
		if !c.t.IsLiteral() || c.t.IsIRI() || c.t.IsBlank() {
			t.Errorf("%v is not a literal", c.t)
		}
		if c.t.Value != c.value || c.t.Datatype != c.datatype || c.t.Lang != c.lang {
			t.Errorf("%v = (%q, %q, %q), want (%q, %q, %q)", c.t, c.t.Value, c.t.Datatype, c.t.Lang, c.value, c.datatype, c.lang)
		}
	}
	if alice.IsLiteral() || !alice.IsIRI() || !Blank("b").IsBlank() {
		t.Fatal("IRI or blank node reported as the wrong kind")
	}
}

func TestTermString(t *testing.T) {
	cases := []struct {
		t    Term
		want string
	}{
		{alice, "<http://example.org/alice>"},
		{Blank("b0"), "_:b0"},
		{Literal("hi"), `"hi"`},
		{Literal("a\"b\\c\nd"), `"a\"b\\c\nd"`},
		{LangLiteral("hei", "no"), `"hei"@no`},
		{intLiteral(7), `"7"^^<` + XSDInteger + `>`},
		{TypedLiteral("x", XSDString), `"x"`},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// has reports whether the graph holds exactly t.
func has(g *Graph, t Triple) bool { return len(g.Match(t.S, t.P, t.O)) == 1 }

// size is the number of triples in g.
func size(g *Graph) int { return len(g.Triples()) }

// objects lists the objects of (s, p, ?) in Match order.
func objects(g *Graph, s, p Term) []Term {
	var out []Term
	for _, t := range g.Match(s, p, Wildcard) {
		out = append(out, t.O)
	}
	return out
}

// subjects lists the subjects of (?, p, o) in Match order.
func subjects(g *Graph, p, o Term) []Term {
	var out []Term
	for _, t := range g.Match(Wildcard, p, o) {
		out = append(out, t.S)
	}
	return out
}

// firstObject is the smallest object of (s, p, ?); ok=false when none.
func firstObject(g *Graph, s, p Term) (Term, bool) {
	objs := objects(g, s, p)
	if len(objs) == 0 {
		return Term{}, false
	}
	return objs[0], true
}

func intLiteral(v int) Term { return TypedLiteral(strconv.Itoa(v), XSDInteger) }
