package rdf

import (
	"strings"
	"testing"
)

func TestParseNTriples(t *testing.T) {
	src := `<http://example.org/alice> <http://example.org/knows> <http://example.org/bob> .
<http://example.org/alice> <http://example.org/name> "Alice" .
_:b0 <http://example.org/name> "anonymous"@en .
<http://example.org/alice> <http://example.org/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if size(g) != 4 {
		t.Fatalf("parsed %d triples, want 4", size(g))
	}
	if !has(g, Triple{alice, knows, bob}) {
		t.Fatal("missing alice-knows-bob")
	}
	if !has(g, Triple{Blank("b0"), name, LangLiteral("anonymous", "en")}) {
		t.Fatal("missing blank-node lang literal")
	}
	if !has(g, Triple{alice, IRI(ex + "age"), intLiteral(30)}) {
		t.Fatal("missing typed literal")
	}
}

func TestParseTurtlePrefixesAndLists(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

ex:Radar a ex:Class ;
    rdfs:subClassOf ex:Sensor, ex:Device ;
    rdfs:label "radar station" .

ex:alice ex:knows ex:bob . # trailing comment
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if !has(g, Triple{radar, IRI(RDFType), IRI(ex + "Class")}) {
		t.Fatal("'a' keyword not expanded to rdf:type")
	}
	if !has(g, Triple{radar, IRI(RDFSSubClassOf), sensor}) ||
		!has(g, Triple{radar, IRI(RDFSSubClassOf), IRI(ex + "Device")}) {
		t.Fatal("object list not parsed")
	}
	if !has(g, Triple{radar, IRI(RDFSLabel), Literal("radar station")}) {
		t.Fatal("predicate list not parsed")
	}
	if !has(g, Triple{alice, knows, bob}) {
		t.Fatal("statement after comment not parsed")
	}
}

func TestParseTurtleNumbersAndBooleans(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:int 42 ;
     ex:neg -7 ;
     ex:dec 3.25 ;
     ex:exp 1.5e3 ;
     ex:yes true ;
     ex:no false .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	s := IRI(ex + "s")
	checks := []struct {
		p    string
		want Term
	}{
		{"int", TypedLiteral("42", XSDInteger)},
		{"neg", TypedLiteral("-7", XSDInteger)},
		{"dec", TypedLiteral("3.25", XSDDecimal)},
		{"exp", TypedLiteral("1.5e3", XSDDouble)},
		{"yes", BoolLiteral(true)},
		{"no", BoolLiteral(false)},
	}
	for _, c := range checks {
		if !has(g, Triple{s, IRI(ex + c.p), c.want}) {
			t.Errorf("missing ex:%s %v; graph:\n%s", c.p, c.want, EncodeNTriples(g))
		}
	}
}

func TestParseTurtleIntegerBeforeDot(t *testing.T) {
	g, err := ParseTurtle(`@prefix ex: <http://example.org/> . ex:s ex:p 42 .`)
	if err != nil {
		t.Fatal(err)
	}
	if !has(g, Triple{IRI(ex + "s"), IRI(ex + "p"), intLiteral(42)}) {
		t.Fatal("integer directly before '.' misparsed")
	}
}

func TestParseTurtleEscapes(t *testing.T) {
	g, err := ParseTurtle(`<http://e/s> <http://e/p> "line1\nline2\t\"q\" \\ é" .`)
	if err != nil {
		t.Fatal(err)
	}
	want := Literal("line1\nline2\t\"q\" \\ é")
	if !has(g, Triple{IRI("http://e/s"), IRI("http://e/p"), want}) {
		t.Fatalf("escape decoding wrong; got %s", EncodeNTriples(g))
	}
}

func TestParseTurtleSparqlStyleDirectives(t *testing.T) {
	src := `PREFIX ex: <http://example.org/>
ex:alice ex:knows ex:bob .`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if !has(g, Triple{alice, knows, bob}) {
		t.Fatal("SPARQL-style PREFIX not honored")
	}
}

func TestParseTurtleBase(t *testing.T) {
	src := `@base <http://example.org/> .
<alice> <knows> <bob> .`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if !has(g, Triple{alice, knows, bob}) {
		t.Fatalf("@base resolution failed:\n%s", EncodeNTriples(g))
	}
}

func TestParseTurtleErrors(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`ex:a ex:b ex:c .`, "undeclared prefix"},
		{`<http://e/s> <http://e/p> "unterminated .`, "unterminated string"},
		{`<http://e/s> <http://e/p> [ <http://e/q> <http://e/o>`, "blank node property list"},
		{`<http://e/s> <http://e/p> ( <http://e/a>`, "unterminated collection"},
		{`<http://e/s> <http://e/p> """x"" .`, "unterminated triple-quoted"},
		{`<http://e/s> <http://e/p> <http://e/o> ;`, "unexpected end"},
		{`@prefix ex <http://e/> .`, "malformed prefix"},
		{`<http://e/s> "lit" <http://e/o> .`, "predicate"},
		{`<http://e/s> <http://e/p> "x"@ .`, "empty language tag"},
	}
	for _, c := range cases {
		_, err := ParseTurtle(c.src)
		if err == nil {
			t.Errorf("ParseTurtle(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("ParseTurtle(%q) error %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseErrorsIncludeLineNumbers(t *testing.T) {
	_, err := ParseTurtle("<http://e/s> <http://e/p> <http://e/o> .\n\nex:a ex:b ex:c .")
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error = %v, want line 3 reference", err)
	}
}

func TestRoundTripNTriples(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Triple{alice, knows, bob})
	g.MustAdd(Triple{alice, name, LangLiteral("Alice \"A\"", "en")})
	g.MustAdd(Triple{Blank("x"), name, intLiteral(-3)})
	enc := EncodeNTriples(g)
	back, err := ParseTurtle(enc)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, enc)
	}
	if EncodeNTriples(back) != enc {
		t.Fatalf("round trip changed graph:\n%s\nvs\n%s", enc, EncodeNTriples(back))
	}
}

func TestRoundTripTurtle(t *testing.T) {
	g := NewGraph()
	g.MustAdd(Triple{radar, IRI(RDFType), IRI(OWLClass)})
	g.MustAdd(Triple{radar, IRI(RDFSSubClassOf), sensor})
	g.MustAdd(Triple{radar, IRI(RDFSLabel), Literal("radar")})
	g.MustAdd(Triple{radar, IRI(ex + "range"), intLiteral(120)})
	ttl := EncodeTurtle(g, map[string]string{
		"ex":   ex,
		"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
		"owl":  "http://www.w3.org/2002/07/owl#",
	})
	back, err := ParseTurtle(ttl)
	if err != nil {
		t.Fatalf("re-parse of encoded Turtle failed: %v\n%s", err, ttl)
	}
	if EncodeNTriples(back) != EncodeNTriples(g) {
		t.Fatalf("turtle round trip changed graph:\n%s", ttl)
	}
	// The Turtle form should actually use the prefixes.
	if !strings.Contains(ttl, "ex:Radar") || !strings.Contains(ttl, "rdfs:subClassOf") {
		t.Fatalf("encoded Turtle did not abbreviate IRIs:\n%s", ttl)
	}
	if !strings.Contains(ttl, "a owl:Class") {
		t.Fatalf("encoded Turtle did not use the 'a' keyword:\n%s", ttl)
	}
}

func TestParseAnonymousBlankNodes(t *testing.T) {
	g, err := ParseTurtle(`
@prefix ex: <http://example.org/> .
ex:svc ex:profile [ ex:category ex:Radar ; ex:accuracy 0.9 ] .
ex:svc ex:empty [] .
`)
	if err != nil {
		t.Fatal(err)
	}
	// One blank node carries the category and accuracy.
	profiles := objects(g, IRI(ex+"svc"), IRI(ex+"profile"))
	if len(profiles) != 1 || !profiles[0].IsBlank() {
		t.Fatalf("profile objects = %v", profiles)
	}
	bn := profiles[0]
	if !has(g, Triple{bn, IRI(ex + "category"), IRI(ex + "Radar")}) {
		t.Fatal("blank node property list lost its triples")
	}
	empties := objects(g, IRI(ex+"svc"), IRI(ex+"empty"))
	if len(empties) != 1 || !empties[0].IsBlank() || empties[0] == bn {
		t.Fatalf("empty [] = %v (must be a fresh blank node)", empties)
	}
}

func TestParseAnonymousBlankAsSubject(t *testing.T) {
	g, err := ParseTurtle(`
@prefix ex: <http://example.org/> .
[ ex:name "anon service" ] ex:category ex:Radar .
`)
	if err != nil {
		t.Fatal(err)
	}
	subs := subjects(g, IRI(ex+"category"), IRI(ex+"Radar"))
	if len(subs) != 1 || !subs[0].IsBlank() {
		t.Fatalf("subjects = %v", subs)
	}
	if !has(g, Triple{subs[0], IRI(ex + "name"), Literal("anon service")}) {
		t.Fatal("subject blank node property lost")
	}
}

func TestParseCollections(t *testing.T) {
	g, err := ParseTurtle(`
@prefix ex: <http://example.org/> .
ex:svc ex:inputs ( ex:A ex:B ex:C ) ;
       ex:none ( ) .
`)
	if err != nil {
		t.Fatal(err)
	}
	heads := objects(g, IRI(ex+"svc"), IRI(ex+"inputs"))
	if len(heads) != 1 {
		t.Fatalf("inputs = %v", heads)
	}
	// Walk the rdf list.
	var items []Term
	cur := heads[0]
	for cur != IRI(RDFNil) {
		first, ok := firstObject(g, cur, IRI(RDFFirst))
		if !ok {
			t.Fatalf("list node %v missing rdf:first", cur)
		}
		items = append(items, first)
		rest, ok := firstObject(g, cur, IRI(RDFRest))
		if !ok {
			t.Fatalf("list node %v missing rdf:rest", cur)
		}
		cur = rest
	}
	if len(items) != 3 || items[0] != IRI(ex+"A") || items[2] != IRI(ex+"C") {
		t.Fatalf("list items = %v", items)
	}
	// Empty collection is rdf:nil directly.
	none := objects(g, IRI(ex+"svc"), IRI(ex+"none"))
	if len(none) != 1 || none[0] != IRI(RDFNil) {
		t.Fatalf("empty collection = %v", none)
	}
}

func TestParseTripleQuotedStrings(t *testing.T) {
	g, err := ParseTurtle(`
@prefix ex: <http://example.org/> .
ex:svc ex:doc """line one
line "quoted" two\ttabbed""" ;
       ex:tagged """hei"""@no .
`)
	if err != nil {
		t.Fatal(err)
	}
	want := Literal("line one\nline \"quoted\" two\ttabbed")
	if !has(g, Triple{IRI(ex + "svc"), IRI(ex + "doc"), want}) {
		t.Fatalf("long literal mangled:\n%s", EncodeNTriples(g))
	}
	if !has(g, Triple{IRI(ex + "svc"), IRI(ex + "tagged"), LangLiteral("hei", "no")}) {
		t.Fatal("long literal language tag lost")
	}
}

func TestOWLSStyleDocument(t *testing.T) {
	// The shape a real OWL-S profile takes: nested anonymous nodes and
	// parameter collections.
	g, err := ParseTurtle(`
@prefix profile: <http://www.daml.org/services/owl-s/1.1/Profile.owl#> .
@prefix ex: <http://example.org/> .

ex:RadarService profile:presents [
    profile:serviceName "Coastal radar" ;
    profile:hasInput ( ex:AreaOfInterest ) ;
    profile:hasOutput ( ex:Track ex:Image )
] .
`)
	if err != nil {
		t.Fatal(err)
	}
	if size(g) < 8 {
		t.Fatalf("OWL-S-style doc produced only %d triples:\n%s", size(g), EncodeNTriples(g))
	}
	// Round trip through canonical N-Triples.
	back, err := ParseTurtle(EncodeNTriples(g))
	if err != nil {
		t.Fatal(err)
	}
	if size(back) != size(g) {
		t.Fatal("round trip changed triple count")
	}
}
