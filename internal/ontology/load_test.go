package ontology

import (
	"testing"

	"semdisco/internal/rdf"
)

const taxTTL = `
@prefix ex: <http://semdisco.example/onto#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .

ex:Device a owl:Class .
ex:Sensor rdfs:subClassOf ex:Device ;
          rdfs:label "sensor" .
ex:Radar rdfs:subClassOf ex:Sensor .
ex:RadarStation owl:equivalentClass ex:Radar .
ex:detects rdfs:subPropertyOf ex:observes ;
           rdfs:domain ex:Sensor ;
           rdfs:range ex:Device .
`

func TestFromTurtle(t *testing.T) {
	o, err := FromTurtle(ns, taxTTL)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Subsumes(c("Device"), c("Radar")) {
		t.Fatal("transitive subsumption not derived from RDF")
	}
	if !o.Subsumes(c("Radar"), c("RadarStation")) || !o.Subsumes(c("RadarStation"), c("Radar")) {
		t.Fatal("owl:equivalentClass not honored")
	}
	if !declares(o, ns+"Sensor", rdf.RDFSLabel, rdf.Literal("sensor")) {
		t.Fatal("label not loaded")
	}
	if !declares(o, ns+"detects", rdf.RDFSSubPropOf, rdf.IRI(ns+"observes")) {
		t.Fatal("subPropertyOf not loaded")
	}
	if !declares(o, ns+"detects", rdf.RDFSDomain, rdf.IRI(ns+"Sensor")) {
		t.Fatal("property domain not loaded")
	}
	if !declares(o, ns+"detects", rdf.RDFSRange, rdf.IRI(ns+"Device")) {
		t.Fatal("property range not loaded")
	}
}

func TestFromTurtleParseError(t *testing.T) {
	if _, err := FromTurtle(ns, "ex:a ex:b ex:c ."); err == nil {
		t.Fatal("parse error not propagated")
	}
}

func TestFromGraphRejectsLiteralClass(t *testing.T) {
	g := rdf.NewGraph()
	g.MustAdd(rdf.Triple{
		S: rdf.IRI(ns + "A"),
		P: rdf.IRI(rdf.RDFSSubClassOf),
		O: rdf.Literal("not a class"),
	})
	if _, err := FromGraph(ns, g); err == nil {
		t.Fatal("literal superclass accepted")
	}
}

func TestToGraphRoundTrip(t *testing.T) {
	o, err := FromTurtle(ns, taxTTL)
	if err != nil {
		t.Fatal(err)
	}
	g := o.ToGraph()
	back, err := FromGraph(ns, g)
	if err != nil {
		t.Fatal(err)
	}
	// The round-tripped ontology must preserve all subsumption answers.
	for _, a := range o.Classes() {
		for _, b := range o.Classes() {
			if o.Subsumes(a, b) != back.Subsumes(a, b) {
				t.Fatalf("round trip changed Subsumes(%s, %s)", a, b)
			}
		}
	}
	if !declares(back, ns+"Sensor", rdf.RDFSLabel, rdf.Literal("sensor")) {
		t.Fatal("label lost in round trip")
	}
	if !declares(back, ns+"detects", rdf.RDFSSubPropOf, rdf.IRI(ns+"observes")) {
		t.Fatal("property hierarchy lost in round trip")
	}
}
