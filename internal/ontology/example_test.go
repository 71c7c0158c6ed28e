package ontology_test

import (
	"fmt"

	"semdisco/internal/ontology"
)

// Build a taxonomy programmatically and query subsumption — the
// "a Radar is a kind of Sensor" inference at the heart of semantic
// service discovery.
func Example() {
	o := ontology.New("http://example.org/onto#")
	o.AddClass("http://example.org/onto#Sensor")
	o.AddClass("http://example.org/onto#Radar", "http://example.org/onto#Sensor")
	o.Freeze()

	fmt.Println(o.Subsumes("http://example.org/onto#Sensor", "http://example.org/onto#Radar"))
	fmt.Println(o.Subsumes("http://example.org/onto#Radar", "http://example.org/onto#Sensor"))
	// Output:
	// true
	// false
}

// Load the same taxonomy from RDF — the form a registry's artifact
// repository serves to disconnected clients.
func ExampleFromTurtle() {
	o, err := ontology.FromTurtle("http://example.org/onto#", `
		@prefix ex: <http://example.org/onto#> .
		@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
		ex:Radar rdfs:subClassOf ex:Sensor .
		ex:CoastalRadar rdfs:subClassOf ex:Radar .
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(o.Subsumes("http://example.org/onto#Sensor", "http://example.org/onto#CoastalRadar"))
	radar, coastal := o.ClassID("http://example.org/onto#Radar"), o.ClassID("http://example.org/onto#CoastalRadar")
	fmt.Printf("%.2f\n", o.SimilarityID(radar, coastal))
	// Output:
	// true
	// 0.80
}
