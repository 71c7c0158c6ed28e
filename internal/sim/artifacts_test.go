package sim

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"semdisco/internal/ontology"
	"semdisco/internal/rdf"
	"semdisco/internal/workload"
)

var updateArtifacts = flag.Bool("update", false, "rewrite testdata/artifacts from the documents the code emits now")

// loadedTTL is an ontology as `registryd -ontology` would load it: a
// label, an equivalence, a property chain whose top is never declared,
// and domain and range axioms.
const loadedTTL = `
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
ex:observes rdfs:subPropertyOf ex:relatesTo .
`

// artifacts are the RDF documents the binaries emit, keyed by golden
// file name: the ontology registryd serves by default (§4.6) and the
// one it serves for a loaded Turtle file, sdgen's Turtle for the bench
// taxonomy, and the RDF form of a few generated service profiles.
func artifacts(t *testing.T) map[string]string {
	loaded, err := ontology.FromTurtle("file://loaded.ttl", loadedTTL)
	if err != nil {
		t.Fatal(err)
	}
	benchOnto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	profiles := workload.GenProfiles(workload.PopulationSpec{
		N: 4, Classes: levels[5], DataClasses: levels[3], OntologyIRI: benchOnto.IRI, Seed: 7,
	})
	var nt string
	for _, p := range profiles {
		nt += rdf.EncodeNTriples(p.ToGraph())
	}
	return map[string]string{
		"default-ontology.nt": rdf.EncodeNTriples(DefaultOntology().ToGraph()),
		"loaded-ontology.nt":  rdf.EncodeNTriples(loaded.ToGraph()),
		// sdgen -depth 6 -branching 3, with sdgen's default namespace
		// and prefix map.
		"bench-taxonomy.ttl": rdf.EncodeTurtle(benchOnto.ToGraph(), map[string]string{
			"gen":  "http://semdisco.example/gen#",
			"rdfs": "http://www.w3.org/2000/01/rdf-schema#",
			"owl":  "http://www.w3.org/2002/07/owl#",
		}),
		"profiles.nt": nt,
	}
}

// TestGoldenArtifacts compares each emitted document byte for byte with
// testdata/artifacts/<name>. The taxonomy substrate (rdf, ontology)
// changes shape only with these documents unchanged; `go test
// ./internal/sim -run TestGoldenArtifacts -update` rewrites them.
func TestGoldenArtifacts(t *testing.T) {
	dir := filepath.Join("testdata", "artifacts")
	if *updateArtifacts {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range artifacts(t) {
		path := filepath.Join(dir, name)
		if *updateArtifacts {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the emitted document (%d bytes, want %d)", path, len(got), len(want))
		}
	}
	// The Turtle loads back into the taxonomy it was written from.
	src, err := os.ReadFile(filepath.Join(dir, "bench-taxonomy.ttl"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := ontology.FromTurtle("http://semdisco.example/gen#", string(src))
	if err != nil {
		t.Fatal(err)
	}
	if o.NumClasses() != 1+364 {
		t.Errorf("bench taxonomy reloads with %d classes, want 365", o.NumClasses())
	}
}
