package workload

import (
	"testing"
	"time"

	"semdisco/internal/ontology"
)

func TestGenOntologyShape(t *testing.T) {
	o, levels := GenOntology(OntologySpec{Depth: 3, Branching: 2})
	if len(levels) != 3 {
		t.Fatalf("levels = %d", len(levels))
	}
	if len(levels[0]) != 1 || len(levels[1]) != 2 || len(levels[2]) != 4 {
		t.Fatalf("level sizes = %d/%d/%d", len(levels[0]), len(levels[1]), len(levels[2]))
	}
	// 1 + 2 + 4 classes + Thing.
	if o.NumClasses() != 8 {
		t.Fatalf("NumClasses = %d, want 8", o.NumClasses())
	}
	// Every leaf is subsumed by the root.
	for _, leaf := range levels[2] {
		if !o.Subsumes(levels[0][0], leaf) {
			t.Fatalf("root does not subsume %s", leaf)
		}
	}
	// Determinism.
	o2, levels2 := GenOntology(OntologySpec{Depth: 3, Branching: 2})
	if o2.NumClasses() != o.NumClasses() || levels2[2][3] != levels[2][3] {
		t.Fatal("generator not deterministic")
	}
}

func TestGenProfiles(t *testing.T) {
	_, levels := GenOntology(OntologySpec{Depth: 3, Branching: 3})
	ps := GenProfiles(PopulationSpec{N: 50, Classes: levels[2], Seed: 1, OntologyIRI: "urn:onto"})
	if len(ps) != 50 {
		t.Fatalf("population = %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Fatalf("generated profile invalid: %v", err)
		}
		if seen[p.ServiceIRI] {
			t.Fatalf("duplicate ServiceIRI %s", p.ServiceIRI)
		}
		seen[p.ServiceIRI] = true
		if p.QoS["accuracy"] < 0.5 || p.QoS["accuracy"] >= 1.0 {
			t.Fatalf("accuracy out of range: %v", p.QoS["accuracy"])
		}
	}
	// Same seed → same population.
	ps2 := GenProfiles(PopulationSpec{N: 50, Classes: levels[2], Seed: 1, OntologyIRI: "urn:onto"})
	for i := range ps {
		if ps[i].Category != ps2[i].Category {
			t.Fatal("population not deterministic")
		}
	}
}

func TestQueryMix(t *testing.T) {
	o, levels := GenOntology(OntologySpec{Depth: 4, Branching: 2})
	mix := NewQueryMix(o, levels[3], 0.5, 7)
	exact, broad := 0, 0
	for i := 0; i < 500; i++ {
		cat, isExact := mix.Next()
		if cat == "" || cat == ontology.Thing {
			t.Fatal("degenerate query category")
		}
		if isExact {
			exact++
			// Exact queries must come from the service category pool.
			found := false
			for _, c := range levels[3] {
				if c == cat {
					found = true
				}
			}
			if !found {
				t.Fatalf("exact query %s not in pool", cat)
			}
		} else {
			broad++
			// Broad queries sit strictly above the leaf level
			// (leaves are at ontology depth 4: Thing=0, root=1, …).
			if o.DepthID(o.ClassID(cat)) >= 4 {
				t.Fatalf("broad query %s is at leaf depth", cat)
			}
		}
	}
	if exact < 150 || broad < 150 {
		t.Fatalf("mix unbalanced: %d exact / %d broad", exact, broad)
	}
}

func TestRelevant(t *testing.T) {
	o, levels := GenOntology(OntologySpec{Depth: 3, Branching: 2})
	ps := GenProfiles(PopulationSpec{N: 40, Classes: levels[2], Seed: 2})
	// Root subsumes everything.
	if got := len(Relevant(o, levels[0][0], ps)); got != 40 {
		t.Fatalf("root-relevant = %d, want 40", got)
	}
	// A mid-level class subsumes only its subtree.
	mid := levels[1][0]
	rel := Relevant(o, mid, ps)
	for _, p := range ps {
		want := o.Subsumes(mid, p.Category)
		if rel[p.ServiceIRI] != want {
			t.Fatalf("Relevant mismatch for %s", p.ServiceIRI)
		}
	}
}

func TestChurnDraws(t *testing.T) {
	c := NewChurn(10*time.Second, 5*time.Second, 3)
	var upSum, downSum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		u, d := c.NextUp(), c.NextDown()
		if u < 0 || d < 0 {
			t.Fatal("negative sojourn")
		}
		upSum += u
		downSum += d
	}
	meanUp := upSum / n
	meanDown := downSum / n
	if meanUp < 8*time.Second || meanUp > 12*time.Second {
		t.Fatalf("mean up = %v, want ≈10s", meanUp)
	}
	if meanDown < 4*time.Second || meanDown > 6*time.Second {
		t.Fatalf("mean down = %v, want ≈5s", meanDown)
	}
}

func TestKeywordMatch(t *testing.T) {
	ps := GenProfiles(PopulationSpec{N: 1, Classes: []ontology.Class{"http://x#RadarFeed"}, Seed: 1})
	p := ps[0]
	if !KeywordMatch([]string{"radarfeed"}, p) {
		t.Fatal("case-insensitive keyword miss")
	}
	if KeywordMatch([]string{"sonar"}, p) {
		t.Fatal("false keyword hit")
	}
	if KeywordMatch(nil, p) {
		t.Fatal("empty query matched")
	}
}

func TestGenProfilesWithDataClasses(t *testing.T) {
	o, levels := GenOntology(OntologySpec{Depth: 3, Branching: 2})
	_ = o
	data, _ := GenOntology(OntologySpec{NS: "http://semdisco.example/data#", Depth: 2, Branching: 3})
	_ = data
	dataClasses := []ontology.Class{"http://semdisco.example/data#D0", "http://semdisco.example/data#D1"}
	ps := GenProfiles(PopulationSpec{N: 60, Classes: levels[2], DataClasses: dataClasses, Seed: 3})
	withInputs, totalOutputs := 0, 0
	for _, p := range ps {
		if len(p.Outputs) < 1 || len(p.Outputs) > 2 {
			t.Fatalf("outputs = %d, want 1..2", len(p.Outputs))
		}
		totalOutputs += len(p.Outputs)
		if len(p.Inputs) > 1 {
			t.Fatalf("inputs = %d, want 0..1", len(p.Inputs))
		}
		withInputs += len(p.Inputs)
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if withInputs == 0 || withInputs == 60 {
		t.Fatalf("input distribution degenerate: %d/60", withInputs)
	}
	if totalOutputs <= 60 {
		t.Fatalf("no profile got two outputs (%d total)", totalOutputs)
	}
	// Without DataClasses, profiles stay I/O free (back-compat).
	plain := GenProfiles(PopulationSpec{N: 5, Classes: levels[2], Seed: 3})
	for _, p := range plain {
		if p.Inputs != nil || p.Outputs != nil {
			t.Fatal("DataClasses-free population grew I/O")
		}
	}
}
