package describe

import (
	"slices"
	"testing"

	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

// TestSemanticIndexKeysSound checks every key the semantic model hands
// a registry index against its own matcher, over every pairing of small
// category and output pools: whenever Evaluate matches, the description
// shares a summary token with a prunable query, declares a concept in
// the query's concept closure when the model states one, and declares
// an output in every output group. The pools hold what the index must
// not lose: Thing, an undeclared class, the empty category, and a
// top-level equivalence cluster (LoopA ⊑ LoopB ⊑ LoopA), whose closure
// rows carry no Thing bit.
func TestSemanticIndexKeysSound(t *testing.T) {
	o := ontology.New(ns)
	for _, a := range [][2]string{
		{"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"},
		{"Track", "Data"}, {"IRImage", "Data"}, {"LoopA", "LoopB"}, {"LoopB", "LoopA"},
	} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	m := NewSemanticModel(o)
	cats := []ontology.Class{c("Device"), c("Radar"), c("Camera"), c("LoopA"), ontology.Thing, c("Ghost"), ""}
	outs := []ontology.Class{c("Data"), c("IRImage"), c("Track"), c("LoopB"), ontology.Thing, c("Blob")}
	var outSets [][]ontology.Class
	outSets = append(outSets, nil)
	for _, a := range outs {
		outSets = append(outSets, []ontology.Class{a})
		for _, b := range outs {
			outSets = append(outSets, []ontology.Class{a, b})
		}
	}

	var descs []Description
	var authored []*profile.Profile // descs[i] decodes authored[i]
	for _, cat := range cats {
		for _, os := range outSets {
			p := &profile.Profile{ServiceIRI: "urn:svc", Category: cat, Outputs: os, Grounding: "g"}
			d, err := m.DecodeDescription(p.Encode())
			if err != nil {
				t.Fatal(err)
			}
			ids := m.OutputConceptIDs(d)
			if !slices.IsSorted(ids) || len(slices.Compact(slices.Clone(ids))) != len(ids) {
				t.Fatalf("OutputConceptIDs(%v) = %v, want distinct and ascending", os, ids)
			}
			descs = append(descs, d)
			authored = append(authored, p)
		}
	}
	matched := 0
	for _, cat := range cats {
		for _, os := range outSets {
			for _, min := range []match.Degree{match.Fail, match.Exact} {
				tpl := &profile.Template{Category: cat, RequiredOutputs: os}
				q, err := m.DecodeQuery((&SemanticQuery{Template: tpl, MinDegree: min}).Encode())
				if err != nil {
					t.Fatal(err)
				}
				toks, prunable := m.QueryTokens(q)
				cids, hasCids := m.QueryConceptIDs(q)
				groups := m.OutputGroups(q)
				for i, d := range descs {
					if !m.Evaluate(q, d).Matched {
						continue
					}
					matched++
					p := authored[i]
					if prunable && !slices.ContainsFunc(m.SummaryTokens(d), func(s string) bool { return slices.Contains(toks, s) }) {
						t.Fatalf("query %q matches category %q, but summary pruning drops it", cat, p.Category)
					}
					if hasCids {
						if id, ok := m.DescriptionConceptID(d); !ok || !slices.Contains(cids, id) {
							t.Fatalf("query %q matches category %q outside its concept closure", cat, p.Category)
						}
					}
					have := m.OutputConceptIDs(d)
					for i, g := range groups {
						if !slices.ContainsFunc(have, func(id int32) bool { return slices.Contains(g, id) }) {
							t.Fatalf("query outputs %v match outputs %v, which miss group %d %v", os, p.Outputs, i, g)
						}
					}
				}
			}
		}
	}
	if matched == 0 {
		t.Fatal("degenerate run: nothing matched")
	}
}

// TestThingQueryHasNoIndexKeys pins the owl:Thing rule: Thing subsumes
// undeclared and empty categories as well, so a Thing query is neither
// prunable nor bounded by a concept closure, and a Thing output forms
// no group.
func TestThingQueryHasNoIndexKeys(t *testing.T) {
	m := NewSemanticModel(testOntology(t))
	q, err := m.DecodeQuery((&SemanticQuery{Template: &profile.Template{
		Category: ontology.Thing, RequiredOutputs: []ontology.Class{ontology.Thing, c("Track")},
	}}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if _, prunable := m.QueryTokens(q); prunable {
		t.Fatal("a Thing query is prunable")
	}
	if _, ok := m.QueryConceptIDs(q); ok {
		t.Fatal("a Thing query reports a concept closure")
	}
	if g := m.OutputGroups(q); len(g) != 1 {
		t.Fatalf("OutputGroups = %v, want one group, for Track only", g)
	}
}
