package rdf

import (
	"fmt"
	"slices"
	"strings"
)

// Graph is an in-memory set of triples. Ontology and profile documents
// are small and read a few times per load, so lookups are filtered
// scans over the one set. Graph is not safe for concurrent mutation.
type Graph struct {
	set map[Triple]struct{}
}

// NewGraph returns an empty graph ready for use.
func NewGraph() *Graph {
	return &Graph{set: make(map[Triple]struct{})}
}

// Add inserts the triple; it reports whether the triple was new.
// Invalid triples (literal subjects, non-IRI predicates) are rejected
// with an error so corrupt data cannot enter the store silently.
func (g *Graph) Add(t Triple) (bool, error) {
	if !t.Valid() {
		return false, fmt.Errorf("rdf: invalid triple %v", t)
	}
	if _, dup := g.set[t]; dup {
		return false, nil
	}
	g.set[t] = struct{}{}
	return true, nil
}

// MustAdd is Add for statically well-formed triples; it panics on error.
func (g *Graph) MustAdd(t Triple) bool {
	added, err := g.Add(t)
	if err != nil {
		panic(err)
	}
	return added
}

// Wildcard marks an unconstrained position in Match. Any term with this
// exact value matches anything; it cannot collide with real data because
// its Kind is outside the valid range.
var Wildcard = Term{Kind: 0xff}

// Match returns all triples matching the pattern, where any position may
// be Wildcard. The result ordering is deterministic (sorted by term
// kind, then value, datatype and language, position by position) so
// experiments and tests are reproducible.
func (g *Graph) Match(s, p, o Term) []Triple {
	var out []Triple
	for t := range g.set {
		if matches(s, t.S) && matches(p, t.P) && matches(o, t.O) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, func(a, b Triple) int {
		if c := termCompare(a.S, b.S); c != 0 {
			return c
		}
		if c := termCompare(a.P, b.P); c != 0 {
			return c
		}
		return termCompare(a.O, b.O)
	})
	return out
}

func matches(pattern, t Term) bool { return pattern == Wildcard || pattern == t }

func termCompare(a, b Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if c := strings.Compare(a.Value, b.Value); c != 0 {
		return c
	}
	if c := strings.Compare(a.Datatype, b.Datatype); c != 0 {
		return c
	}
	return strings.Compare(a.Lang, b.Lang)
}

// Triples returns every triple, deterministically ordered.
func (g *Graph) Triples() []Triple {
	return g.Match(Wildcard, Wildcard, Wildcard)
}
