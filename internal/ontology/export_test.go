package ontology

import (
	"math/bits"

	"semdisco/internal/rdf"
)

// String-keyed forms of the ID queries, for tests that name classes.

func (o *Ontology) depth(c Class) int { return o.DepthID(o.ClassID(c)) }

func (o *Ontology) lcs(a, b Class) Class { return o.ClassByID(o.LCSID(o.ClassID(a), o.ClassID(b))) }

func (o *Ontology) similarity(a, b Class) float64 {
	return o.SimilarityID(o.ClassID(a), o.ClassID(b))
}

// ancestors is c's closure row: its reflexive-transitive superclasses
// in class order, nil for an undeclared class.
func (o *Ontology) ancestors(c Class) []Class { return o.rowClasses(o.c.anc, c) }

// descendants is c's reflexive-transitive subclasses in class order.
func (o *Ontology) descendants(c Class) []Class { return o.rowClasses(o.c.desc, c) }

// related is RelatedIDs by name.
func (o *Ontology) related(c Class) []Class {
	ids := o.RelatedIDs(o.ClassID(c))
	if ids == nil {
		return nil
	}
	out := make([]Class, len(ids))
	for i, id := range ids {
		out[i] = o.ClassByID(id)
	}
	return out
}

func (o *Ontology) rowClasses(m []uint64, c Class) []Class {
	id := o.ClassID(c)
	if id == NoClass {
		return nil
	}
	out := []Class{}
	for w, word := range o.c.row(m, id) {
		for word != 0 {
			out = append(out, o.c.classes[w<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return out
}

// declares reports whether o's RDF form holds the triple (s p o), with
// s and p IRIs.
func declares(o *Ontology, s, p string, obj rdf.Term) bool {
	return len(o.ToGraph().Match(rdf.IRI(s), rdf.IRI(p), obj)) == 1
}
