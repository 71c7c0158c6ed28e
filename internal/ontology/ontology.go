// Package ontology provides the shared semantic model that semantic
// service descriptions are grounded in (ICDEW'06 §1: "upper-level
// ontologies and service taxonomies could be standardized, facilitating
// semantic service descriptions, and thereby precise selection of
// relevant services").
//
// It models a class taxonomy with multiple inheritance, and compiles
// the subsumption closure at Freeze so matchmaking queries ("is a Radar
// a kind of Sensor?") answer in O(1) over interned class IDs. It also
// provides taxonomy-distance similarity (Wu–Palmer), used by the
// matchmaker to rank services within the same match degree. Property
// declarations are kept only to be written back by ToGraph.
package ontology

import (
	"errors"
	"fmt"
	"sort"
)

// Class is a class IRI in the ontology.
type Class string

// Property is a property IRI in the ontology.
type Property string

// Thing is the universal superclass; every class is subsumed by Thing.
const Thing Class = "http://www.w3.org/2002/07/owl#Thing"

// Ontology is an immutable-after-Freeze class and property taxonomy.
// Build it with AddClass/AddProperty (or ontology.FromGraph), then call
// Freeze to compute the subsumption closure. All query methods require a
// frozen ontology and panic otherwise, which converts misuse into an
// immediate, debuggable failure instead of silently wrong match results.
type Ontology struct {
	// IRI identifies the ontology itself; registries serve the document
	// for this IRI from their artifact repository (§4.6).
	IRI string

	classes map[Class]*classInfo
	props   map[Property]*propInfo
	frozen  bool

	// c is the dense interned index built at Freeze (see compiled.go);
	// it answers every taxonomy query.
	c *compiledIndex
}

type classInfo struct {
	parents []Class
	label   string
}

// propInfo is a property declaration as loaded; ToGraph writes it back.
type propInfo struct {
	parents []Property
	domain  Class
	rang    Class
}

// New returns an empty ontology containing only Thing.
func New(iri string) *Ontology {
	o := &Ontology{
		IRI:     iri,
		classes: make(map[Class]*classInfo),
		props:   make(map[Property]*propInfo),
	}
	o.classes[Thing] = &classInfo{}
	return o
}

// ErrFrozen is returned when mutating a frozen ontology.
var ErrFrozen = errors.New("ontology: frozen")

// ErrUnknownClass is returned when referencing an undeclared class.
var ErrUnknownClass = errors.New("ontology: unknown class")

// AddClass declares a class with the given direct superclasses. Parents
// need not be declared yet; forward references are resolved at Freeze.
// Declaring the same class twice merges the parent sets.
func (o *Ontology) AddClass(c Class, parents ...Class) error {
	if o.frozen {
		return ErrFrozen
	}
	if c == "" {
		return errors.New("ontology: empty class IRI")
	}
	ci := o.classes[c]
	if ci == nil {
		ci = &classInfo{}
		o.classes[c] = ci
	}
	for _, p := range parents {
		if p == c {
			continue // reflexive edges are implicit
		}
		ci.parents = append(ci.parents, p)
	}
	return nil
}

// SetLabel attaches a human-readable label to a class.
func (o *Ontology) SetLabel(c Class, label string) error {
	if o.frozen {
		return ErrFrozen
	}
	ci := o.classes[c]
	if ci == nil {
		return fmt.Errorf("%w: %s", ErrUnknownClass, c)
	}
	ci.label = label
	return nil
}

// AddProperty declares a property with optional domain, range and
// superproperties. An empty domain/range means unconstrained.
func (o *Ontology) AddProperty(p Property, domain, rang Class, parents ...Property) error {
	if o.frozen {
		return ErrFrozen
	}
	if p == "" {
		return errors.New("ontology: empty property IRI")
	}
	pi := o.props[p]
	if pi == nil {
		pi = &propInfo{}
		o.props[p] = pi
	}
	if domain != "" {
		pi.domain = domain
	}
	if rang != "" {
		pi.rang = rang
	}
	for _, par := range parents {
		if par == p {
			continue
		}
		pi.parents = append(pi.parents, par)
	}
	return nil
}

// Freeze resolves forward references, links every root to Thing,
// compiles the reflexive-transitive subsumption closure and class
// depths, and makes the ontology immutable. Freeze is idempotent.
// Undeclared parent classes are implicitly declared as direct children
// of Thing, matching how RDFS treats unknown terms.
func (o *Ontology) Freeze() {
	if o.frozen {
		return
	}
	// Implicitly declare referenced-but-undeclared parents (they have no
	// parents of their own, so one pass declares them all).
	for _, ci := range o.classes {
		for _, p := range ci.parents {
			if o.classes[p] == nil {
				o.classes[p] = &classInfo{}
			}
		}
	}
	// Every parentless class (except Thing) becomes a child of Thing.
	for c, ci := range o.classes {
		if c != Thing && len(ci.parents) == 0 {
			ci.parents = []Class{Thing}
		}
		ci.parents = dedupClasses(ci.parents)
	}
	// Ancestor closures and depths, interned.
	o.compile()
	o.frozen = true
}

func dedupClasses(cs []Class) []Class {
	seen := make(map[Class]bool, len(cs))
	out := cs[:0]
	for _, c := range cs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (o *Ontology) mustFrozen() {
	if !o.frozen {
		panic("ontology: query before Freeze")
	}
}

// HasClass reports whether c is declared.
func (o *Ontology) HasClass(c Class) bool {
	_, ok := o.classes[c]
	return ok
}

// Subsumes reports whether super subsumes sub, i.e. sub ⊑ super.
// Reflexive: Subsumes(c, c) is true for declared c. Unknown classes
// subsume nothing and are subsumed only by Thing (open-world lenience:
// an unknown class is still a Thing). The check is two ID lookups and
// one word test; pre-resolved IDs (SubsumesID) skip even the lookups.
func (o *Ontology) Subsumes(super, sub Class) bool {
	o.mustFrozen()
	if super == Thing {
		return true
	}
	return o.SubsumesID(o.ClassID(super), o.ClassID(sub))
}

// Parents returns the direct superclasses of c.
func (o *Ontology) Parents(c Class) []Class {
	ci, ok := o.classes[c]
	if !ok {
		return nil
	}
	return append([]Class(nil), ci.parents...)
}

// Classes returns all declared classes in deterministic order.
func (o *Ontology) Classes() []Class {
	out := make([]Class, 0, len(o.classes))
	for c := range o.classes {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Properties returns all declared properties in deterministic order.
func (o *Ontology) Properties() []Property {
	out := make([]Property, 0, len(o.props))
	for p := range o.props {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumClasses returns the number of declared classes (including Thing).
func (o *Ontology) NumClasses() int { return len(o.classes) }
