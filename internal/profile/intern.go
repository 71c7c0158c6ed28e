package profile

import "semdisco/internal/ontology"

// InternedTemplate carries the interned ClassIDs of a template's
// category and I/O concepts, so the matcher compares integer IDs with
// its candidates' records instead of IRI strings. The struct is
// immutable after Intern builds it and may be shared freely between
// goroutines.
type InternedTemplate struct {
	onto            *ontology.Ontology
	Category        ontology.ClassID
	RequiredOutputs []ontology.ClassID
	ProvidedInputs  []ontology.ClassID
	// Related is the category's subsumption closure (RelatedIDs),
	// computed once for every use a query plan makes of it; nil for an
	// undeclared category and for Thing, whose closure no index reads.
	Related []ontology.ClassID
}

// Intern compiles the profile's match record (CompileRecord) against
// o and caches it on the profile; o must be frozen, and a nil ontology
// clears the cache. Not safe for concurrent use with readers — intern before
// sharing the profile, and again after changing it.
func (p *Profile) Intern(o *ontology.Ontology) {
	if o == nil {
		p.rec = nil
		return
	}
	p.rec = &Record{}
	CompileRecord(p, o, p.rec)
}

// RecordFor returns the cached match record when Intern built it
// against exactly o (pointer identity), nil otherwise. Never compiles
// lazily, so it is safe to call concurrently.
func (p *Profile) RecordFor(o *ontology.Ontology) *Record {
	if r := p.rec; r != nil && r.onto == o {
		return r
	}
	return nil
}

// Intern resolves the template's concepts against o's interned class
// IDs and caches the result; see Profile.Intern for the contract. It also
// fixes the QoS floors' order (QoSFloors), with or without an ontology.
func (t *Template) Intern(o *ontology.Ontology) {
	t.floors = sortedFloors(t.MinQoS)
	if o == nil {
		t.itn = nil
		return
	}
	t.itn = &InternedTemplate{
		onto:            o,
		Category:        o.ClassID(t.Category),
		RequiredOutputs: internClasses(o, t.RequiredOutputs),
		ProvidedInputs:  internClasses(o, t.ProvidedInputs),
	}
	if cat := t.itn.Category; cat != o.ThingID() {
		t.itn.Related = o.RelatedIDs(cat)
	}
}

// InternedFor returns the cached interned view when it was built
// against exactly o, nil otherwise.
func (t *Template) InternedFor(o *ontology.Ontology) *InternedTemplate {
	if itn := t.itn; itn != nil && itn.onto == o {
		return itn
	}
	return nil
}

func internClasses(o *ontology.Ontology, cs []ontology.Class) []ontology.ClassID {
	if len(cs) == 0 {
		return nil
	}
	out := make([]ontology.ClassID, len(cs))
	for i, c := range cs {
		out[i] = o.ClassID(c)
	}
	return out
}
