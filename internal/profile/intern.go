package profile

import "semdisco/internal/ontology"

// InternedProfile carries the interned ClassIDs of a profile's
// category and I/O concepts. The registry interns each stored profile
// once at decode time so the semantic evaluate loop compares integer
// IDs instead of IRI strings — zero string-map lookups after the plan
// cache hit. The struct is immutable after Intern builds it and may be
// shared freely between goroutines and clones.
type InternedProfile struct {
	onto     *ontology.Ontology
	Category ontology.ClassID
	Inputs   []ontology.ClassID
	Outputs  []ontology.ClassID
}

// InternedTemplate is the query-side counterpart of InternedProfile.
type InternedTemplate struct {
	onto            *ontology.Ontology
	Category        ontology.ClassID
	RequiredOutputs []ontology.ClassID
	ProvidedInputs  []ontology.ClassID
}

// Intern resolves the profile's concepts against o's interned class IDs
// and caches the result on the profile; o must be frozen, and a nil
// ontology clears the cache. Undeclared concepts intern to ontology.NoClass; the matcher
// compares those pairs by IRI. Not safe for concurrent use with
// readers — intern before sharing the profile.
func (p *Profile) Intern(o *ontology.Ontology) {
	if o == nil {
		p.itn = nil
		return
	}
	p.itn = &InternedProfile{
		onto:     o,
		Category: o.ClassID(p.Category),
		Inputs:   internClasses(o, p.Inputs),
		Outputs:  internClasses(o, p.Outputs),
	}
}

// InternedFor returns the cached interned view when it was built
// against exactly o (pointer identity), nil otherwise. Never resolves
// lazily, so it is safe to call concurrently.
func (p *Profile) InternedFor(o *ontology.Ontology) *InternedProfile {
	if itn := p.itn; itn != nil && itn.onto == o {
		return itn
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
