// Package match implements the semantic matchmaker the architecture
// delegates to registries (§4.2: "service selection based on semantic
// descriptions is necessary to find the best-suited services for given
// tasks", §3.2: "by delegating service selection to the central
// registry, query evaluation may only have to be carried out once").
//
// The matcher follows the OWL-S matchmaking scheme of Paolucci et al.
// with the four classic degrees, applied to the service category, the
// required outputs and the provided inputs, plus hard QoS-threshold and
// geographic-coverage constraints. Within a degree, candidates are
// ranked by taxonomy similarity (Wu–Palmer) and QoS margin, giving the
// total order the registry needs for "best-only" query response control.
package match

import (
	"fmt"

	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

// Degree is the qualitative match level, ordered so that a larger value
// is a better match.
type Degree uint8

const (
	// Fail means at least one hard constraint is unsatisfied.
	Fail Degree = iota
	// Subsumed means the service offer is strictly more general than
	// the request (requested concept subsumes the advertised one); it
	// may only partially satisfy the requester.
	Subsumed
	// PlugIn means the service offer is a specialization of the request
	// (advertised concept subsumed by the requested one), so the service
	// can plug into the requester's need.
	PlugIn
	// Exact means the concepts coincide.
	Exact
)

// String renders the degree for reports and logs.
func (d Degree) String() string {
	switch d {
	case Fail:
		return "fail"
	case Subsumed:
		return "subsumed"
	case PlugIn:
		return "plugin"
	case Exact:
		return "exact"
	default:
		return fmt.Sprintf("degree(%d)", uint8(d))
	}
}

// Result is the outcome of matching one advertisement against a
// template.
type Result struct {
	// Degree is the minimum degree across all compared aspects.
	Degree Degree
	// Score ranks results within a degree: the mean taxonomy similarity
	// of the compared concept pairs in [0,1], plus a small QoS-margin
	// bonus. Higher is better.
	Score float64
}

// Matches reports whether the result clears the given minimum degree.
func (r Result) Matches(min Degree) bool {
	return r.Degree != Fail && r.Degree >= min
}

// Matcher evaluates templates against profiles over one shared
// ontology. The zero value is unusable; construct with New.
// Matchers are safe for concurrent use.
type Matcher struct {
	onto *ontology.Ontology
}

// New returns a matcher grounded in the given frozen ontology. It
// compares concepts by interned ID over the ontology's bitset closures.
func New(o *ontology.Ontology) *Matcher {
	if o == nil {
		panic("match: nil ontology")
	}
	return &Matcher{onto: o}
}

// Match evaluates the template against the profile's match record:
// the one Profile.Intern cached for m's ontology, or one compiled for
// this call.
func (m *Matcher) Match(t *profile.Template, p *profile.Profile) Result {
	if r := p.RecordFor(m.onto); r != nil {
		return m.MatchRecord(t, r)
	}
	var r profile.Record
	profile.CompileRecord(p, m.onto, &r)
	return m.MatchRecord(t, &r)
}

// MatchRecord evaluates the template against a match record compiled
// against m's ontology. The overall degree is the weakest aspect degree
// (a chain is as strong as its weakest link); the score aggregates
// concept similarities for ranking. Concepts compare by interned ID;
// a pair with an undeclared side keeps string semantics.
func (m *Matcher) MatchRecord(t *profile.Template, r *profile.Record) Result {
	// A template interned against m's ontology carries its concept IDs;
	// a raw one has each resolved when it is compared.
	var catID ontology.ClassID
	var outIDs, inIDs []ontology.ClassID
	if ti := t.InternedFor(m.onto); ti != nil {
		catID, outIDs, inIDs = ti.Category, ti.RequiredOutputs, ti.ProvidedInputs
	} else {
		catID = m.onto.ClassID(t.Category)
	}
	overall := Exact
	simSum, simN := 0.0, 0
	consider := func(d Degree, sim float64) {
		if d < overall {
			overall = d
		}
		simSum += sim
		simN++
	}

	// Category: requested concept vs advertised concept.
	if t.Category != "" {
		d, s := m.evalConcept(t.Category, r.Category, catID, r.CategoryID())
		consider(d, s)
		if d == Fail {
			return Result{Degree: Fail}
		}
	}
	// Outputs: every required output must be served by the best
	// advertised output.
	outs := r.Outputs()
	for i, want := range t.RequiredOutputs {
		wantID := m.conceptID(outIDs, want, i)
		best, sim := Fail, 0.0
		for j, haveID := range outs {
			d, s := m.evalConcept(want, r.OutputIRI(j), wantID, haveID)
			if d > best || (d == best && s > sim) {
				best, sim = d, s
			}
		}
		consider(best, sim)
		if best == Fail {
			return Result{Degree: Fail}
		}
	}
	// Inputs: every advertised input must be satisfiable from what the
	// client provides. Direction is reversed: the client's concept must
	// specialize (or equal) the service's expected input. A template
	// that provides no inputs does not constrain them at all, rather
	// than failing every service that needs input.
	if len(t.ProvidedInputs) > 0 {
		for j, needID := range r.Inputs() {
			best, sim := Fail, 0.0
			for k, have := range t.ProvidedInputs {
				d, s := m.evalConcept(r.InputIRI(j), have, needID, m.conceptID(inIDs, have, k))
				if d > best || (d == best && s > sim) {
					best, sim = d, s
				}
			}
			consider(best, sim)
			if best == Fail {
				return Result{Degree: Fail}
			}
		}
	}
	// QoS thresholds are hard constraints: a missing attribute, or a
	// value that is not at least the floor (NaN on either side never
	// is), fails. Floors and the record's values are both sorted by
	// attribute, so one merge pass finds every attribute, and margins
	// are summed in attribute order: the score does not depend on map
	// iteration order.
	floors := t.QoSFloors()
	qos := r.QoS()
	qosMargin, k := 0.0, 0
	for i := range floors {
		f := &floors[i]
		c := 1
		for ; k < len(qos); k++ {
			if c = qos[k].CompareFloor(f); c >= 0 {
				break
			}
		}
		if c != 0 {
			return Result{Degree: Fail}
		}
		v := qos[k].Value
		if !(v >= f.Min) {
			return Result{Degree: Fail}
		}
		if f.Min > 0 {
			qosMargin += (v - f.Min) / f.Min
		}
	}
	// Coverage: a service with a declared coverage area must cover the
	// requester's position.
	if t.Near != nil && !r.Covers(*t.Near) {
		return Result{Degree: Fail}
	}

	score := 0.0
	if simN > 0 {
		score = simSum / float64(simN)
	} else {
		score = 1 // unconstrained template: everything is a perfect fit
	}
	// QoS margin is a tie-breaker worth at most 0.1.
	if len(floors) > 0 {
		margin := qosMargin / float64(len(floors))
		if margin > 1 {
			margin = 1
		}
		score += margin * 0.1
	}
	return Result{Degree: overall, Score: score}
}

// conceptID returns the ID of a template concept, c at index i of its
// list: from the list's interned IDs when there are any, else resolved.
func (m *Matcher) conceptID(ids []ontology.ClassID, c ontology.Class, i int) ontology.ClassID {
	if ids != nil {
		return ids[i]
	}
	return m.onto.ClassID(c)
}

// evalConcept compares a requested concept against an advertised one
// and returns the degree with, unless it is Fail, their taxonomy
// similarity:
//
//	Exact    advertised == requested
//	PlugIn   advertised ⊑ requested (a Radar when a Sensor was asked for)
//	Subsumed requested ⊑ advertised (a Device when a Sensor was asked for)
//	Fail     otherwise
//
// Declared concepts compare by interned ID. An undeclared concept
// (NoClass) has no ID and similarity 0 to everything, so a pair with
// one compares by IRI: two equal undeclared concepts rate Exact, and
// Thing — always declared — subsumes an undeclared concept (open-world
// lenience). Only an undeclared side's IRI is read.
func (m *Matcher) evalConcept(req, adv ontology.Class, reqID, advID ontology.ClassID) (Degree, float64) {
	if reqID == ontology.NoClass || advID == ontology.NoClass {
		switch {
		case reqID == advID:
			if req == adv {
				return Exact, 0
			}
		case reqID == m.onto.ThingID():
			return PlugIn, 0
		case advID == m.onto.ThingID():
			return Subsumed, 0
		}
		return Fail, 0
	}
	switch {
	case reqID == advID:
		return Exact, 1
	case m.onto.SubsumesID(reqID, advID):
		return PlugIn, m.onto.SimilarityID(reqID, advID)
	case m.onto.SubsumesID(advID, reqID):
		return Subsumed, m.onto.SimilarityID(reqID, advID)
	}
	// A Fail pair's similarity never reaches a Result (Match returns
	// Fail with score 0 unless a better pair replaces it), so it is
	// not computed.
	return Fail, 0
}

// CompareQuality is the single best-first ordering rule over
// (degree, score) pairs: higher degree first, then higher score.
// Returns <0 when a ranks before b, >0 when after, 0 when tied —
// callers append their own deterministic tiebreakers. The registry's
// top-K hit ranking and MergeRank derive their total orders from this
// comparison, so the tiebreak rules cannot drift apart. Degrees
// compare numerically, which also fits the non-semantic description
// models' model-specific degree scales.
func CompareQuality(aDegree uint8, aScore float64, bDegree uint8, bScore float64) int {
	if aDegree != bDegree {
		if aDegree > bDegree {
			return -1
		}
		return 1
	}
	switch {
	case aScore > bScore:
		return -1
	case aScore < bScore:
		return 1
	}
	return 0
}

// Compare orders r against o with the shared CompareQuality rule.
func (r Result) Compare(o Result) int {
	return CompareQuality(uint8(r.Degree), r.Score, uint8(o.Degree), o.Score)
}
