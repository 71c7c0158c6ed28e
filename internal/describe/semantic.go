package describe

import (
	"slices"

	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

// SemanticDescription wraps a semantic service profile as a pluggable
// description — the rich tier that "allows clients to engage newly
// encountered services, given a shared semantic model, or ontology".
// It is the authoring form a provider builds and encodes; decoding
// yields a SemanticRecord.
type SemanticDescription struct {
	Profile *profile.Profile
}

// Kind implements Description.
func (d *SemanticDescription) Kind() Kind { return KindSemantic }

// ServiceKey implements Description.
func (d *SemanticDescription) ServiceKey() string { return d.Profile.ServiceIRI }

// Endpoint implements Description.
func (d *SemanticDescription) Endpoint() string { return d.Profile.Grounding }

// Encode implements Description.
func (d *SemanticDescription) Encode() []byte { return d.Profile.Encode() }

// SemanticRecord is a decoded semantic description: the payload
// compiled once, when it is decoded, into the flat match record the
// matcher evaluates in place (profile.Record). A registry keeps it by
// value in its arena record. It holds the payload, which Encode returns
// unchanged, and views of it for the service key and grounding; Name,
// Text and OntologyIRI are never decoded.
type SemanticRecord struct {
	profile.Record
}

// Kind implements Description.
func (d *SemanticRecord) Kind() Kind { return KindSemantic }

// ServiceKey implements Description.
func (d *SemanticRecord) ServiceKey() string { return d.ServiceIRI }

// Endpoint implements Description.
func (d *SemanticRecord) Endpoint() string { return d.Grounding }

// Encode implements Description.
func (d *SemanticRecord) Encode() []byte { return []byte(d.Source) }

// SemanticQuery wraps a profile template plus the minimum acceptable
// match degree — the knob a constrained client turns to let the
// registry return only close matches.
type SemanticQuery struct {
	Template *profile.Template
	// MinDegree is the weakest acceptable match degree; Subsumed admits
	// everything related, Exact only identical concepts.
	MinDegree match.Degree
}

// Kind implements Query.
func (q *SemanticQuery) Kind() Kind { return KindSemantic }

// Encode implements Query; the degree travels as a one-byte prefix
// before the template payload.
func (q *SemanticQuery) Encode() []byte {
	return append([]byte{byte(q.MinDegree)}, q.Template.Encode()...)
}

// SemanticModel evaluates semantic queries with the matchmaker over a
// shared ontology. Construct with NewSemanticModel.
type SemanticModel struct {
	onto    *ontology.Ontology
	matcher *match.Matcher
}

// NewSemanticModel returns the semantic description model grounded in
// the given frozen ontology.
func NewSemanticModel(o *ontology.Ontology) *SemanticModel {
	return &SemanticModel{onto: o, matcher: match.New(o)}
}

// Ontology exposes the grounding ontology (registries serve it from
// their artifact repository).
func (m *SemanticModel) Ontology() *ontology.Ontology { return m.onto }

// Kind implements Model.
func (m *SemanticModel) Kind() Kind { return KindSemantic }

// Name implements Model.
func (m *SemanticModel) Name() string { return "semantic" }

// DecodeDescription implements Model: the payload decodes straight
// into a SemanticRecord compiled against the grounding ontology, so the
// registry's evaluate loop compares integer IDs with zero string-map
// lookups and no pointer to chase per candidate.
func (m *SemanticModel) DecodeDescription(b []byte) (Description, error) {
	d := &SemanticRecord{}
	if err := profile.DecodeRecord(b, m.onto, &d.Record); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeQuery implements Model. Like DecodeDescription, the template is
// interned eagerly; with the registry's plan cache, a repeated query
// pays the ID resolution once for its whole cached lifetime.
func (m *SemanticModel) DecodeQuery(b []byte) (Query, error) {
	if len(b) == 0 {
		return nil, errEmptySemanticQuery
	}
	t, err := profile.DecodeTemplate(b[1:])
	if err != nil {
		return nil, err
	}
	t.Intern(m.onto)
	return &SemanticQuery{Template: t, MinDegree: match.Degree(b[0])}, nil
}

var errEmptySemanticQuery = errorString("describe: empty semantic query payload")

type errorString string

func (e errorString) Error() string { return string(e) }

// Evaluate implements Model via the matchmaker. The degree reported in
// the evaluation is the match.Degree so cross-layer reports stay
// meaningful.
func (m *SemanticModel) Evaluate(q Query, d Description) Evaluation {
	sq, ok := q.(*SemanticQuery)
	if !ok {
		return Evaluation{}
	}
	var r match.Result
	switch d := d.(type) {
	case *SemanticRecord:
		rec := &d.Record
		if rec.Ontology() != m.onto {
			if rec = m.record(d); rec == nil {
				return Evaluation{}
			}
		}
		r = m.matcher.MatchRecord(sq.Template, rec)
	case *SemanticDescription:
		r = m.matcher.Match(sq.Template, d.Profile)
	default:
		return Evaluation{}
	}
	if !r.Matches(sq.MinDegree) {
		return Evaluation{}
	}
	return Evaluation{Matched: true, Degree: uint8(r.Degree), Score: r.Score}
}

// record returns the description's match record against m's ontology,
// nil for a description of another model. A record decoded by a model
// over another ontology, or an authoring description not interned
// against this one, is compiled afresh.
func (m *SemanticModel) record(d Description) *profile.Record {
	switch d := d.(type) {
	case *SemanticRecord:
		if d.Ontology() == m.onto {
			return &d.Record
		}
		var r profile.Record
		if profile.DecodeRecord([]byte(d.Source), m.onto, &r) != nil {
			return nil
		}
		return &r
	case *SemanticDescription:
		if r := d.Profile.RecordFor(m.onto); r != nil {
			return r
		}
		r := &profile.Record{}
		profile.CompileRecord(d.Profile, m.onto, r)
		return r
	}
	return nil
}

// SummaryTokens implements Model: the advertised category concept. A
// single token suffices because QueryTokens expands the subsumption
// neighbourhood on the query side, keeping gossiped summaries small —
// important, since summaries travel between registries periodically.
func (m *SemanticModel) SummaryTokens(d Description) []string {
	r := m.record(d)
	if r == nil || r.Category == "" {
		return nil
	}
	return []string{string(r.Category)}
}

// QueryTokens implements Model: every class standing in a subsumption
// relation with the requested category (its ancestors and descendants,
// and Thing). A semantic description can only clear the category aspect
// if its category is in this set, so summary pruning stays sound.
// Queries without a category constraint are not prunable, and neither
// is a Thing query: Thing subsumes every category, undeclared ones
// included, which no token set can name.
func (m *SemanticModel) QueryTokens(q Query) ([]string, bool) {
	sq, ok := q.(*SemanticQuery)
	if !ok || sq.Template.Category == "" || sq.Template.Category == ontology.Thing {
		return nil, false
	}
	cat := sq.Template.Category
	rel := m.related(sq.Template)
	if len(rel) == 0 {
		// Unknown category: only a description advertising the identical
		// (equally unknown) concept, or Thing, which subsumes it, can
		// clear the category aspect.
		return []string{string(cat), string(ontology.Thing)}, true
	}
	tokens := make([]string, len(rel))
	for i, id := range rel {
		tokens[i] = string(m.onto.ClassByID(id))
	}
	return tokens, true
}

// related returns the template's category closure: the one DecodeQuery
// computed when it interned the template, else a fresh one.
func (m *SemanticModel) related(t *profile.Template) []ontology.ClassID {
	if it := t.InternedFor(m.onto); it != nil {
		return it.Related
	}
	return m.onto.RelatedIDs(m.onto.ClassID(t.Category))
}

// DescriptionConceptID implements ConceptIndexer: the interned ID of
// the advertised category. ok=false for an undeclared category, which
// has no ID; the caller then falls back to its string token.
func (m *SemanticModel) DescriptionConceptID(d Description) (int32, bool) {
	r := m.record(d)
	if r == nil || r.CategoryID() == ontology.NoClass {
		return 0, false
	}
	return int32(r.CategoryID()), true
}

// QueryConceptIDs implements ConceptIndexer: the subsumption closure of
// the requested category as interned IDs — the ID-domain counterpart of
// QueryTokens' expansion, from the same closure. A Thing query reports
// ok=false for the reason QueryTokens makes it unprunable: it also
// matches descriptions whose category has no concept ID.
func (m *SemanticModel) QueryConceptIDs(q Query) ([]int32, bool) {
	sq, ok := q.(*SemanticQuery)
	if !ok || sq.Template.Category == "" {
		return nil, false
	}
	it := sq.Template.InternedFor(m.onto)
	if it == nil || it.Category == ontology.NoClass || it.Category == m.onto.ThingID() {
		return nil, false
	}
	return toInt32s(it.Related), true
}

// OutputConceptIDs implements Model: the description's declared output
// concepts. Undeclared outputs have no ID and are left out: the matcher
// rates them Fail against every declared requested output except Thing,
// and neither a Thing nor an undeclared requested output forms a group.
func (m *SemanticModel) OutputConceptIDs(d Description) []int32 {
	r := m.record(d)
	if r == nil {
		return nil
	}
	outs := r.Outputs()
	out := make([]int32, 0, len(outs))
	for _, id := range outs {
		if id != ontology.NoClass {
			out = append(out, int32(id))
		}
	}
	if len(out) == 0 {
		return nil
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// OutputGroups implements Model: one group per declared required output
// R other than Thing, holding RelatedIDs(R). The matcher rates an
// advertised output against R above Fail exactly when it is declared
// and subsumes or is subsumed by R (Thing included), so a matching
// description declares an output in every group. An undeclared R or
// Thing is also served by undeclared outputs, which carry no ID, so
// those contribute no group.
func (m *SemanticModel) OutputGroups(q Query) [][]int32 {
	sq, ok := q.(*SemanticQuery)
	if !ok {
		return nil
	}
	it := sq.Template.InternedFor(m.onto)
	if it == nil {
		return nil
	}
	var groups [][]int32
	for _, r := range it.RequiredOutputs {
		if r == ontology.NoClass || r == m.onto.ThingID() {
			continue
		}
		groups = append(groups, toInt32s(m.onto.RelatedIDs(r)))
	}
	return groups
}

func toInt32s(ids []ontology.ClassID) []int32 {
	out := make([]int32, len(ids))
	for i, id := range ids {
		out[i] = int32(id)
	}
	return out
}
