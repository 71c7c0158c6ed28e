// Package describe implements the paper's pluggable service description
// models and the "next header" dispatch that lets one distribution
// infrastructure carry them all:
//
//	"The infrastructure should support different kinds of service
//	 description mechanisms, ranging from simple (name, id, URI
//	 specifying a pre-agreed service type), to rich (e.g. semantic
//	 descriptions). … Some kind of 'next header' field like in the
//	 Internet Protocol could be present in all registry protocol
//	 messages, allowing nodes to choose the right handling of the
//	 service description payload."  (MILCOM'07, elaborating ICDEW'06 §4.2)
//
// Three models ship in this package: the URI model (WS-Discovery-style
// type matching), the key/value template model (UDDI-style registry
// information model fields), and the semantic model (OWL-S-style
// profiles matched by the internal/match matchmaker). Registries
// dispatch payloads to models by Kind and silently skip kinds they do
// not understand — exactly the filtering behaviour the paper wants for
// constrained nodes.
package describe

import (
	"fmt"
	"sort"
)

// Kind is the "next header" value identifying a description model.
type Kind uint8

// Reserved kinds. Values above KindSemantic are free for extensions.
const (
	// KindInvalid marks an absent or unparseable payload kind.
	KindInvalid Kind = 0
	// KindURI is the lightweight model: a pre-agreed service type URI.
	KindURI Kind = 1
	// KindKV is the UDDI-like model: named attributes and a type URI.
	KindKV Kind = 2
	// KindSemantic is the rich model: an OWL-S-style semantic profile.
	KindSemantic Kind = 3
)

// String names the kind for logs and reports.
func (k Kind) String() string {
	switch k {
	case KindURI:
		return "uri"
	case KindKV:
		return "kv"
	case KindSemantic:
		return "semantic"
	case KindInvalid:
		return "invalid"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Description is one service description under some model.
type Description interface {
	// Kind returns the model's next-header value.
	Kind() Kind
	// ServiceKey identifies the described service (an IRI or URI);
	// two descriptions of the same service share a key.
	ServiceKey() string
	// Endpoint is where the service is invoked once discovered.
	Endpoint() string
	// Encode renders the description payload for the wire.
	Encode() []byte
}

// Query is one service query under some model.
type Query interface {
	// Kind returns the model's next-header value.
	Kind() Kind
	// Encode renders the query payload for the wire.
	Encode() []byte
}

// Evaluation is the outcome of evaluating a query against a
// description: whether it matches, its qualitative degree (model
// specific, larger is better; the semantic model uses match.Degree),
// and a score for ranking within a degree.
type Evaluation struct {
	Matched bool
	Degree  uint8
	Score   float64
}

// Model is one pluggable description scheme.
type Model interface {
	// Kind returns the next-header value the model claims.
	Kind() Kind
	// Name is a short human-readable model name.
	Name() string
	// DecodeDescription parses a description payload.
	DecodeDescription(b []byte) (Description, error)
	// DecodeQuery parses a query payload.
	DecodeQuery(b []byte) (Query, error)
	// Evaluate matches a query against a description of the same kind.
	Evaluate(q Query, d Description) Evaluation
	// SummaryTokens returns the category tokens a registry gossips to
	// peers so they can prune forwarding (§4.9 "send out summary
	// information about the advertisements present in a registry").
	SummaryTokens(d Description) []string
	// QueryTokens returns tokens a description must share at least one
	// of for the query to possibly match; prunable=false means the
	// query cannot be pruned by summaries and must always be forwarded.
	QueryTokens(q Query) (tokens []string, prunable bool)
	// OutputConceptIDs returns the interned concept IDs of the
	// description's declared outputs, distinct and ascending — the keys
	// a registry posts the description under besides its summary
	// tokens. IDs are small non-negative integers (dense per ontology).
	// Nil for models without output concepts.
	OutputConceptIDs(d Description) []int32
	// OutputGroups returns the query's output constraints as concept-ID
	// groups: a description the query matches declares, among its
	// OutputConceptIDs, at least one ID of every group. A required
	// output the model cannot state such a group for contributes none,
	// so nil (no constraint the index can use) is always sound.
	OutputGroups(q Query) [][]int32
}

// ConceptIndexer is an optional Model extension for models grounded in
// a compiled ontology. It exposes the interned concept-ID view of the
// summary-token contract: when QueryConceptIDs reports ok, every
// description (decoded by this model) the query matches has a declared
// concept, and that concept lies in the returned set. The registry uses
// it to post standing queries under integer concept IDs instead of
// expanded token strings — one O(1) bucket probe per publish instead of
// a closure-sized token walk — and to filter output-indexed candidates
// on category without touching the record. Both methods report
// ok=false when the value is undeclared or the query cannot be bounded
// that way (a Thing query); callers must then fall back to the
// string-token domain (QueryTokens/SummaryTokens), which degrades both
// sides of the match symmetrically.
type ConceptIndexer interface {
	// DescriptionConceptID returns the description's declared concept.
	DescriptionConceptID(d Description) (int32, bool)
	// QueryConceptIDs returns every concept ID a matching description
	// may declare (the query category's subsumption closure).
	QueryConceptIDs(q Query) ([]int32, bool)
}

// Registry holds the models a node understands, keyed by Kind.
// It is populated at startup and read-only afterwards, so it is safe
// for concurrent readers.
type Registry struct {
	models map[Kind]Model
}

// NewRegistry returns a model registry containing the given models.
// Registering two models with the same kind is a programming error and
// panics at startup.
func NewRegistry(models ...Model) *Registry {
	r := &Registry{models: make(map[Kind]Model, len(models))}
	for _, m := range models {
		if m.Kind() == KindInvalid {
			panic("describe: model claims KindInvalid")
		}
		if _, dup := r.models[m.Kind()]; dup {
			panic(fmt.Sprintf("describe: duplicate model for kind %v", m.Kind()))
		}
		r.models[m.Kind()] = m
	}
	return r
}

// Model returns the model for the kind; ok is false when the node does
// not understand the kind (the caller then skips the payload, as the
// paper's filtering rule prescribes).
func (r *Registry) Model(k Kind) (Model, bool) {
	m, ok := r.models[k]
	return m, ok
}

// Kinds returns the understood kinds in ascending order.
func (r *Registry) Kinds() []Kind {
	out := make([]Kind, 0, len(r.models))
	for k := range r.models {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// DecodeDescription dispatches payload decoding by kind.
func (r *Registry) DecodeDescription(k Kind, b []byte) (Description, error) {
	m, ok := r.Model(k)
	if !ok {
		return nil, fmt.Errorf("describe: no model for kind %v", k)
	}
	return m.DecodeDescription(b)
}

// DecodeQuery dispatches query decoding by kind.
func (r *Registry) DecodeQuery(k Kind, b []byte) (Query, error) {
	m, ok := r.Model(k)
	if !ok {
		return nil, fmt.Errorf("describe: no model for kind %v", k)
	}
	return m.DecodeQuery(b)
}

// PayloadHash hashes a payload under its kind (FNV-1a, 64-bit) for
// cache keying. Payloads are opaque at this layer, so hashing the raw
// bytes plus the next-header value is the only kind-independent
// identity a registry can use to memoize decode work (query-plan
// caching). Callers must still compare the payload on a hash hit —
// the hash is a cache key, not an identity proof.
func PayloadHash(k Kind, b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	h ^= uint64(k)
	h *= prime64
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h
}
