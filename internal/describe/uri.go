package describe

import (
	"strings"

	"semdisco/internal/codec"
)

// URIDescription is the lightweight description tier: a service is
// nothing more than a name, an endpoint and a pre-agreed type URI —
// the WS-Discovery / Tactical-Data-Link style the paper wants primitive
// devices to keep using on the same infrastructure.
type URIDescription struct {
	// TypeURI names the pre-agreed service type.
	TypeURI string
	// ServiceURI identifies this service instance.
	ServiceURI string
	// Name is a short display name.
	Name string
	// Addr is the invocation endpoint.
	Addr string
}

// Kind implements Description.
func (d *URIDescription) Kind() Kind { return KindURI }

// ServiceKey implements Description.
func (d *URIDescription) ServiceKey() string { return d.ServiceURI }

// Endpoint implements Description.
func (d *URIDescription) Endpoint() string { return d.Addr }

// Encode implements Description.
func (d *URIDescription) Encode() []byte {
	var w codec.Buffer
	w.String(d.TypeURI)
	w.String(d.ServiceURI)
	w.String(d.Name)
	w.String(d.Addr)
	return w.Bytes()
}

// URIQuery matches services whose TypeURI equals the requested one
// exactly — string matching with no semantics, the behaviour whose
// limitations experiment E5 quantifies.
type URIQuery struct {
	TypeURI string
}

// Kind implements Query.
func (q *URIQuery) Kind() Kind { return KindURI }

// Encode implements Query.
func (q *URIQuery) Encode() []byte {
	var w codec.Buffer
	w.String(q.TypeURI)
	return w.Bytes()
}

// URIModel implements the lightweight URI description model.
type URIModel struct{}

// Kind implements Model.
func (URIModel) Kind() Kind { return KindURI }

// Name implements Model.
func (URIModel) Name() string { return "uri" }

// DecodeDescription implements Model.
func (URIModel) DecodeDescription(b []byte) (Description, error) {
	r := codec.NewReader(b)
	d := &URIDescription{}
	var err error
	if d.TypeURI, err = r.String(); err != nil {
		return nil, err
	}
	if d.ServiceURI, err = r.String(); err != nil {
		return nil, err
	}
	if d.Name, err = r.String(); err != nil {
		return nil, err
	}
	if d.Addr, err = r.String(); err != nil {
		return nil, err
	}
	if err := r.Expect("uri description"); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeQuery implements Model.
func (URIModel) DecodeQuery(b []byte) (Query, error) {
	r := codec.NewReader(b)
	q := &URIQuery{}
	var err error
	if q.TypeURI, err = r.String(); err != nil {
		return nil, err
	}
	if err := r.Expect("uri query"); err != nil {
		return nil, err
	}
	return q, nil
}

// Evaluate implements Model: exact, case-sensitive type equality.
// Trailing slashes are normalized because practice showed both forms of
// type URIs in the wild.
func (URIModel) Evaluate(q Query, d Description) Evaluation {
	uq, ok1 := q.(*URIQuery)
	ud, ok2 := d.(*URIDescription)
	if !ok1 || !ok2 {
		return Evaluation{}
	}
	if normURI(uq.TypeURI) == normURI(ud.TypeURI) {
		return Evaluation{Matched: true, Degree: 1, Score: 1}
	}
	return Evaluation{}
}

func normURI(u string) string { return strings.TrimSuffix(u, "/") }

// SummaryTokens implements Model.
func (URIModel) SummaryTokens(d Description) []string {
	if ud, ok := d.(*URIDescription); ok {
		return []string{normURI(ud.TypeURI)}
	}
	return nil
}

// QueryTokens implements Model: URI queries are always prunable.
func (URIModel) QueryTokens(q Query) ([]string, bool) {
	if uq, ok := q.(*URIQuery); ok {
		return []string{normURI(uq.TypeURI)}, true
	}
	return nil, false
}

// OutputConceptIDs implements Model: URI descriptions have no outputs.
func (URIModel) OutputConceptIDs(Description) []int32 { return nil }

// OutputGroups implements Model: URI queries constrain no outputs.
func (URIModel) OutputGroups(Query) [][]int32 { return nil }
