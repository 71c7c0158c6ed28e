package describe

import (
	"fmt"
	"sort"
	"strings"

	"semdisco/internal/codec"
)

// KVDescription is the middle description tier, shaped like a UDDI /
// ebXML registry information model entry: a typed service with named
// string attributes. It can express more than a bare URI but still has
// "no explicit semantics" — attribute comparison is string equality,
// so it cannot find a Radar when a Sensor is requested (§2 of the
// MILCOM paper; experiment E5 measures the resulting recall gap).
type KVDescription struct {
	// ServiceURI identifies this service instance.
	ServiceURI string
	// Name is the businessService-style display name.
	Name string
	// TypeURI is the tModel-style type reference.
	TypeURI string
	// Attrs are categorization/identifier bag entries.
	Attrs map[string]string
	// Addr is the bindingTemplate-style access point.
	Addr string
}

// Kind implements Description.
func (d *KVDescription) Kind() Kind { return KindKV }

// ServiceKey implements Description.
func (d *KVDescription) ServiceKey() string { return d.ServiceURI }

// Endpoint implements Description.
func (d *KVDescription) Endpoint() string { return d.Addr }

// Encode implements Description; attribute order is canonicalized.
func (d *KVDescription) Encode() []byte {
	var w codec.Buffer
	w.String(d.ServiceURI)
	w.String(d.Name)
	w.String(d.TypeURI)
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.String(d.Attrs[k])
	}
	w.String(d.Addr)
	return w.Bytes()
}

// KVQuery is the filled-out partial template of the UDDI find_service
// style: any non-empty field constrains the result.
type KVQuery struct {
	// NamePrefix constrains the service name (case-insensitive prefix,
	// UDDI's default find qualifier).
	NamePrefix string
	// TypeURI, when non-empty, must equal the description's type.
	TypeURI string
	// Attrs must each be present with exactly this value.
	Attrs map[string]string
}

// Kind implements Query.
func (q *KVQuery) Kind() Kind { return KindKV }

// Encode implements Query.
func (q *KVQuery) Encode() []byte {
	var w codec.Buffer
	w.String(q.NamePrefix)
	w.String(q.TypeURI)
	keys := make([]string, 0, len(q.Attrs))
	for k := range q.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.String(q.Attrs[k])
	}
	return w.Bytes()
}

// KVModel implements the UDDI-style key/value template model.
type KVModel struct{}

// Kind implements Model.
func (KVModel) Kind() Kind { return KindKV }

// Name implements Model.
func (KVModel) Name() string { return "kv" }

// DecodeDescription implements Model.
func (KVModel) DecodeDescription(b []byte) (Description, error) {
	r := codec.NewReader(b)
	d := &KVDescription{}
	var err error
	if d.ServiceURI, err = r.String(); err != nil {
		return nil, err
	}
	if d.Name, err = r.String(); err != nil {
		return nil, err
	}
	if d.TypeURI, err = r.String(); err != nil {
		return nil, err
	}
	if d.Attrs, err = decodeAttrs(r); err != nil {
		return nil, err
	}
	if d.Addr, err = r.String(); err != nil {
		return nil, err
	}
	if err := r.Expect("kv description"); err != nil {
		return nil, err
	}
	return d, nil
}

// DecodeQuery implements Model.
func (KVModel) DecodeQuery(b []byte) (Query, error) {
	r := codec.NewReader(b)
	q := &KVQuery{}
	var err error
	if q.NamePrefix, err = r.String(); err != nil {
		return nil, err
	}
	if q.TypeURI, err = r.String(); err != nil {
		return nil, err
	}
	if q.Attrs, err = decodeAttrs(r); err != nil {
		return nil, err
	}
	if err := r.Expect("kv query"); err != nil {
		return nil, err
	}
	return q, nil
}

func decodeAttrs(r *codec.Reader) (map[string]string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("describe: attr count %d exceeds payload", n)
	}
	attrs := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		v, err := r.String()
		if err != nil {
			return nil, err
		}
		attrs[k] = v
	}
	return attrs, nil
}

// Evaluate implements Model: every populated query field must match;
// the score counts how many optional constraints were exercised, so a
// more specific query ranks its hits above a catch-all's.
func (KVModel) Evaluate(q Query, d Description) Evaluation {
	kq, ok1 := q.(*KVQuery)
	kd, ok2 := d.(*KVDescription)
	if !ok1 || !ok2 {
		return Evaluation{}
	}
	constraints, satisfied := 0, 0
	if kq.NamePrefix != "" {
		constraints++
		if strings.HasPrefix(strings.ToLower(kd.Name), strings.ToLower(kq.NamePrefix)) {
			satisfied++
		}
	}
	if kq.TypeURI != "" {
		constraints++
		if normURI(kq.TypeURI) == normURI(kd.TypeURI) {
			satisfied++
		}
	}
	for k, v := range kq.Attrs {
		constraints++
		if kd.Attrs[k] == v {
			satisfied++
		}
	}
	if satisfied != constraints {
		return Evaluation{}
	}
	score := 1.0
	if constraints > 0 {
		score = float64(satisfied) / 8.0
		if score > 1 {
			score = 1
		}
	}
	return Evaluation{Matched: true, Degree: 1, Score: score}
}

// SummaryTokens implements Model.
func (KVModel) SummaryTokens(d Description) []string {
	if kd, ok := d.(*KVDescription); ok && kd.TypeURI != "" {
		return []string{normURI(kd.TypeURI)}
	}
	return nil
}

// QueryTokens implements Model: prunable only when the type is
// constrained; attribute-only queries must visit every registry.
func (KVModel) QueryTokens(q Query) ([]string, bool) {
	kq, ok := q.(*KVQuery)
	if !ok || kq.TypeURI == "" {
		return nil, false
	}
	return []string{normURI(kq.TypeURI)}, true
}

// OutputConceptIDs implements Model: KV descriptions have no outputs.
func (KVModel) OutputConceptIDs(Description) []int32 { return nil }

// OutputGroups implements Model: KV queries constrain no outputs.
func (KVModel) OutputGroups(Query) [][]int32 { return nil }
