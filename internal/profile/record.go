package profile

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"semdisco/internal/codec"
	"semdisco/internal/ontology"
)

// Inline capacities of a Record. A profile with more concepts or QoS
// attributes than these moves all of them to the record's side table,
// so every profile compiles; the common profile (one or two outputs, at
// most one input, one or two QoS attributes) fits inline.
const (
	inlineConcepts = 4
	inlineQoS      = 2
)

// Record is a profile compiled against one ontology for the matcher:
// everything Match reads of a candidate, in one flat value — category,
// input and output class IDs, QoS values sorted by attribute, and the
// coverage circle. A registry keeps it inline in its arena record, so
// evaluating a candidate touches no other heap object. Undeclared
// concepts keep their IRI (in the side table), which is all the
// matcher's string rules need. The record also carries the service
// IRI, grounding and category IRI; one decoded by DecodeRecord keeps
// its payload in Source (see DecodeRecord for where its strings live).
//
// A Record is immutable once built and may be copied by value; copies
// share the side table.
type Record struct {
	onto      *ontology.Ontology
	category  ontology.ClassID
	nIn, nOut int32
	nQoS      int32
	ids       [inlineConcepts]ontology.ClassID // inputs then outputs, while they fit
	qos       [inlineQoS]QoSValue              // by attribute, while they fit
	coverage  Circle
	covered   bool // coverage is declared
	ext       *recordExt

	// ServiceIRI, Grounding and Category are the profile's fields of
	// the same names.
	ServiceIRI string
	Grounding  string
	Category   ontology.Class
	// Source is the encoded profile a record from DecodeRecord was read
	// from, "" for a record compiled from a Profile.
	Source string
}

// recordExt is a record's side table, nil for a common profile.
type recordExt struct {
	concepts []ontology.ClassID // every input then output, once they outgrow Record.ids
	qos      []QoSValue         // every QoS value, once they outgrow Record.qos
	// iris holds concept IRIs by position (inputs, then outputs) from
	// the first undeclared concept with a non-empty IRI on; only the
	// entries of undeclared concepts are ever read.
	iris []ontology.Class
}

// QoSValue is one quality-of-service attribute as a Record holds it.
type QoSValue struct {
	Attr  string
	Value float64
	key   uint64 // attrKey(Attr)
}

// CompareFloor orders the value's attribute against the floor's as
// strings.Compare orders the strings. It reads them only when their
// first eight bytes and lengths cannot decide, so matching a record
// against a template's floors seldom leaves the record's own memory.
func (v *QoSValue) CompareFloor(f *QoSFloor) int {
	return compareAttr(v.key, v.Attr, f.key, f.Attr)
}

// attrKey packs an attribute's first eight bytes big-endian, zero
// padded: keys order as the strings order on those bytes.
func attrKey(s string) uint64 {
	var k uint64
	for i := range 8 {
		k <<= 8
		if i < len(s) {
			k |= uint64(s[i])
		}
	}
	return k
}

func compareAttr(ak uint64, a string, bk uint64, b string) int {
	switch {
	case ak != bk:
		return cmp.Compare(ak, bk)
	case len(a) <= 8 && len(b) <= 8:
		return cmp.Compare(len(a), len(b))
	}
	return strings.Compare(a, b)
}

// CompileRecord builds p's match record against the frozen ontology o
// into r. Its string fields share p's strings.
func CompileRecord(p *Profile, o *ontology.Ontology, r *Record) {
	*r = Record{
		onto:       o,
		category:   o.ClassID(p.Category),
		ServiceIRI: p.ServiceIRI,
		Grounding:  p.Grounding,
		Category:   p.Category,
	}
	for _, c := range p.Inputs {
		r.addConcept(c, o.ClassID(c))
		r.nIn++
	}
	for _, c := range p.Outputs {
		r.addConcept(c, o.ClassID(c))
		r.nOut++
	}
	for k, v := range p.QoS {
		r.addQoS(k, v)
	}
	r.sortQoS()
	if p.Coverage != nil {
		r.coverage, r.covered = *p.Coverage, true
	}
}

// DecodeRecord decodes an encoded profile (Profile.Encode, either
// payload version) straight into its match record against the frozen
// ontology o, without building a Profile. It accepts exactly the
// payloads Decode accepts, and the record equals CompileRecord of what
// Decode returns. The payload is copied once, into r.Source; the
// service IRI, grounding and undeclared IRIs written whole are views of
// it, a declared concept's IRI is the ontology's string, and only an
// undeclared IRI rebuilt from a shared prefix allocates. Name, Text and
// OntologyIRI are skipped.
func DecodeRecord(b []byte, o *ontology.Ontology, r *Record) error {
	src := string(b)
	*r = Record{onto: o, Source: src}
	var rd codec.Reader
	rd.Reset(b)
	v, err := readVersion(&rd)
	if err != nil {
		return err
	}
	ir := newIRIReader(v, len(b))
	if r.ServiceIRI, err = rd.View(src); err != nil {
		return err
	}
	for range 2 { // Name, Text
		if _, err := rd.BytesVar(); err != nil {
			return err
		}
	}
	if r.Category, r.category, err = r.readClass(&rd, &ir, src); err != nil {
		return err
	}
	for _, n := range []*int32{&r.nIn, &r.nOut} {
		count, err := rd.Count()
		if err != nil {
			return err
		}
		for range count {
			c, id, err := r.readClass(&rd, &ir, src)
			if err != nil {
				return err
			}
			r.addConcept(c, id)
			*n++
		}
	}
	nq, err := rd.Uvarint()
	if err != nil {
		return err
	}
	if nq > uint64(rd.Remaining()) {
		return fmt.Errorf("profile: QoS count %d exceeds payload", nq)
	}
	for range nq {
		k, err := rd.View(src)
		if err != nil {
			return err
		}
		val, err := readFinite(&rd, "QoS value")
		if err != nil {
			return err
		}
		r.addQoS(k, val)
	}
	r.sortQoS()
	if r.Grounding, err = rd.View(src); err != nil {
		return err
	}
	if r.covered, err = rd.Bool(); err != nil {
		return err
	}
	if r.covered {
		for _, f := range []*float64{&r.coverage.LatDeg, &r.coverage.LonDeg, &r.coverage.RadiusKm} {
			if *f, err = readFinite(&rd, "coverage"); err != nil {
				return err
			}
		}
	}
	if _, _, err := ir.next(&rd); err != nil { // OntologyIRI
		return err
	}
	return rd.Expect("profile")
}

// readClass reads the next concept IRI and resolves it against the
// record's ontology by its bytes. A declared class's IRI is the
// ontology's string; an undeclared one is a view of src when the
// payload holds it whole, and a fresh string when it was rebuilt.
func (r *Record) readClass(rd *codec.Reader, ir *iriReader, src string) (ontology.Class, ontology.ClassID, error) {
	iri, whole, err := ir.next(rd)
	if err != nil {
		return "", ontology.NoClass, err
	}
	if id := r.onto.ClassIDBytes(iri); id != ontology.NoClass {
		return r.onto.ClassByID(id), id, nil
	}
	if whole {
		end := len(src) - rd.Remaining()
		return ontology.Class(src[end-len(iri) : end]), ontology.NoClass, nil
	}
	return ontology.Class(iri), ontology.NoClass, nil
}

// addConcept appends the next concept, inputs first, then outputs; the
// caller counts it in nIn or nOut afterwards.
func (r *Record) addConcept(iri ontology.Class, id ontology.ClassID) {
	n := int(r.nIn + r.nOut)
	switch e := r.ext; {
	case e != nil && e.concepts != nil:
		e.concepts = append(e.concepts, id)
	case n < inlineConcepts:
		r.ids[n] = id
	default:
		e = r.side()
		e.concepts = append(append(make([]ontology.ClassID, 0, 2*n), r.ids[:]...), id)
		r.ids = [inlineConcepts]ontology.ClassID{}
	}
	switch e := r.ext; {
	case e != nil && e.iris != nil:
		e.iris = append(e.iris, iri)
	case id == ontology.NoClass && iri != "":
		e = r.side()
		e.iris = append(make([]ontology.Class, n, n+1), iri)
	}
}

// addQoS appends one QoS value; sortQoS orders them once all are in.
func (r *Record) addQoS(attr string, v float64) {
	n := int(r.nQoS)
	q := QoSValue{Attr: attr, Value: v, key: attrKey(attr)}
	switch e := r.ext; {
	case e != nil && e.qos != nil:
		e.qos = append(e.qos, q)
	case n < inlineQoS:
		r.qos[n] = q
	default:
		e = r.side()
		e.qos = append(append(make([]QoSValue, 0, 2*n), r.qos[:]...), q)
		r.qos = [inlineQoS]QoSValue{}
	}
	r.nQoS++
}

// sortQoS orders the QoS values by attribute and, like decoding into a
// map, keeps only the last value of a repeated attribute.
func (r *Record) sortQoS() {
	q := r.QoS()
	if len(q) < 2 {
		return
	}
	slices.SortStableFunc(q, func(a, b QoSValue) int { return compareAttr(a.key, a.Attr, b.key, b.Attr) })
	k := 0
	for i := range q {
		if i+1 < len(q) && q[i+1].Attr == q[i].Attr {
			continue
		}
		q[k] = q[i]
		k++
	}
	r.nQoS = int32(k)
	if e := r.ext; e != nil && e.qos != nil {
		e.qos = e.qos[:k]
	}
}

func (r *Record) side() *recordExt {
	if r.ext == nil {
		r.ext = &recordExt{}
	}
	return r.ext
}

// Ontology returns the ontology the record was compiled against.
func (r *Record) Ontology() *ontology.Ontology { return r.onto }

// CategoryID returns the category's class ID, NoClass when undeclared.
func (r *Record) CategoryID() ontology.ClassID { return r.category }

func (r *Record) concepts() []ontology.ClassID {
	if e := r.ext; e != nil && e.concepts != nil {
		return e.concepts
	}
	return r.ids[:r.nIn+r.nOut]
}

// Inputs returns the input class IDs, in profile order.
func (r *Record) Inputs() []ontology.ClassID { return r.concepts()[:r.nIn] }

// Outputs returns the output class IDs, in profile order.
func (r *Record) Outputs() []ontology.ClassID { return r.concepts()[r.nIn:] }

// InputIRI returns input j's IRI when Inputs()[j] is NoClass.
func (r *Record) InputIRI(j int) ontology.Class { return r.iri(j) }

// OutputIRI returns output j's IRI when Outputs()[j] is NoClass.
func (r *Record) OutputIRI(j int) ontology.Class { return r.iri(int(r.nIn) + j) }

func (r *Record) iri(k int) ontology.Class {
	if e := r.ext; e != nil && k < len(e.iris) {
		return e.iris[k]
	}
	return ""
}

// QoS returns the QoS values, sorted by attribute, each attribute once.
func (r *Record) QoS() []QoSValue {
	if e := r.ext; e != nil && e.qos != nil {
		return e.qos
	}
	return r.qos[:r.nQoS]
}

// Covers reports whether the service is useful at the point: it
// declares no coverage, or its coverage contains the point.
func (r *Record) Covers(pt Point) bool {
	return !r.covered || r.coverage.Contains(pt.LatDeg, pt.LonDeg)
}
