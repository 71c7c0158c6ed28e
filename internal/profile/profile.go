// Package profile implements the OWL-S-style semantic service profile
// that the paper's "rich" description tier needs (§4.2): a service is
// described by its category concept, the concepts of its inputs and
// outputs, quality-of-service attributes, and an optional geographic
// coverage area (the paper's example of description content that changes
// frequently in dynamic environments).
//
// A Template is the partial profile a client fills out when querying
// ("Querying for a service is most often accomplished by filling out a
// partial template for the service wanted"). Matching semantics live in
// internal/match; this package defines the data model, its compact
// binary wire encoding, and its RDF rendering.
package profile

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"semdisco/internal/codec"
	"semdisco/internal/ontology"
	"semdisco/internal/rdf"
)

// Profile is a semantic description of one service.
type Profile struct {
	// ServiceIRI uniquely identifies the described service.
	ServiceIRI string
	// Name is a short human-readable service name.
	Name string
	// Text is a free-text description used by keyword baselines.
	Text string
	// Category is the service category concept from the shared ontology.
	Category ontology.Class
	// Inputs are the concepts the service consumes.
	Inputs []ontology.Class
	// Outputs are the concepts the service produces.
	Outputs []ontology.Class
	// QoS holds quality-of-service attributes (latency, accuracy, …),
	// matched with per-attribute minimum thresholds.
	QoS map[string]float64
	// Grounding is the invocation endpoint; discovery establishes
	// contact, invocation then proceeds directly (§1).
	Grounding string
	// Coverage optionally restricts where the service is useful; nil
	// means unrestricted.
	Coverage *Circle
	// OntologyIRI names the ontology the concepts are drawn from, so a
	// client missing it can fetch it from the registry's artifact
	// repository (§4.6).
	OntologyIRI string

	// rec caches the match record for one ontology (see intern.go).
	// Immutable once set; Clone shares it.
	rec *Record
}

// Circle is a geographic coverage area: a center and radius. The flat
// (equirectangular) distance approximation is adequate for the tens-of-
// kilometre coverage areas in the paper's scenarios.
type Circle struct {
	LatDeg, LonDeg float64
	RadiusKm       float64
}

// Contains reports whether the point lies inside the circle.
func (c Circle) Contains(latDeg, lonDeg float64) bool {
	return c.distKm(latDeg, lonDeg) <= c.RadiusKm
}

func (c Circle) distKm(latDeg, lonDeg float64) float64 {
	const kmPerDegLat = 111.32
	dLat := (latDeg - c.LatDeg) * kmPerDegLat
	dLon := (lonDeg - c.LonDeg) * kmPerDegLat * math.Cos(c.LatDeg*math.Pi/180)
	return math.Hypot(dLat, dLon)
}

// Validate checks structural invariants before publishing.
func (p *Profile) Validate() error {
	switch {
	case p.ServiceIRI == "":
		return errors.New("profile: ServiceIRI is required")
	case p.Category == "":
		return errors.New("profile: Category is required")
	case p.Grounding == "":
		return errors.New("profile: Grounding endpoint is required")
	}
	for k, v := range p.QoS {
		if k == "" {
			return errors.New("profile: empty QoS attribute name")
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("profile: QoS %q is not finite", k)
		}
	}
	if p.Coverage != nil && (p.Coverage.RadiusKm < 0 || math.IsNaN(p.Coverage.RadiusKm)) {
		return errors.New("profile: negative coverage radius")
	}
	return nil
}

// Clone returns a deep copy; registries clone stored profiles before
// handing them to callers so stored state cannot be mutated.
func (p *Profile) Clone() *Profile {
	cp := *p
	cp.Inputs = append([]ontology.Class(nil), p.Inputs...)
	cp.Outputs = append([]ontology.Class(nil), p.Outputs...)
	if p.QoS != nil {
		cp.QoS = make(map[string]float64, len(p.QoS))
		for k, v := range p.QoS {
			cp.QoS[k] = v
		}
	}
	if p.Coverage != nil {
		c := *p.Coverage
		cp.Coverage = &c
	}
	return &cp
}

// Encode renders the profile in the compact binary form carried inside
// advertisements (payload version 2: concept IRIs front-coded, see
// iriWriter). Map keys are sorted so encoding is deterministic.
func (p *Profile) Encode() []byte {
	var w codec.Buffer
	var iw iriWriter
	w.Byte(versionFront)
	w.String(p.ServiceIRI)
	w.String(p.Name)
	w.String(p.Text)
	iw.write(&w, string(p.Category))
	for _, cs := range [][]ontology.Class{p.Inputs, p.Outputs} {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			iw.write(&w, string(c))
		}
	}
	writeQoS(&w, p.QoS)
	w.String(p.Grounding)
	if p.Coverage != nil {
		w.Bool(true)
		w.Float64(p.Coverage.LatDeg)
		w.Float64(p.Coverage.LonDeg)
		w.Float64(p.Coverage.RadiusKm)
	} else {
		w.Bool(false)
	}
	iw.write(&w, p.OntologyIRI)
	return w.Bytes()
}

// writeQoS writes a QoS map or MinQoS map in attribute order.
func writeQoS(w *codec.Buffer, qos map[string]float64) {
	keys := make([]string, 0, len(qos))
	for k := range qos {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Uvarint(uint64(len(keys)))
	for _, k := range keys {
		w.String(k)
		w.Float64(qos[k])
	}
}

// Decode parses an encoded profile of either payload version, rejecting
// truncation, trailing garbage, unknown versions, non-finite numbers and
// IRIs that rebuild past the expansion bound.
func Decode(b []byte) (*Profile, error) {
	r := codec.NewReader(b)
	v, err := readVersion(r)
	if err != nil {
		return nil, err
	}
	ir := newIRIReader(v, len(b))
	p := &Profile{}
	if p.ServiceIRI, err = r.String(); err != nil {
		return nil, err
	}
	if p.Name, err = r.String(); err != nil {
		return nil, err
	}
	if p.Text, err = r.String(); err != nil {
		return nil, err
	}
	cat, _, err := ir.next(r)
	if err != nil {
		return nil, err
	}
	p.Category = ontology.Class(cat)
	if p.Inputs, err = readClasses(r, &ir); err != nil {
		return nil, err
	}
	if p.Outputs, err = readClasses(r, &ir); err != nil {
		return nil, err
	}
	if p.QoS, err = readQoS(r); err != nil {
		return nil, err
	}
	if p.Grounding, err = r.String(); err != nil {
		return nil, err
	}
	hasCov, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasCov {
		var c Circle
		for _, f := range []*float64{&c.LatDeg, &c.LonDeg, &c.RadiusKm} {
			if *f, err = readFinite(r, "coverage"); err != nil {
				return nil, err
			}
		}
		p.Coverage = &c
	}
	onto, _, err := ir.next(r)
	if err != nil {
		return nil, err
	}
	p.OntologyIRI = string(onto)
	if err := r.Expect("profile"); err != nil {
		return nil, err
	}
	return p, nil
}

// readClasses reads a count-prefixed list of concept IRIs; nil when
// empty.
func readClasses(r *codec.Reader, ir *iriReader) ([]ontology.Class, error) {
	n, err := r.Count()
	if err != nil || n == 0 {
		return nil, err
	}
	out := make([]ontology.Class, n)
	for i := range out {
		c, _, err := ir.next(r)
		if err != nil {
			return nil, err
		}
		out[i] = ontology.Class(c)
	}
	return out, nil
}

// readQoS reads what writeQoS wrote; nil when empty. A repeated
// attribute keeps its last value.
func readQoS(r *codec.Reader) (map[string]float64, error) {
	nq, err := r.Uvarint()
	if err != nil || nq == 0 {
		return nil, err
	}
	if nq > uint64(r.Remaining()) {
		return nil, fmt.Errorf("profile: QoS count %d exceeds payload", nq)
	}
	qos := make(map[string]float64, nq)
	for range nq {
		k, err := r.String()
		if err != nil {
			return nil, err
		}
		if qos[k], err = readFinite(r, "QoS value"); err != nil {
			return nil, err
		}
	}
	return qos, nil
}

// Vocabulary IRIs for the RDF rendering of profiles (an OWL-S-shaped
// mini vocabulary under the semdisco namespace).
const (
	VocabNS        = "http://semdisco.example/vocab#"
	vocabService   = VocabNS + "Service"
	vocabCategory  = VocabNS + "category"
	vocabInput     = VocabNS + "hasInput"
	vocabOutput    = VocabNS + "hasOutput"
	vocabGrounding = VocabNS + "grounding"
	vocabQoSPrefix = VocabNS + "qos-"
	vocabLat       = VocabNS + "coverageLat"
	vocabLon       = VocabNS + "coverageLon"
	vocabRadius    = VocabNS + "coverageRadiusKm"
	vocabOntology  = VocabNS + "usesOntology"
)

// ToGraph renders the profile as RDF, the form in which semantic
// descriptions would travel in an RDF/XML-era deployment; experiments
// use it to quantify the paper's "semantic advertisements are quite
// large" claim against the binary form.
func (p *Profile) ToGraph() *rdf.Graph {
	g := rdf.NewGraph()
	s := rdf.IRI(p.ServiceIRI)
	g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(rdf.RDFType), O: rdf.IRI(vocabService)})
	if p.Name != "" {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(rdf.RDFSLabel), O: rdf.Literal(p.Name)})
	}
	if p.Text != "" {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(rdf.RDFSComment), O: rdf.Literal(p.Text)})
	}
	g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabCategory), O: rdf.IRI(string(p.Category))})
	for _, in := range p.Inputs {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabInput), O: rdf.IRI(string(in))})
	}
	for _, out := range p.Outputs {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabOutput), O: rdf.IRI(string(out))})
	}
	for k, v := range p.QoS {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabQoSPrefix + k), O: rdf.FloatLiteral(v)})
	}
	g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabGrounding), O: rdf.IRI(p.Grounding)})
	if p.Coverage != nil {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabLat), O: rdf.FloatLiteral(p.Coverage.LatDeg)})
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabLon), O: rdf.FloatLiteral(p.Coverage.LonDeg)})
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabRadius), O: rdf.FloatLiteral(p.Coverage.RadiusKm)})
	}
	if p.OntologyIRI != "" {
		g.MustAdd(rdf.Triple{S: s, P: rdf.IRI(vocabOntology), O: rdf.IRI(p.OntologyIRI)})
	}
	return g
}

// Template is the partial profile a client submits as a query.
// Zero-valued fields are unconstrained.
type Template struct {
	// Category restricts to services whose category is subsumed by it.
	Category ontology.Class
	// RequiredOutputs must each be covered by some service output.
	RequiredOutputs []ontology.Class
	// ProvidedInputs are what the client can supply; every service
	// input must be satisfiable from them.
	ProvidedInputs []ontology.Class
	// MinQoS holds per-attribute minimum thresholds.
	MinQoS map[string]float64
	// Keywords is a fallback text constraint (used by the keyword
	// baseline; the semantic matcher ignores it).
	Keywords []string
	// Near, when non-nil, requires the service coverage (if any) to
	// contain the point.
	Near *Point

	// itn caches interned ClassIDs for one ontology (see intern.go).
	// Immutable once set.
	itn *InternedTemplate
	// floors is MinQoS in attribute order, precomputed by Intern.
	floors []QoSFloor
}

// QoSFloor is one MinQoS threshold.
type QoSFloor struct {
	Attr string
	Min  float64
	key  uint64 // attrKey(Attr)
}

// QoSFloors returns MinQoS sorted by attribute name: the fixed order the
// matcher sums QoS margins in, so a score is the same float however the
// map iterates. Intern precomputes it; a template never interned gets a
// freshly sorted copy per call.
func (t *Template) QoSFloors() []QoSFloor {
	if t.floors != nil || len(t.MinQoS) == 0 {
		return t.floors
	}
	return sortedFloors(t.MinQoS)
}

func sortedFloors(minQoS map[string]float64) []QoSFloor {
	if len(minQoS) == 0 {
		return nil
	}
	out := make([]QoSFloor, 0, len(minQoS))
	for k, v := range minQoS {
		out = append(out, QoSFloor{Attr: k, Min: v, key: attrKey(k)})
	}
	slices.SortFunc(out, func(a, b QoSFloor) int { return strings.Compare(a.Attr, b.Attr) })
	return out
}

// Point is a geographic position.
type Point struct {
	LatDeg, LonDeg float64
}

// Encode renders the template for the wire (payload version 2, like
// Profile.Encode).
func (t *Template) Encode() []byte {
	var w codec.Buffer
	var iw iriWriter
	w.Byte(versionFront)
	iw.write(&w, string(t.Category))
	for _, cs := range [][]ontology.Class{t.RequiredOutputs, t.ProvidedInputs} {
		w.Uvarint(uint64(len(cs)))
		for _, c := range cs {
			iw.write(&w, string(c))
		}
	}
	writeQoS(&w, t.MinQoS)
	w.StringSlice(t.Keywords)
	if t.Near != nil {
		w.Bool(true)
		w.Float64(t.Near.LatDeg)
		w.Float64(t.Near.LonDeg)
	} else {
		w.Bool(false)
	}
	return w.Bytes()
}

// DecodeTemplate parses an encoded template of either payload version,
// with the rules Decode applies to a profile.
func DecodeTemplate(b []byte) (*Template, error) {
	r := codec.NewReader(b)
	v, err := readVersion(r)
	if err != nil {
		return nil, err
	}
	ir := newIRIReader(v, len(b))
	t := &Template{}
	cat, _, err := ir.next(r)
	if err != nil {
		return nil, err
	}
	t.Category = ontology.Class(cat)
	if t.RequiredOutputs, err = readClasses(r, &ir); err != nil {
		return nil, err
	}
	if t.ProvidedInputs, err = readClasses(r, &ir); err != nil {
		return nil, err
	}
	if t.MinQoS, err = readQoS(r); err != nil {
		return nil, err
	}
	if t.Keywords, err = r.StringSlice(); err != nil {
		return nil, err
	}
	hasNear, err := r.Bool()
	if err != nil {
		return nil, err
	}
	if hasNear {
		var pt Point
		for _, f := range []*float64{&pt.LatDeg, &pt.LonDeg} {
			if *f, err = readFinite(r, "Near"); err != nil {
				return nil, err
			}
		}
		t.Near = &pt
	}
	if err := r.Expect("template"); err != nil {
		return nil, err
	}
	return t, nil
}
