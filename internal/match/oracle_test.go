package match

import (
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

// OracleMatch is the profile-walking matcher the match record replaced,
// kept as the test oracle for MatchRecord: it reads the profile's own
// fields, resolves every concept's ID per call, looks QoS attributes up
// in the profile's map, and rates a pair with an undeclared side by the
// IRI rules alone. The one change since is the floor rule: a floor
// holds only when the value is at least the floor, so NaN on either
// side fails it.
func OracleMatch(o *ontology.Ontology, t *profile.Template, p *profile.Profile) Result {
	overall := Exact
	simSum, simN := 0.0, 0
	consider := func(d Degree, sim float64) {
		if d < overall {
			overall = d
		}
		simSum += sim
		simN++
	}
	// best rates req against its best counterpart in advs; for inputs
	// the service's need is the requested side.
	best := func(req ontology.Class, advs []ontology.Class) (Degree, float64) {
		bd, bs := Fail, 0.0
		for _, adv := range advs {
			d, s := oracleConcept(o, req, adv)
			if d > bd || (d == bd && s > bs) {
				bd, bs = d, s
			}
		}
		return bd, bs
	}
	if t.Category != "" {
		d, s := oracleConcept(o, t.Category, p.Category)
		consider(d, s)
		if d == Fail {
			return Result{Degree: Fail}
		}
	}
	for _, want := range t.RequiredOutputs {
		d, s := best(want, p.Outputs)
		consider(d, s)
		if d == Fail {
			return Result{Degree: Fail}
		}
	}
	for _, need := range p.Inputs {
		if len(t.ProvidedInputs) == 0 {
			continue
		}
		d, s := best(need, t.ProvidedInputs)
		consider(d, s)
		if d == Fail {
			return Result{Degree: Fail}
		}
	}
	qosMargin := 0.0
	for _, f := range t.QoSFloors() {
		v, ok := p.QoS[f.Attr]
		if !ok || !(v >= f.Min) {
			return Result{Degree: Fail}
		}
		if f.Min > 0 {
			qosMargin += (v - f.Min) / f.Min
		}
	}
	if t.Near != nil && p.Coverage != nil && !p.Coverage.Contains(t.Near.LatDeg, t.Near.LonDeg) {
		return Result{Degree: Fail}
	}
	score := 1.0
	if simN > 0 {
		score = simSum / float64(simN)
	}
	if len(t.MinQoS) > 0 {
		margin := qosMargin / float64(len(t.MinQoS))
		if margin > 1 {
			margin = 1
		}
		score += margin * 0.1
	}
	return Result{Degree: overall, Score: score}
}

// oracleConcept is evalConcept as the profile-walking matcher had it:
// IDs resolved per call, and the IRI rules for a pair with an
// undeclared side tested on the IRIs of both sides.
func oracleConcept(o *ontology.Ontology, req, adv ontology.Class) (Degree, float64) {
	reqID, advID := o.ClassID(req), o.ClassID(adv)
	if reqID == ontology.NoClass || advID == ontology.NoClass {
		switch {
		case req == adv:
			return Exact, 0
		case req == ontology.Thing:
			return PlugIn, 0
		case adv == ontology.Thing:
			return Subsumed, 0
		}
		return Fail, 0
	}
	switch {
	case reqID == advID:
		return Exact, 1
	case o.SubsumesID(reqID, advID):
		return PlugIn, o.SimilarityID(reqID, advID)
	case o.SubsumesID(advID, reqID):
		return Subsumed, o.SimilarityID(reqID, advID)
	}
	return Fail, 0
}
