// Package workload generates the synthetic inputs the experiments run
// on: parameterized ontologies (random taxonomies of configurable depth
// and branching), service populations described over them, query mixes,
// and churn processes — the stand-in for the crisis-management and
// battlefield traces the paper motivates with but does not provide.
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"semdisco/internal/ontology"
	"semdisco/internal/profile"
)

// OntologySpec parameterizes a generated taxonomy.
type OntologySpec struct {
	// NS is the namespace; default "http://semdisco.example/gen#".
	NS string
	// Depth is the number of levels below Thing; default 4.
	Depth int
	// Branching is the children per internal class; default 3.
	Branching int
	// Seed drives naming-independent determinism (reserved; the
	// generator is currently fully structural).
	Seed int64
}

func (s OntologySpec) withDefaults() OntologySpec {
	if s.NS == "" {
		s.NS = "http://semdisco.example/gen#"
	}
	if s.Depth == 0 {
		s.Depth = 4
	}
	if s.Branching == 0 {
		s.Branching = 3
	}
	return s
}

// GenOntology builds a complete Branching-ary taxonomy of the given
// depth. It returns the frozen ontology and the classes by level
// (levels[0] is the single root; levels[Depth-1] the leaves).
func GenOntology(spec OntologySpec) (*ontology.Ontology, [][]ontology.Class) {
	spec = spec.withDefaults()
	o := ontology.New(spec.NS)
	levels := make([][]ontology.Class, spec.Depth)
	root := ontology.Class(spec.NS + "C")
	if err := o.AddClass(root); err != nil {
		panic(err)
	}
	levels[0] = []ontology.Class{root}
	for lvl := 1; lvl < spec.Depth; lvl++ {
		for _, parent := range levels[lvl-1] {
			for b := 0; b < spec.Branching; b++ {
				child := ontology.Class(fmt.Sprintf("%s_%d", parent, b))
				if err := o.AddClass(child, parent); err != nil {
					panic(err)
				}
				levels[lvl] = append(levels[lvl], child)
			}
		}
	}
	o.Freeze()
	return o, levels
}

// PopulationSpec parameterizes a service population.
type PopulationSpec struct {
	// N is the number of services; default 100.
	N int
	// Classes are the categories services are drawn from (uniformly).
	Classes []ontology.Class
	// DataClasses, when non-empty, are the input/output concepts: each
	// service gets 1–2 outputs and 0–1 inputs drawn from this pool,
	// exercising the matchmaker's I/O dimension.
	DataClasses []ontology.Class
	// OntologyIRI stamps each profile.
	OntologyIRI string
	// Seed drives the draws.
	Seed int64
}

// GenProfiles generates a service population. Profiles carry a QoS
// accuracy attribute in [0.5, 1.0) and descriptive text derived from
// the category local name (for keyword baselines).
func GenProfiles(spec PopulationSpec) []*profile.Profile {
	if spec.N == 0 {
		spec.N = 100
	}
	if len(spec.Classes) == 0 {
		panic("workload: empty class pool")
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	out := make([]*profile.Profile, spec.N)
	for i := range out {
		cat := spec.Classes[rng.Intn(len(spec.Classes))]
		p := &profile.Profile{
			ServiceIRI:  fmt.Sprintf("urn:svc:gen-%d", i),
			Name:        fmt.Sprintf("service-%d %s", i, localName(string(cat))),
			Text:        "provides " + strings.ToLower(localName(string(cat))) + " data",
			Category:    cat,
			QoS:         map[string]float64{"accuracy": 0.5 + rng.Float64()/2},
			Grounding:   fmt.Sprintf("udp://10.0.%d.%d:9000", i/250, i%250),
			OntologyIRI: spec.OntologyIRI,
		}
		if len(spec.DataClasses) > 0 {
			nOut := 1 + rng.Intn(2)
			for o := 0; o < nOut; o++ {
				p.Outputs = append(p.Outputs, spec.DataClasses[rng.Intn(len(spec.DataClasses))])
			}
			if rng.Intn(2) == 0 {
				p.Inputs = append(p.Inputs, spec.DataClasses[rng.Intn(len(spec.DataClasses))])
			}
		}
		out[i] = p
	}
	return out
}

func localName(iri string) string {
	for i := len(iri) - 1; i >= 0; i-- {
		if iri[i] == '#' || iri[i] == '/' {
			return iri[i+1:]
		}
	}
	return iri
}

// QueryMix draws query categories: with probability exactShare an
// existing service category (answerable by string matching), otherwise
// an ancestor one or two levels up (answerable only by subsumption).
type QueryMix struct {
	Onto       *ontology.Ontology
	Classes    []ontology.Class
	ExactShare float64
	rng        *rand.Rand
}

// NewQueryMix builds a query generator over the given category pool.
func NewQueryMix(o *ontology.Ontology, classes []ontology.Class, exactShare float64, seed int64) *QueryMix {
	return &QueryMix{Onto: o, Classes: classes, ExactShare: exactShare, rng: rand.New(rand.NewSource(seed))}
}

// Next draws a query category and reports whether it is an exact
// service category (vs. a broader ancestor).
func (m *QueryMix) Next() (ontology.Class, bool) {
	base := m.Classes[m.rng.Intn(len(m.Classes))]
	if m.rng.Float64() < m.ExactShare {
		return base, true
	}
	parents := m.Onto.Parents(base)
	if len(parents) == 0 {
		return base, true
	}
	up := parents[m.rng.Intn(len(parents))]
	if m.rng.Float64() < 0.5 {
		if gp := m.Onto.Parents(up); len(gp) > 0 && gp[0] != ontology.Thing {
			up = gp[0]
		}
	}
	if up == ontology.Thing {
		return base, true
	}
	return up, false
}

// Relevant returns the services whose category the requested category
// subsumes — the ground truth for precision/recall in E5. (Equal
// categories are subsumed reflexively.)
func Relevant(o *ontology.Ontology, requested ontology.Class, population []*profile.Profile) map[string]bool {
	out := make(map[string]bool)
	for _, p := range population {
		if o.Subsumes(requested, p.Category) {
			out[p.ServiceIRI] = true
		}
	}
	return out
}

// Churn is a two-state (up/down) exponential on/off process generator.
type Churn struct {
	// MeanUp and MeanDown are the mean sojourn times.
	MeanUp, MeanDown time.Duration
	rng              *rand.Rand
}

// NewChurn builds a churn process.
func NewChurn(meanUp, meanDown time.Duration, seed int64) *Churn {
	return &Churn{MeanUp: meanUp, MeanDown: meanDown, rng: rand.New(rand.NewSource(seed))}
}

// NextUp draws an up-phase duration (exponential, mean MeanUp).
func (c *Churn) NextUp() time.Duration {
	return time.Duration(c.rng.ExpFloat64() * float64(c.MeanUp))
}

// NextDown draws a down-phase duration.
func (c *Churn) NextDown() time.Duration {
	return time.Duration(c.rng.ExpFloat64() * float64(c.MeanDown))
}

// KeywordMatch is the naive text baseline for E5: every query word must
// appear as a whole token of the profile's name or text
// (case-insensitive). Whole-token comparison matters: substring
// matching would accidentally exploit hierarchical naming schemes and
// overstate what keyword search can do.
func KeywordMatch(queryWords []string, p *profile.Profile) bool {
	if len(queryWords) == 0 {
		return false
	}
	tokens := map[string]bool{}
	for _, tok := range strings.Fields(strings.ToLower(p.Name + " " + p.Text)) {
		tokens[tok] = true
	}
	for _, w := range queryWords {
		if !tokens[strings.ToLower(w)] {
			return false
		}
	}
	return true
}
