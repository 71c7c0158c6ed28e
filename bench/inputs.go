package main

import (
	"fmt"
	"math/rand"

	"semdisco/internal/describe"
	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

const (
	hotTemplates = 32
	maxResults   = 10
	leaseMillis  = 10 * 60 * 1000
	// ownPerClient adverts of the set-up population belong to each
	// churn client: its replace ops withdraw them oldest first.
	ownPerClient = 500
)

// inputs is everything a run derives from -seed. The program under
// test receives only these generated adverts and queries.
type inputs struct {
	onto     *ontology.Ontology
	leaves   []ontology.Class
	data     []ontology.Class
	profiles []*profile.Profile
	adverts  []wire.Advertisement
	// hot and cold are encoded semantic queries. hot is far smaller
	// than the registry's plan cache (128) and result cache (256); cold
	// is ~50x larger than both, so its draws run as misses.
	hot  [][]byte
	cold [][]byte
}

func genInputs(seed int64, n int) *inputs {
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	in := &inputs{onto: onto, leaves: levels[5], data: levels[3]}
	in.profiles = workload.GenProfiles(workload.PopulationSpec{
		N: n, Classes: in.leaves, DataClasses: in.data, OntologyIRI: onto.IRI, Seed: seed,
	})
	ids := uuid.NewGenerator(uint64(seed))
	in.adverts = make([]wire.Advertisement, n)
	for i, p := range in.profiles {
		provider := ids.New()
		in.adverts[i] = advertFor(p, ids.New(), provider)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x686f74))
	for _, li := range rng.Perm(len(in.leaves))[:hotTemplates] {
		in.hot = append(in.hot, encodeQuery(&profile.Template{Category: in.leaves[li]}))
	}
	for lvl := 1; lvl <= 4; lvl++ {
		for _, cat := range levels[lvl] {
			for _, out := range in.data {
				for _, acc := range []float64{.5, .6, .7, .8} {
					in.cold = append(in.cold, encodeQuery(&profile.Template{
						Category:        cat,
						RequiredOutputs: []ontology.Class{out},
						MinQoS:          map[string]float64{"accuracy": acc},
					}))
				}
			}
		}
	}
	return in
}

// templates returns the query payloads a workload draws from.
func (in *inputs) templates(wl *workloadDef) [][]byte {
	if wl.cold {
		return in.cold
	}
	return in.hot
}

func advertFor(p *profile.Profile, id, provider uuid.UUID) wire.Advertisement {
	return wire.Advertisement{
		ID:           id,
		Provider:     provider,
		ProviderAddr: p.Grounding,
		Kind:         describe.KindSemantic,
		Payload:      p.Encode(),
		LeaseMillis:  leaseMillis,
		Version:      1,
	}
}

func encodeQuery(t *profile.Template) []byte {
	return (&describe.SemanticQuery{Template: t, MinDegree: match.Subsumed}).Encode()
}

// freshAdvert builds the advert a churn client publishes in a replace
// op: same distribution as the set-up population, with a service key
// no other advert has, so it never supersedes one.
func (in *inputs) freshAdvert(rng *rand.Rand, ids *uuid.Generator, client, seq int) wire.Advertisement {
	cat := in.leaves[rng.Intn(len(in.leaves))]
	p := &profile.Profile{
		ServiceIRI:  fmt.Sprintf("urn:svc:churn-%d-%d", client, seq),
		Name:        fmt.Sprintf("service-c%d-%d", client, seq),
		Text:        "provides replacement data",
		Category:    cat,
		Outputs:     []ontology.Class{in.data[rng.Intn(len(in.data))]},
		QoS:         map[string]float64{"accuracy": 0.5 + rng.Float64()/2},
		Grounding:   fmt.Sprintf("udp://10.1.%d.%d:9000", client, seq%250),
		OntologyIRI: in.onto.IRI,
	}
	return advertFor(p, ids.New(), ids.New())
}
