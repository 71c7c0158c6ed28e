package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

// TestIndexedEvaluateMatchesBruteForce is the soundness property of the
// token index: for random populations and queries, the indexed Evaluate
// returns exactly what a full scan would.
func TestIndexedEvaluateMatchesBruteForce(t *testing.T) {
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 4, Branching: 3})
	classPool := append(append([]string{}, flatten(levels[3])...), flatten(levels[2])...)

	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto))
	s := New(Options{Models: models, Leases: lease.Policy{Max: time.Hour}, DefaultMaxResults: 10_000})

	rng := rand.New(rand.NewSource(7))
	pop := workload.GenProfiles(workload.PopulationSpec{
		N: 150, Classes: toClasses(classPool), Seed: 7, OntologyIRI: onto.IRI,
	})
	for _, p := range pop {
		adv := semAdvertFromProfile(p, time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	// Some token-less adverts (profiles without a category are not
	// produced by the generator; hand-craft via KV without type).
	for i := 0; i < 5; i++ {
		kv := &describe.KVDescription{
			ServiceURI: fmt.Sprintf("urn:svc:kvfree-%d", i),
			Name:       "free attr service",
			Attrs:      map[string]string{"zone": fmt.Sprintf("z%d", i%2)},
			Addr:       "e",
		}
		adv := kvAdvert(kv, time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}

	// Reference: brute-force evaluation over every shard's all-of-kind
	// slice.
	brute := func(kind describe.Kind, payload []byte) map[string]bool {
		model, _ := s.models.Model(kind)
		q, err := model.DecodeQuery(payload)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, sh := range s.shards {
			ki := sh.kinds[kind]
			if ki == nil {
				continue
			}
			for _, st := range ki.all {
				if st.expires.Before(t0) {
					continue
				}
				if model.Evaluate(q, st.description()).Matched {
					out[st.serviceKey()] = true
				}
			}
		}
		return out
	}

	queries := 0
	for trial := 0; trial < 60; trial++ {
		// Alternate semantic (prunable) and KV attribute (unprunable).
		var kind describe.Kind
		var payload []byte
		switch trial % 3 {
		case 0:
			kind = describe.KindSemantic
			cat := classPool[rng.Intn(len(classPool))]
			payload = semQuery2(cat)
		case 1:
			kind = describe.KindKV
			payload = (&describe.KVQuery{Attrs: map[string]string{"zone": "z0"}}).Encode()
		case 2:
			kind = describe.KindKV
			payload = (&describe.KVQuery{TypeURI: "urn:none"}).Encode()
		}
		got, err := s.Evaluate(kind, payload, QueryOptions{MaxResults: 10_000}, t0)
		if err != nil {
			t.Fatal(err)
		}
		gotSet := map[string]bool{}
		for _, a := range got {
			model, _ := s.models.Model(a.Kind)
			d, _ := model.DecodeDescription(a.Payload)
			gotSet[d.ServiceKey()] = true
		}
		want := brute(kind, payload)
		if len(gotSet) != len(want) {
			t.Fatalf("trial %d: indexed %d vs brute %d results", trial, len(gotSet), len(want))
		}
		for k := range want {
			if !gotSet[k] {
				t.Fatalf("trial %d: indexed evaluation missed %s", trial, k)
			}
		}
		queries++
	}
	if queries == 0 {
		t.Fatal("no queries exercised")
	}
}

func TestIndexMaintainedAcrossUpdateAndRemove(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:x", "Radar", time.Hour)
	s.Publish(adv, t0)
	// Update changes the category: the old token bucket must be empty.
	upd := adv
	upd.Version = 2
	upd.Payload = semPayload("urn:svc:x", "Camera")
	if _, _, err := s.Publish(upd, t0); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0)
	if len(res) != 0 {
		t.Fatal("stale token bucket served the pre-update category")
	}
	res, _ = s.Evaluate(describe.KindSemantic, semQuery("Camera"), QueryOptions{}, t0)
	if len(res) != 1 {
		t.Fatal("updated category not indexed")
	}
	s.Remove(upd.ID)
	res, _ = s.Evaluate(describe.KindSemantic, semQuery("Camera"), QueryOptions{}, t0)
	if len(res) != 0 {
		t.Fatal("removed advert still indexed")
	}
	for i, sh := range s.shards {
		if ki := sh.kinds[describe.KindSemantic]; ki != nil && len(ki.byTok) != 0 {
			t.Fatalf("token buckets leaked in shard %d: %v", i, ki.byTok)
		}
	}
}

// --- helpers shared by the index tests ---

func flatten(cs []ontology.Class) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = string(c)
	}
	return out
}

func toClasses(ss []string) []ontology.Class {
	out := make([]ontology.Class, len(ss))
	for i, s := range ss {
		out[i] = ontology.Class(s)
	}
	return out
}

func semAdvertFromProfile(p *profile.Profile, leaseDur time.Duration) wire.Advertisement {
	return wire.Advertisement{
		ID: gen.New(), Provider: gen.New(), ProviderAddr: "x",
		Kind: describe.KindSemantic, Payload: p.Encode(),
		LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1,
	}
}

func kvAdvert(d *describe.KVDescription, leaseDur time.Duration) wire.Advertisement {
	return wire.Advertisement{
		ID: gen.New(), Provider: gen.New(), ProviderAddr: "x",
		Kind: describe.KindKV, Payload: d.Encode(),
		LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1,
	}
}

func semPayload(serviceIRI, category string) []byte {
	return (&profile.Profile{ServiceIRI: serviceIRI, Category: c(category), Grounding: "urn:g"}).Encode()
}

// semQuery2 builds a semantic query for a fully-qualified class IRI.
func semQuery2(classIRI string) []byte {
	q := &describe.SemanticQuery{Template: &profile.Template{Category: ontology.Class(classIRI)}}
	return q.Encode()
}
