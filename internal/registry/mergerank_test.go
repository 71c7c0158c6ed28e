package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

// mergeRankOracle is MergeRank as it stood before it learned to borrow
// resident descriptions: a map per step, a reflective sort, and one
// DecodeDescription per pooled advert. Kept verbatim as the reference
// the new body must equal element for element.
func mergeRankOracle(s *Store, kind describe.Kind, payload []byte, pools [][]wire.Advertisement, opts QueryOptions) ([]wire.Advertisement, error) {
	plan, err := s.plan(kind, payload)
	if err != nil {
		return nil, err
	}
	byID := make(map[uuid.UUID]wire.Advertisement)
	for _, pool := range pools {
		for _, a := range pool {
			if prev, ok := byID[a.ID]; !ok || a.Version > prev.Version {
				byID[a.ID] = a
			}
		}
	}
	ids := make([]uuid.UUID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	// Per service key the highest version stands, then the lowest ID.
	sort.Slice(ids, func(i, j int) bool {
		if a, b := byID[ids[i]].Version, byID[ids[j]].Version; a != b {
			return a > b
		}
		return uuid.Compare(ids[i], ids[j]) < 0
	})

	limit := s.EffectiveLimit(opts)
	top := newTopK(limit)
	seenService := make(map[string]bool)
	for _, id := range ids {
		a := byID[id]
		desc, err := plan.model.DecodeDescription(a.Payload)
		if err != nil {
			continue
		}
		key := desc.ServiceKey()
		if key != "" {
			if seenService[key] {
				continue
			}
			seenService[key] = true
		}
		ev := plan.model.Evaluate(plan.query, desc)
		if !ev.Matched {
			continue
		}
		top.push(&hit{adv: a, key: key, ev: ev})
	}
	hits := top.hits
	sort.Slice(hits, func(i, j int) bool { return hitBefore(&hits[i], &hits[j]) })
	out := make([]wire.Advertisement, len(hits))
	for i, h := range hits {
		out[i] = h.adv
	}
	return out, nil
}

// mergeWorld is a populated store plus what the MergeRank tests draw
// pools and queries from.
type mergeWorld struct {
	s       *Store
	rng     *rand.Rand
	levels  [][]ontology.Class
	pop     []*profile.Profile
	adverts []wire.Advertisement
}

func newMergeWorld(t testing.TB, seed int64, n int) *mergeWorld {
	t.Helper()
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 4, Branching: 3})
	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto))
	w := &mergeWorld{
		s:      New(Options{Models: models, Leases: lease.Policy{Max: time.Hour}, DefaultMaxResults: 7}),
		rng:    rand.New(rand.NewSource(seed)),
		levels: levels,
		pop: workload.GenProfiles(workload.PopulationSpec{
			N: n, Classes: append(append([]ontology.Class{}, levels[3]...), levels[2]...),
			DataClasses: levels[2], Seed: seed, OntologyIRI: onto.IRI,
		}),
	}
	for _, p := range w.pop {
		adv := semAdvertFromProfile(p, time.Hour)
		if _, _, err := w.s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
		w.adverts = append(w.adverts, adv)
	}
	return w
}

// query draws a template: a category from any level, sometimes with a
// required output and a QoS floor, so scores and match sets vary.
func (w *mergeWorld) query() []byte {
	lvl := w.levels[w.rng.Intn(len(w.levels))]
	tmpl := &profile.Template{Category: lvl[w.rng.Intn(len(lvl))]}
	if w.rng.Intn(3) == 0 {
		tmpl.RequiredOutputs = []ontology.Class{w.levels[2][w.rng.Intn(len(w.levels[2]))]}
	}
	if w.rng.Intn(3) == 0 {
		tmpl.MinQoS = map[string]float64{"accuracy": 0.5 + w.rng.Float64()/3}
	}
	return (&describe.SemanticQuery{Template: tmpl}).Encode()
}

func (w *mergeWorld) options() QueryOptions {
	switch w.rng.Intn(4) {
	case 0:
		return QueryOptions{BestOnly: true}
	case 1:
		return QueryOptions{MaxResults: 1 + w.rng.Intn(40)}
	default:
		return QueryOptions{} // the store default
	}
}

// foreignPool is what a remote registry might send: copies of adverts
// this store holds (same bytes, other backing array), the same IDs at
// other versions with other content, adverts this store never saw —
// some describing a service the store knows under another ID — and
// payloads that do not decode.
func (w *mergeWorld) foreignPool(n int) []wire.Advertisement {
	pool := make([]wire.Advertisement, 0, n)
	for len(pool) < n {
		a := wire.CloneAdvert(w.adverts[w.rng.Intn(len(w.adverts))])
		other := w.pop[w.rng.Intn(len(w.pop))]
		switch w.rng.Intn(7) {
		case 0: // a faithful copy
		case 1: // newer elsewhere, and changed
			a.Version += uint64(1 + w.rng.Intn(2))
			a.Payload = other.Encode()
		case 2: // older elsewhere
			a.Version = 0
			a.Payload = other.Encode()
		case 3: // same version, different bytes: first seen must win
			a.Payload = other.Encode()
		case 4: // unknown advert of a known service
			a.ID = gen.New()
		case 5: // unknown advert of an unknown service
			p := other.Clone()
			p.ServiceIRI = fmt.Sprintf("urn:svc:foreign-%d", w.rng.Int())
			a.ID, a.Payload = gen.New(), p.Encode()
		case 6: // corrupt
			a.Payload = a.Payload[:w.rng.Intn(len(a.Payload))]
		}
		pool = append(pool, a)
		if w.rng.Intn(4) == 0 { // the same entry twice in one pool
			pool = append(pool, a)
		}
	}
	return pool
}

func (w *mergeWorld) check(t *testing.T, payload []byte, pools [][]wire.Advertisement, opts QueryOptions) {
	t.Helper()
	got, err := w.s.MergeRank(describe.KindSemantic, payload, pools, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mergeRankOracle(w.s, describe.KindSemantic, payload, pools, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("MergeRank returned %d adverts, the oracle %d (opts %+v, %d pools)", len(got), len(want), opts, len(pools))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("MergeRank result %d of %d is %s/v%d, the oracle's %s/v%d (opts %+v, %d pools)",
				i, len(got), got[i].ID, got[i].Version, want[i].ID, want[i].Version, opts, len(pools))
		}
	}
}

// TestMergeRankMatchesOracle: over four seeds of random populations,
// queries, options and pools, MergeRank returns exactly what its
// predecessor did — including when the store changed under the pool
// between Evaluate and MergeRank.
func TestMergeRankMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		w := newMergeWorld(t, seed, 300)
		borrowed := 0
		for round := 0; round < 150; round++ {
			payload, opts := w.query(), w.options()
			own, err := w.s.Evaluate(describe.KindSemantic, payload, opts, t0)
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range own {
				if w.s.loadResident(describe.KindSemantic, &a, new(held)) {
					borrowed++
				}
			}
			w.check(t, payload, [][]wire.Advertisement{own}, opts)

			pools := [][]wire.Advertisement{own}
			for i := w.rng.Intn(3); i >= 0; i-- {
				pools = append(pools, w.foreignPool(1+w.rng.Intn(30)))
			}
			w.rng.Shuffle(len(pools), func(i, j int) { pools[i], pools[j] = pools[j], pools[i] })
			w.check(t, payload, pools, opts)

			// The store moves on while the pool is in flight: one of the
			// pooled adverts is republished with other content, another
			// withdrawn. The pool still says what it said.
			if len(own) > 0 {
				upd := own[w.rng.Intn(len(own))]
				upd.Version++
				upd.Payload = w.pop[w.rng.Intn(len(w.pop))].Encode()
				// Under another service's key the update is stale when
				// that key's holder has a higher version.
				_, _, err := w.s.Publish(upd, t0)
				if err := publishErr(w.s, upd, err); err != nil {
					t.Fatal(err)
				}
				w.s.Remove(own[w.rng.Intn(len(own))].ID)
				w.check(t, payload, pools, opts)
			}
		}
		if borrowed == 0 {
			t.Fatalf("seed %d: no pooled advert ever resolved to its resident record", seed)
		}
	}
	// Kinds the store has no model for still fail the same way.
	s := newStore(t)
	if _, err := s.MergeRank(describe.Kind(99), nil, nil, QueryOptions{}); err == nil {
		t.Fatal("MergeRank accepted an unknown kind")
	}
}

// TestMergeRankResidentNeedsSameBytes: an advert resolves to the
// store's record only while ID, kind, version and payload all agree.
func TestMergeRankResidentNeedsSameBytes(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r", "Radar", time.Hour)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	if a := wire.CloneAdvert(adv); !s.loadResident(describe.KindSemantic, &a, new(held)) {
		t.Fatal("an equal copy did not resolve to the resident record")
	}
	for name, mutate := range map[string]func(*wire.Advertisement){
		"version": func(a *wire.Advertisement) { a.Version++ },
		"payload": func(a *wire.Advertisement) { a.Payload = semPayload("urn:svc:r", "Camera") },
		"id":      func(a *wire.Advertisement) { a.ID = gen.New() },
	} {
		a := wire.CloneAdvert(adv)
		mutate(&a)
		if s.loadResident(describe.KindSemantic, &a, new(held)) {
			t.Errorf("advert with another %s resolved to the resident record", name)
		}
	}
	if s.loadResident(describe.KindKV, &adv, new(held)) {
		t.Error("advert resolved to a resident record of another kind")
	}
}

// TestMergeRankRacesWrites merges own-evaluation pools while publishes,
// republishes and removes recycle the arena slots under them. MergeRank
// is a function of its arguments alone, so the oracle still applies;
// under -race this also checks the copied resident records.
func TestMergeRankRacesWrites(t *testing.T) {
	w := newMergeWorld(t, 9, 400)
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := w.adverts[rng.Intn(len(w.adverts))]
				if rng.Intn(2) == 0 {
					w.s.Remove(a.ID)
					continue
				}
				a.Version = uint64(2 + rng.Intn(3))
				a.Payload = w.pop[rng.Intn(len(w.pop))].Encode()
				w.s.Publish(a, t0) // stale-version rejects are part of the mix
			}
		}(g)
	}
	for round := 0; round < 300; round++ {
		payload, opts := w.query(), w.options()
		own, err := w.s.Evaluate(describe.KindSemantic, payload, opts, t0)
		if err != nil {
			t.Fatal(err)
		}
		w.check(t, payload, [][]wire.Advertisement{own, w.foreignPool(10)}, opts)
	}
	close(stop)
	writers.Wait()
}

// BenchmarkMergeRankOwnPool is the reply path's call: one pool, this
// store's own ten-advert evaluation. "oracle" is the predecessor.
func BenchmarkMergeRankOwnPool(b *testing.B) {
	w := newMergeWorld(b, 1, 2000)
	payload := (&describe.SemanticQuery{Template: &profile.Template{Category: w.levels[1][0]}}).Encode()
	opts := QueryOptions{MaxResults: 10}
	own, err := w.s.Evaluate(describe.KindSemantic, payload, opts, t0)
	if err != nil || len(own) != 10 {
		b.Fatalf("evaluate: %d adverts, %v", len(own), err)
	}
	pools := [][]wire.Advertisement{own}
	b.Run("resident", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w.s.MergeRank(describe.KindSemantic, payload, pools, opts)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mergeRankOracle(w.s, describe.KindSemantic, payload, pools, opts)
		}
	})
}
