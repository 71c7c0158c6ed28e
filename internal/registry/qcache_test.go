package registry

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// evalMust runs Evaluate and fails the test on error.
func evalMust(t *testing.T, s *Store, payload []byte, opts QueryOptions, now time.Time) []wire.Advertisement {
	t.Helper()
	out, err := s.Evaluate(describe.KindSemantic, payload, opts, now)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestQueryCacheHitServesEqualResults(t *testing.T) {
	s := newStore(t)
	if s.qcache == nil {
		t.Fatal("query cache should default on")
	}
	for i := 0; i < 3; i++ {
		adv := semAdvert(fmt.Sprintf("urn:svc:r%d", i), "Radar", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	q := semQuery("Sensor")
	hits0 := mQCacheHits.Load()
	first := evalMust(t, s, q, QueryOptions{}, t0)
	if got := s.qcache.size(); got != 1 {
		t.Fatalf("cache size after fill = %d, want 1", got)
	}
	second := evalMust(t, s, q, QueryOptions{}, t0.Add(time.Second))
	if mQCacheHits.Load() != hits0+1 {
		t.Fatalf("expected exactly one cache hit, got %d", mQCacheHits.Load()-hits0)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("cached result differs from live result:\n%v\n%v", first, second)
	}
	// Served copies must not alias resident cache state.
	second[0].Version = 999
	third := evalMust(t, s, q, QueryOptions{}, t0.Add(2*time.Second))
	if third[0].Version == 999 {
		t.Fatal("mutating a served result leaked into the cache")
	}
}

func TestQueryCacheInvalidationOnMutation(t *testing.T) {
	s := newStore(t)
	a1 := semAdvert("urn:svc:r1", "Radar", time.Hour)
	if _, _, err := s.Publish(a1, t0); err != nil {
		t.Fatal(err)
	}
	q := semQuery("Sensor")
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 1 {
		t.Fatalf("got %d results, want 1", len(got))
	}

	// Publish must invalidate: the second identical query sees the new
	// advert.
	a2 := semAdvert("urn:svc:c1", "Camera", time.Hour)
	if _, _, err := s.Publish(a2, t0); err != nil {
		t.Fatal(err)
	}
	inval0 := mQCacheInvalidations.Load()
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 2 {
		t.Fatalf("after publish: got %d results, want 2", len(got))
	}
	if mQCacheInvalidations.Load() != inval0+1 {
		t.Fatal("publish did not invalidate the cached result")
	}

	// Remove must invalidate.
	if !s.Remove(a1.ID) {
		t.Fatal("remove failed")
	}
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 1 {
		t.Fatal("after remove: stale cached result served")
	}

	// Lease expiry purge must invalidate.
	short := semAdvert("urn:svc:r2", "Radar", 2*time.Second)
	if _, _, err := s.Publish(short, t0); err != nil {
		t.Fatal(err)
	}
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 2 {
		t.Fatal("setup: expected 2 results")
	}
	s.ExpireThrough(t0.Add(3 * time.Second))
	if got := evalMust(t, s, q, QueryOptions{}, t0.Add(3*time.Second)); len(got) != 1 {
		t.Fatal("after expiry purge: stale cached result served")
	}
}

// TestQueryCacheLeaseHorizon is the subtle exactness case: an advert's
// lease lapses but no purge sweep has run, so no shard generation
// moved. The live path filters it at collect time; a cached result must
// notice via its lease-deadline stamp and refuse to serve.
func TestQueryCacheLeaseHorizon(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", 2*time.Second)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	q := semQuery("Radar")
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 1 {
		t.Fatal("setup: expected 1 result")
	}
	// Within the lease: cached result still exact.
	if got := evalMust(t, s, q, QueryOptions{}, t0.Add(time.Second)); len(got) != 1 {
		t.Fatal("mid-lease: expected 1 result")
	}
	// Past the lease, no purge has run: must not serve the cached hit.
	if got := evalMust(t, s, q, QueryOptions{}, t0.Add(3*time.Second)); len(got) != 0 {
		t.Fatal("expired-but-unpurged advert served from cache")
	}
}

// TestQueryCacheRenewResurrection: a renew landing after the lease
// lapsed (but before the purge) brings the advert back into results, so
// it must invalidate cached (empty) results like a publish would.
func TestQueryCacheRenewResurrection(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", 2*time.Second)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	q := semQuery("Radar")
	late := t0.Add(3 * time.Second)
	// Fill the cache with the (empty) post-expiry result.
	if got := evalMust(t, s, q, QueryOptions{}, late); len(got) != 0 {
		t.Fatal("setup: expected no results past the lease")
	}
	if _, ok := s.Renew(adv.ID, late); !ok {
		t.Fatal("renew of unpurged advert should succeed")
	}
	if got := evalMust(t, s, q, QueryOptions{}, late); len(got) != 1 {
		t.Fatal("resurrected advert missing: renew did not invalidate the cache")
	}
}

// TestQueryCacheOptionAliasing: BestOnly and MaxResults=1 have the same
// effective limit but must not share a cache entry, while MaxResults=0
// and an explicit MaxResults equal to the store default must.
func TestQueryCacheOptionAliasing(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 3; i++ {
		adv := semAdvert(fmt.Sprintf("urn:svc:r%d", i), "Radar", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	q := semQuery("Sensor")
	if got := evalMust(t, s, q, QueryOptions{MaxResults: 1}, t0); len(got) != 1 {
		t.Fatalf("MaxResults=1: got %d", len(got))
	}
	if got := evalMust(t, s, q, QueryOptions{BestOnly: true}, t0); len(got) != 1 {
		t.Fatalf("BestOnly: got %d", len(got))
	}
	if got := s.qcache.size(); got != 2 {
		t.Fatalf("BestOnly aliased MaxResults=1: cache size %d, want 2", got)
	}
	if got := evalMust(t, s, q, QueryOptions{MaxResults: 2}, t0); len(got) != 2 {
		t.Fatalf("MaxResults=2: got %d", len(got))
	}
	if got := s.qcache.size(); got != 3 {
		t.Fatalf("cache size %d, want 3", got)
	}
	// Default and explicit-default collapse to one entry.
	if got := evalMust(t, s, q, QueryOptions{}, t0); len(got) != 3 {
		t.Fatalf("default: got %d", len(got))
	}
	if got := evalMust(t, s, q, QueryOptions{MaxResults: s.EffectiveLimit(QueryOptions{})}, t0); len(got) != 3 {
		t.Fatalf("explicit default: got %d", len(got))
	}
	if got := s.qcache.size(); got != 4 {
		t.Fatalf("explicit default did not share the default entry: size %d, want 4", got)
	}
}

func TestQueryCacheNoCacheBypass(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", time.Hour)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	q := semQuery("Radar")
	if got := evalMust(t, s, q, QueryOptions{NoCache: true}, t0); len(got) != 1 {
		t.Fatal("NoCache evaluation failed")
	}
	if got := s.qcache.size(); got != 0 {
		t.Fatalf("NoCache filled the cache: size %d", got)
	}
	// Fill normally, then NoCache must not serve the entry: prove it by
	// poisoning the resident copy (whitebox) and checking NoCache does
	// not see the poison while a cached read would.
	evalMust(t, s, q, QueryOptions{}, t0)
	s.qcache.mu.Lock()
	key := qkey{hash: describe.PayloadHash(describe.KindSemantic, q), kind: describe.KindSemantic, limit: s.EffectiveLimit(QueryOptions{})}
	e, ok := s.qcache.lru.Get(key)
	if !ok {
		t.Fatal("cached fill is not resident")
	}
	e.adverts[0].Version = 999
	s.qcache.mu.Unlock()
	if got := evalMust(t, s, q, QueryOptions{NoCache: true}, t0); got[0].Version == 999 {
		t.Fatal("NoCache query served the cached entry")
	}
	if got := evalMust(t, s, q, QueryOptions{}, t0); got[0].Version != 999 {
		t.Fatal("expected the poisoned cached entry on the cached path (test invariant)")
	}
}

func TestQueryCacheDisabled(t *testing.T) {
	models := describe.NewRegistry(describe.NewSemanticModel(testOntology(t)))
	s := New(Options{Models: models, QueryCacheSize: -1})
	if s.qcache != nil {
		t.Fatal("negative QueryCacheSize should disable the cache")
	}
	adv := semAdvert("urn:svc:r1", "Radar", time.Hour)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	if got := evalMust(t, s, semQuery("Radar"), QueryOptions{}, t0); len(got) != 1 {
		t.Fatal("cache-off evaluation failed")
	}
}

// TestQueryCachePropertyRandomized is the acceptance property test:
// identical randomized interleavings of publish/remove/renew/expiry and
// queries run against a cached store and a cache-off store; every query
// must return byte-identical result sets. Mutations between identical
// queries must always surface in the next answer.
func TestQueryCachePropertyRandomized(t *testing.T) {
	mk := func(size int) *Store {
		models := describe.NewRegistry(describe.NewSemanticModel(testOntology(t)))
		return New(Options{
			Models:         models,
			QueryCacheSize: size,
			Leases:         lease.Policy{Min: time.Second, Max: time.Hour, Default: 30 * time.Second},
		})
	}
	categories := []string{"Radar", "Camera", "Sensor", "Device", "Track"}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cached, plain := mk(32), mk(-1)
		g := uuid.NewGenerator(uint64(7000 + seed))
		now := t0
		var live []wire.Advertisement
		for step := 0; step < 500; step++ {
			now = now.Add(time.Duration(rng.Intn(500)) * time.Millisecond)
			switch op := rng.Intn(10); {
			case op < 3: // publish
				cat := categories[rng.Intn(len(categories))]
				leaseDur := time.Duration(1+rng.Intn(5)) * time.Second
				adv := semAdvert(fmt.Sprintf("urn:svc:s%d-%d", seed, step), cat, leaseDur)
				adv.ID = g.New()
				if _, _, err := cached.Publish(adv, now); err != nil {
					t.Fatal(err)
				}
				if _, _, err := plain.Publish(adv, now); err != nil {
					t.Fatal(err)
				}
				live = append(live, adv)
			case op == 3 && len(live) > 0: // remove
				i := rng.Intn(len(live))
				cached.Remove(live[i].ID)
				plain.Remove(live[i].ID)
				live = append(live[:i], live[i+1:]...)
			case op == 4 && len(live) > 0: // renew (may resurrect)
				i := rng.Intn(len(live))
				cached.Renew(live[i].ID, now)
				plain.Renew(live[i].ID, now)
			case op == 5: // purge sweep
				cached.ExpireThrough(now)
				plain.ExpireThrough(now)
			default: // query with random options
				q := semQuery(categories[rng.Intn(len(categories))])
				opts := QueryOptions{}
				switch rng.Intn(3) {
				case 1:
					opts.MaxResults = 1 + rng.Intn(4)
				case 2:
					opts.BestOnly = true
				}
				got, err := cached.Evaluate(describe.KindSemantic, q, opts, now)
				if err != nil {
					t.Fatal(err)
				}
				want, err := plain.Evaluate(describe.KindSemantic, q, opts, now)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: cached result diverged\ncached: %v\nlive:   %v",
						seed, step, got, want)
				}
			}
		}
	}
}

// TestQueryCacheSingleflightConcurrent hammers identical queries from
// many goroutines while a writer churns the store; under -race it
// proves the singleflight group and validation are sound, and every
// result must be one the store could legally have returned.
func TestQueryCacheSingleflightConcurrent(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 8; i++ {
		adv := semAdvert(fmt.Sprintf("urn:svc:r%d", i), "Radar", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	q := semQuery("Sensor")
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // churn writer
		defer wg.Done()
		g := uuid.NewGenerator(4242)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			adv := semAdvert(fmt.Sprintf("urn:svc:x%d", i), "Camera", time.Hour)
			adv.ID = g.New()
			s.Publish(adv, t0)
			s.Remove(adv.ID)
			i++
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				out, err := s.Evaluate(describe.KindSemantic, q, QueryOptions{MaxResults: 10}, t0)
				if err != nil {
					t.Error(err)
					return
				}
				if len(out) < 8 || len(out) > 10 {
					t.Errorf("implausible result count %d", len(out))
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestServiceKeyRepublishRace is the regression test for the
// dropServiceKey window: Remove used to clear the service-key mapping
// after releasing the shard lock, so a re-publish racing the removal
// could have its fresh mapping deleted. With the sequence-tagged
// compare-and-delete, whenever the advert survives (republish won) its
// mapping must survive too. Run under -race.
func TestServiceKeyRepublishRace(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 300; i++ {
		adv := semAdvert("urn:svc:race", "Radar", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
		key := "urn:svc:race"
		repub := adv
		repub.Version = 2
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			s.Remove(adv.ID)
		}()
		go func() {
			defer wg.Done()
			s.Publish(repub, t0)
		}()
		wg.Wait()
		s.svcMu.Lock()
		e, mapped := s.byService[key]
		s.svcMu.Unlock()
		if s.Has(adv.ID) && (!mapped || e.id != adv.ID) {
			t.Fatalf("iteration %d: advert survived but its service-key mapping was dropped", i)
		}
		// Reset for the next round.
		s.Remove(adv.ID)
		s.svcMu.Lock()
		delete(s.byService, key)
		s.svcMu.Unlock()
	}
}
