package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// TestConcurrentStoreStress hammers every store entry point from many
// goroutines at once; run under -race it proves the shard locking is
// sound. Each goroutine gets its own UUID generator — the generator is
// not shared-safe and real nodes own theirs.
func TestConcurrentStoreStress(t *testing.T) {
	s := newStore(t)
	const (
		writers = 4
		readers = 4
		rounds  = 200
	)
	categories := []string{"Radar", "Camera", "Sensor", "Device"}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := uuid.NewGenerator(uint64(1000 + w))
			var mine []uuid.UUID
			for i := 0; i < rounds; i++ {
				cat := categories[i%len(categories)]
				p := &profile.Profile{
					ServiceIRI: fmt.Sprintf("urn:svc:w%d-%d", w, i),
					Category:   c(cat),
					Grounding:  "urn:g",
				}
				adv := wire.Advertisement{
					ID: g.New(), Provider: g.New(), ProviderAddr: "x",
					Kind: describe.KindSemantic, Payload: p.Encode(),
					LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
				}
				now := t0.Add(time.Duration(i) * time.Millisecond)
				if _, _, err := s.Publish(adv, now); err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, adv.ID)
				switch i % 5 {
				case 1:
					s.Renew(mine[i/2], now)
				case 2:
					s.Remove(mine[0])
					mine = mine[1:]
				case 3:
					s.ExpireThrough(now.Add(-30 * time.Minute))
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				cat := categories[(rd+i)%len(categories)]
				now := t0.Add(time.Duration(i) * time.Millisecond)
				res, err := s.Evaluate(describe.KindSemantic, semQuery(cat), QueryOptions{MaxResults: 50}, now)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := s.MergeRank(describe.KindSemantic, semQuery(cat),
					[][]wire.Advertisement{res}, QueryOptions{MaxResults: 10}); err != nil {
					t.Error(err)
					return
				}
				s.Summary()
				s.Len()
				s.NextExpiry()
				for _, a := range res {
					s.Has(a.ID)
					s.Advert(a.ID)
				}
			}
		}(rd)
	}
	wg.Wait()

	// The store must still be internally consistent: every advert the
	// indexes serve is present, and Adverts' count matches Len.
	if got := len(s.Adverts()); got != s.Len() {
		t.Fatalf("Adverts() returned %d entries, Len() says %d", got, s.Len())
	}
}

// TestServiceKeyRuleUnderConcurrentPublishes races publishes under a
// few service keys, each a fresh advert ID at a random version, and
// checks the one-rule-per-key outcome: one resident advert per key,
// holding the highest version any publish under that key carried.
func TestServiceKeyRuleUnderConcurrentPublishes(t *testing.T) {
	s := newStore(t)
	const (
		writers = 8
		rounds  = 150
		keys    = 4
	)
	var (
		mu  sync.Mutex
		top [keys]uint64
		wg  sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := uuid.NewGenerator(uint64(2000 + w))
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < rounds; i++ {
				k, v := rng.Intn(keys), uint64(1+rng.Intn(6))
				adv := wire.Advertisement{
					ID: g.New(), Provider: g.New(), ProviderAddr: "x", Kind: describe.KindSemantic,
					Payload:     semPayload(fmt.Sprintf("urn:svc:key%d", k), "Radar"),
					LeaseMillis: uint64(time.Hour / time.Millisecond), Version: v,
				}
				if _, _, err := s.Publish(adv, t0); err != nil && !errors.Is(err, ErrStaleVersion) {
					t.Error(err)
					return
				}
				mu.Lock()
				top[k] = max(top[k], v)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	held := map[string]uint64{}
	for _, a := range s.Adverts() {
		d, err := s.Models().DecodeDescription(a.Kind, a.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := held[d.ServiceKey()]; dup {
			t.Fatalf("two resident adverts for %s", d.ServiceKey())
		}
		held[d.ServiceKey()] = a.Version
	}
	for k, v := range top {
		if got := held[fmt.Sprintf("urn:svc:key%d", k)]; got != v {
			t.Errorf("key %d holds v%d, want the highest published, v%d", k, got, v)
		}
	}
}

// TestConcurrentSubscribeAndPublish races standing-query registration
// against publishes that trigger notifications.
func TestConcurrentSubscribeAndPublish(t *testing.T) {
	s := newStore(t)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := uuid.NewGenerator(uint64(2000 + w))
			for i := 0; i < 100; i++ {
				id, err := s.Subscribe(describe.KindSemantic, semQuery("Radar"), "lan0/sub", g.New(), time.Time{})
				if err != nil {
					t.Error(err)
					return
				}
				p := &profile.Profile{
					ServiceIRI: fmt.Sprintf("urn:svc:sub%d-%d", w, i),
					Category:   c("Radar"), Grounding: "urn:g",
				}
				adv := wire.Advertisement{
					ID: g.New(), Provider: g.New(), ProviderAddr: "x",
					Kind: describe.KindSemantic, Payload: p.Encode(),
					LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
				}
				if _, _, err := s.Publish(adv, t0); err != nil {
					t.Error(err)
					return
				}
				if i%3 == 0 {
					s.Unsubscribe(id)
				}
				s.NumSubscriptions()
				s.PruneSubscriptions(t0)
			}
		}(w)
	}
	wg.Wait()
}

func TestPlanCacheHitsAndEviction(t *testing.T) {
	models := describe.NewRegistry(describe.NewSemanticModel(testOntology(t)))
	s := New(Options{Models: models, PlanCacheSize: 2})

	q1, q2, q3 := semQuery("Radar"), semQuery("Camera"), semQuery("Sensor")
	p1, err := s.plan(describe.KindSemantic, q1)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := s.plan(describe.KindSemantic, q1); again != p1 {
		t.Fatal("repeated payload did not hit the plan cache")
	}
	s.plan(describe.KindSemantic, q2)
	if got := s.plans.size(); got != 2 {
		t.Fatalf("cache holds %d plans, want 2", got)
	}
	// Touch q1 so q2 is least recently used, then q3 evicts q2.
	s.plan(describe.KindSemantic, q1)
	s.plan(describe.KindSemantic, q3)
	if got := s.plans.size(); got != 2 {
		t.Fatalf("cache grew past its cap: %d", got)
	}
	if again, _ := s.plan(describe.KindSemantic, q1); again != p1 {
		t.Fatal("recently used plan was evicted")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	models := describe.NewRegistry(describe.NewSemanticModel(testOntology(t)))
	s := New(Options{Models: models, PlanCacheSize: -1})
	if s.plans != nil {
		t.Fatal("negative PlanCacheSize should disable the cache")
	}
	if _, err := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCacheCollisionIsMiss(t *testing.T) {
	c := newPlanCache(4)
	plan := &queryPlan{}
	h := describe.PayloadHash(describe.KindSemantic, []byte("a"))
	c.put(describe.KindSemantic, []byte("a"), h, plan)
	// Same hash slot, different payload: must miss, not serve plan.
	if got := c.get(describe.KindSemantic, []byte("b"), h); got != nil {
		t.Fatal("colliding payload served a foreign plan")
	}
	if got := c.get(describe.KindKV, []byte("a"), h); got != nil {
		t.Fatal("colliding kind served a foreign plan")
	}
	if got := c.get(describe.KindSemantic, []byte("a"), h); got != plan {
		t.Fatal("exact payload missed")
	}
}
