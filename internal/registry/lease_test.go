package registry

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// leaseModel is the reference for TestLeasesMatchModel: the resident
// adverts with their deadlines, and the service-key map, under the
// admission rules Publish documents (§4.8 leases, §4.10 versioned
// updates, service-key supersede).
type leaseModel struct {
	policy   lease.Policy
	resident map[uuid.UUID]*modelAdvert
	bySvc    map[string]uuid.UUID
}

type modelAdvert struct {
	adv      wire.Advertisement
	key      string
	deadline time.Time
}

func (m *leaseModel) grant(adv wire.Advertisement, now time.Time) time.Time {
	return now.Add(m.policy.Clamp(time.Duration(adv.LeaseMillis) * time.Millisecond))
}

// publish applies one publish and returns whether it is rejected as
// stale.
func (m *leaseModel) publish(adv wire.Advertisement, key string, now time.Time) (stale bool) {
	old, had := m.resident[adv.ID]
	if had {
		if adv.Version < old.adv.Version {
			return true
		}
		if sameAdvert(old.adv, adv) && m.bySvc[key] == adv.ID {
			old.deadline = m.grant(adv, now) // a renewal
			return false
		}
	}
	// One rule per service key: a lower version than the key's holder
	// is stale.
	if h, ok := m.resident[m.bySvc[key]]; ok && m.bySvc[key] != adv.ID && adv.Version < h.adv.Version {
		return true
	}
	if had {
		delete(m.resident, adv.ID) // the service-key mapping stays
	}
	m.resident[adv.ID] = &modelAdvert{adv: adv, key: key, deadline: m.grant(adv, now)}
	prev, had := m.bySvc[key]
	m.bySvc[key] = adv.ID
	if p, ok := m.resident[prev]; had && prev != adv.ID && ok && adv.Version >= p.adv.Version {
		delete(m.resident, prev) // superseded
	}
	return false
}

func (m *leaseModel) renew(id uuid.UUID, now time.Time) (time.Duration, bool) {
	a, ok := m.resident[id]
	if !ok {
		return 0, false
	}
	a.deadline = m.grant(a.adv, now)
	return m.policy.Clamp(time.Duration(a.adv.LeaseMillis) * time.Millisecond), true
}

func (m *leaseModel) drop(id uuid.UUID) bool {
	a, ok := m.resident[id]
	if !ok {
		return false
	}
	delete(m.resident, id)
	if m.bySvc[a.key] == id {
		delete(m.bySvc, a.key)
	}
	return true
}

// lapsed lists the resident adverts whose deadline is at or before now.
func (m *leaseModel) lapsed(now time.Time) map[uuid.UUID]bool {
	out := map[uuid.UUID]bool{}
	for id, a := range m.resident {
		if !a.deadline.After(now) {
			out[id] = true
		}
	}
	return out
}

// checkExpiryHeaps verifies every shard's expiry heap: the heap
// property, heapIdx equal to each record's position, the cached next
// deadline equal to the root, and exactly the records in adverts.
func checkExpiryHeaps(s *Store) error {
	for i, sh := range s.shards {
		sh.mu.RLock()
		err := func() error {
			if len(sh.expiry) != len(sh.adverts) {
				return fmt.Errorf("shard %d: heap holds %d records, adverts %d", i, len(sh.expiry), len(sh.adverts))
			}
			seen := map[*stored]bool{}
			for j, st := range sh.expiry {
				if int(st.heapIdx) != j {
					return fmt.Errorf("shard %d: record at %d has heapIdx %d", i, j, st.heapIdx)
				}
				if j > 0 && sh.expiry.Less(j, (j-1)/2) {
					return fmt.Errorf("shard %d: heap property broken at %d", i, j)
				}
				if seen[st] || sh.adverts[st.advert.ID] != st {
					return fmt.Errorf("shard %d: heap entry %d (%v) is not a distinct resident record", i, j, st.advert.ID)
				}
				seen[st] = true
			}
			next := sh.nextDeadline.Load()
			switch {
			case len(sh.expiry) == 0 && next != nil:
				return fmt.Errorf("shard %d: empty heap caches deadline %v", i, *next)
			case len(sh.expiry) > 0 && (next == nil || !next.Equal(sh.expiry[0].expires)):
				return fmt.Errorf("shard %d: cached deadline %v, root %v", i, next, sh.expiry[0].expires)
			}
			return nil
		}()
		sh.mu.RUnlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// TestLeasesMatchModel is the seeded property test of the lease
// mechanism: publish, versioned update, identical re-publish, renew,
// remove, service-key supersede and ExpireThrough, interleaved over a
// moving clock, against a model of deadlines. After every step the
// store must report the model's deadlines, sweep exactly the lapsed
// set, and keep each shard's expiry heap well formed and in step with
// its ID map.
func TestLeasesMatchModel(t *testing.T) {
	policy := lease.Policy{Min: time.Second, Max: time.Minute, Default: 10 * time.Second}
	leases := []time.Duration{0, 500 * time.Millisecond, time.Second, 3 * time.Second, 7 * time.Second, 20 * time.Second, time.Hour}
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ids := uuid.NewGenerator(uint64(seed))
			s := setSlabSize(New(Options{Models: describe.NewRegistry(describe.KVModel{}), Leases: policy, Shards: 4}), 8)
			m := &leaseModel{policy: policy, resident: map[uuid.UUID]*modelAdvert{}, bySvc: map[string]uuid.UUID{}}
			var known []uuid.UUID // every ID ever published, resident or not
			keys := map[uuid.UUID]string{}
			last := map[uuid.UUID]wire.Advertisement{}
			advert := func(id uuid.UUID, key string, version uint64) wire.Advertisement {
				d := &describe.KVDescription{ServiceURI: key, Name: fmt.Sprint("v", version, "-", rng.Intn(2)), Addr: "e"}
				return wire.Advertisement{ID: id, Kind: describe.KindKV, Payload: d.Encode(),
					LeaseMillis: uint64(leases[rng.Intn(len(leases))] / time.Millisecond), Version: version}
			}
			pick := func() uuid.UUID {
				if len(known) == 0 || rng.Intn(10) == 0 {
					return ids.New() // never published
				}
				return known[rng.Intn(len(known))]
			}
			now := t0
			var counts [7]int
			for step := 0; step < 1500; step++ {
				if rng.Intn(3) == 0 {
					now = now.Add(time.Duration(rng.Intn(4000)) * time.Millisecond)
				}
				op := rng.Intn(7)
				var adv wire.Advertisement
				switch op {
				case 0: // publish a fresh ID, possibly superseding its key's holder
					id := ids.New()
					keys[id] = fmt.Sprint("urn:svc:", rng.Intn(12))
					known = append(known, id)
					adv = advert(id, keys[id], uint64(1+rng.Intn(3)))
				case 1: // versioned update (or a stale one) of a known ID
					id := pick()
					prev, ok := last[id]
					if !ok {
						continue
					}
					v := prev.Version + 1
					if rng.Intn(5) == 0 && v > 2 {
						v -= 2
					}
					adv = advert(id, keys[id], v)
				case 2: // identical re-publish
					var ok bool
					if adv, ok = last[pick()]; !ok {
						continue
					}
				case 3:
					id := pick()
					wantG, wantOK := m.renew(id, now)
					if g, ok := s.Renew(id, now); ok != wantOK || g != wantG {
						t.Fatalf("step %d: Renew(%v) = (%v, %v), want (%v, %v)", step, id, g, ok, wantG, wantOK)
					}
				case 4:
					id := pick()
					if want, got := m.drop(id), s.Remove(id); got != want {
						t.Fatalf("step %d: Remove(%v) = %v, want %v", step, id, got, want)
					}
				case 5, 6: // sweeps, twice as likely as each other op
					want := m.lapsed(now)
					got := s.ExpireThrough(now)
					if len(got) != len(want) {
						t.Fatalf("step %d: ExpireThrough swept %d adverts, want %d", step, len(got), len(want))
					}
					for _, a := range got {
						if !want[a.ID] {
							t.Fatalf("step %d: ExpireThrough swept %v, not lapsed", step, a.ID)
						}
						delete(want, a.ID)
						m.drop(a.ID)
					}
				}
				if op <= 2 {
					stale := m.publish(adv, keys[adv.ID], now)
					if _, _, err := s.Publish(adv, now); stale != errors.Is(err, ErrStaleVersion) || (!stale && err != nil) {
						t.Fatalf("step %d: Publish(%v v%d) err = %v, want stale=%v", step, adv.ID, adv.Version, err, stale)
					}
					if !stale {
						last[adv.ID] = adv
					}
				}
				counts[op]++

				if s.Len() != len(m.resident) {
					t.Fatalf("step %d: Len = %d, model %d", step, s.Len(), len(m.resident))
				}
				var next time.Time
				for _, id := range known {
					a, ok := m.resident[id]
					dl, has := s.LeaseDeadline(id)
					if has != ok || (ok && !dl.Equal(a.deadline)) {
						t.Fatalf("step %d: LeaseDeadline(%v) = (%v, %v), model (%v)", step, id, dl, has, a)
					}
					if ok && (next.IsZero() || a.deadline.Before(next)) {
						next = a.deadline
					}
				}
				if got, ok := s.NextExpiry(); ok != (len(m.resident) > 0) || (ok && !got.Equal(next)) {
					t.Fatalf("step %d: NextExpiry = (%v, %v), model %v", step, got, ok, next)
				}
				if err := checkExpiryHeaps(s); err != nil {
					t.Fatalf("step %d (op %d): %v", step, op, err)
				}
			}
			for op, n := range counts {
				if n < 100 {
					t.Fatalf("degenerate run: op %d ran %d times", op, n)
				}
			}
			// Draining leaves every heap and ID map empty.
			s.ExpireThrough(now.Add(time.Hour))
			if err := checkExpiryHeaps(s); err != nil || s.Len() != 0 {
				t.Fatalf("after drain: Len %d, %v", s.Len(), err)
			}
		})
	}
}
