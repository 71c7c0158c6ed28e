// The lease deadlines live on the registry's advert records, so every
// test here but TestPolicyClamp drives the lease lifecycle through a
// registry.Store built with the policy under test. The registry's
// TestLeasesMatchModel checks the same lifecycle against a model, with
// the store's internals in view.
package lease_test

import (
	"testing"
	"testing/quick"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/registry"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

var t0 = time.Unix(0, 0).UTC()

func newStore(p lease.Policy) *registry.Store {
	return registry.New(registry.Options{Models: describe.NewRegistry(describe.KVModel{}), Leases: p})
}

// advert is a fresh advertisement requesting the given lease.
func advert(gen *uuid.Generator, d time.Duration) wire.Advertisement {
	id := gen.New()
	desc := &describe.KVDescription{ServiceURI: "urn:svc:" + id.String(), Name: "svc", Addr: "e"}
	return wire.Advertisement{ID: id, Kind: describe.KindKV, Payload: desc.Encode(),
		LeaseMillis: uint64(d / time.Millisecond), Version: 1}
}

func publish(t *testing.T, s *registry.Store, adv wire.Advertisement, now time.Time) time.Duration {
	t.Helper()
	granted, _, err := s.Publish(adv, now)
	if err != nil {
		t.Fatal(err)
	}
	return granted
}

func ids(advs []wire.Advertisement) []uuid.UUID {
	out := make([]uuid.UUID, len(advs))
	for i, a := range advs {
		out[i] = a.ID
	}
	return out
}

func TestGrantAndExpire(t *testing.T) {
	s := newStore(lease.Policy{})
	gen := uuid.NewGenerator(1)
	a, b := advert(gen, 10*time.Second), advert(gen, 20*time.Second)
	publish(t, s, a, t0)
	publish(t, s, b, t0)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if dl, ok := s.LeaseDeadline(a.ID); !ok || !dl.Equal(t0.Add(10*time.Second)) {
		t.Fatalf("LeaseDeadline = (%v, %v)", dl, ok)
	}
	expired := ids(s.ExpireThrough(t0.Add(10 * time.Second)))
	if len(expired) != 1 || expired[0] != a.ID {
		t.Fatalf("expired = %v, want [a]", expired)
	}
	if s.Has(a.ID) || !s.Has(b.ID) {
		t.Fatal("wrong liveness after expiry")
	}
	expired = ids(s.ExpireThrough(t0.Add(time.Hour)))
	if len(expired) != 1 || expired[0] != b.ID {
		t.Fatalf("expired = %v, want [b]", expired)
	}
	if s.Len() != 0 {
		t.Fatal("store not empty")
	}
}

func TestRenewExtends(t *testing.T) {
	s := newStore(lease.Policy{})
	adv := advert(uuid.NewGenerator(2), 10*time.Second)
	publish(t, s, adv, t0)
	granted, ok := s.Renew(adv.ID, t0.Add(8*time.Second))
	if !ok || granted != 10*time.Second {
		t.Fatalf("Renew = (%v, %v)", granted, ok)
	}
	if len(s.ExpireThrough(t0.Add(15*time.Second))) != 0 {
		t.Fatal("renewed lease expired at original deadline")
	}
	if len(s.ExpireThrough(t0.Add(18*time.Second))) != 1 {
		t.Fatal("renewed lease did not expire at extended deadline")
	}
}

func TestRenewUnknownFails(t *testing.T) {
	s := newStore(lease.Policy{})
	if _, ok := s.Renew(uuid.NewGenerator(3).New(), t0); ok {
		t.Fatal("renewed a lease that never existed — provider must republish")
	}
}

func TestRemove(t *testing.T) {
	s := newStore(lease.Policy{})
	adv := advert(uuid.NewGenerator(4), time.Minute)
	publish(t, s, adv, t0)
	if !s.Remove(adv.ID) {
		t.Fatal("Remove = false")
	}
	if s.Remove(adv.ID) {
		t.Fatal("double Remove = true")
	}
	if len(s.ExpireThrough(t0.Add(time.Hour))) != 0 {
		t.Fatal("removed lease still expired")
	}
}

func TestPolicyClamp(t *testing.T) {
	p := lease.Policy{Min: 5 * time.Second, Max: time.Minute, Default: 30 * time.Second}
	cases := []struct {
		req, want time.Duration
	}{
		{0, 30 * time.Second},
		{-time.Second, 30 * time.Second},
		{time.Second, 5 * time.Second},
		{10 * time.Second, 10 * time.Second},
		{time.Hour, time.Minute},
	}
	for _, c := range cases {
		if got := p.Clamp(c.req); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.req, got, c.want)
		}
	}
	var zero lease.Policy
	if zero.Clamp(0) != 30*time.Second {
		t.Fatal("zero policy default wrong")
	}
}

func TestGrantRefreshesExisting(t *testing.T) {
	s := newStore(lease.Policy{})
	adv := advert(uuid.NewGenerator(5), 5*time.Second)
	publish(t, s, adv, t0)
	adv.LeaseMillis = uint64(time.Minute / time.Millisecond) // republish with a longer lease
	publish(t, s, adv, t0)
	if s.Len() != 1 {
		t.Fatalf("Len = %d after re-grant", s.Len())
	}
	if len(s.ExpireThrough(t0.Add(10*time.Second))) != 0 {
		t.Fatal("re-granted lease expired at the old deadline")
	}
}

func TestNextExpiry(t *testing.T) {
	s := newStore(lease.Policy{})
	if _, ok := s.NextExpiry(); ok {
		t.Fatal("empty store has a next expiry")
	}
	gen := uuid.NewGenerator(6)
	publish(t, s, advert(gen, time.Minute), t0)
	publish(t, s, advert(gen, time.Second), t0)
	next, ok := s.NextExpiry()
	if !ok || !next.Equal(t0.Add(time.Second)) {
		t.Fatalf("NextExpiry = (%v, %v)", next, ok)
	}
}

func TestExpiryOrderProperty(t *testing.T) {
	// Property: for any set of lease durations, ExpireThrough(now)
	// returns exactly the adverts whose deadline ≤ now, and every
	// advert is returned exactly once over increasing time.
	f := func(durs []uint16) bool {
		s := newStore(lease.Policy{Min: time.Millisecond, Max: time.Hour})
		gen := uuid.NewGenerator(7)
		want := make(map[uuid.UUID]time.Time)
		for _, d := range durs {
			adv := advert(gen, time.Duration(int(d)%3600+1)*time.Millisecond)
			granted, _, err := s.Publish(adv, t0)
			if err != nil {
				return false
			}
			want[adv.ID] = t0.Add(granted)
		}
		seen := make(map[uuid.UUID]bool)
		for step := time.Duration(0); step <= 3700*time.Millisecond; step += 100 * time.Millisecond {
			now := t0.Add(step)
			for _, a := range s.ExpireThrough(now) {
				if seen[a.ID] {
					return false // duplicate expiry
				}
				seen[a.ID] = true
				if want[a.ID].After(now) {
					return false // expired early
				}
			}
		}
		return len(seen) == len(want) && s.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMapConsistencyUnderChurn(t *testing.T) {
	// Interleave publishes, renews, removals and expirations; the store
	// must never report a next expiry without an advert to expire.
	s := newStore(lease.Policy{Min: time.Millisecond, Max: time.Hour})
	gen := uuid.NewGenerator(8)
	var all []uuid.UUID
	now := t0
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0, 1:
			adv := advert(gen, time.Duration(i%50+1)*time.Millisecond)
			all = append(all, adv.ID)
			publish(t, s, adv, now)
		case 2:
			if len(all) > 0 {
				s.Renew(all[i%len(all)], now)
			}
		case 3:
			if len(all) > 0 {
				s.Remove(all[i%len(all)])
			}
		case 4:
			now = now.Add(7 * time.Millisecond)
			s.ExpireThrough(now)
		}
		if next, ok := s.NextExpiry(); ok != (s.Len() > 0) {
			t.Fatalf("NextExpiry (%v, %v) with %d adverts", next, ok, s.Len())
		}
	}
	// Drain; must terminate and empty the store.
	s.ExpireThrough(now.Add(time.Hour))
	if _, ok := s.NextExpiry(); ok || s.Len() != 0 {
		t.Fatalf("store not empty after full drain: %d", s.Len())
	}
}
