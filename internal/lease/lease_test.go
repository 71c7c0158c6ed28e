package lease

import (
	"testing"
	"testing/quick"
	"time"

	"semdisco/internal/uuid"
)

var t0 = time.Unix(0, 0).UTC()

func TestGrantAndExpire(t *testing.T) {
	tab := NewTable(Policy{})
	gen := uuid.NewGenerator(1)
	a, b := gen.New(), gen.New()
	tab.Grant(a, 10*time.Second, t0)
	tab.Grant(b, 20*time.Second, t0)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d", tab.Len())
	}
	if !tab.Alive(a, t0.Add(9*time.Second)) {
		t.Fatal("lease dead before deadline")
	}
	expired := tab.ExpireThrough(t0.Add(10 * time.Second))
	if len(expired) != 1 || expired[0] != a {
		t.Fatalf("expired = %v, want [a]", expired)
	}
	if tab.Alive(a, t0) || !tab.Alive(b, t0.Add(15*time.Second)) {
		t.Fatal("wrong liveness after expiry")
	}
	expired = tab.ExpireThrough(t0.Add(time.Hour))
	if len(expired) != 1 || expired[0] != b {
		t.Fatalf("expired = %v, want [b]", expired)
	}
	if tab.Len() != 0 {
		t.Fatal("table not empty")
	}
}

func TestRenewExtends(t *testing.T) {
	tab := NewTable(Policy{})
	id := uuid.NewGenerator(2).New()
	tab.Grant(id, 10*time.Second, t0)
	granted, ok := tab.Renew(id, 10*time.Second, t0.Add(8*time.Second))
	if !ok || granted != 10*time.Second {
		t.Fatalf("Renew = (%v, %v)", granted, ok)
	}
	if len(tab.ExpireThrough(t0.Add(15*time.Second))) != 0 {
		t.Fatal("renewed lease expired at original deadline")
	}
	if len(tab.ExpireThrough(t0.Add(18*time.Second))) != 1 {
		t.Fatal("renewed lease did not expire at extended deadline")
	}
}

func TestRenewUnknownFails(t *testing.T) {
	tab := NewTable(Policy{})
	if _, ok := tab.Renew(uuid.NewGenerator(3).New(), time.Second, t0); ok {
		t.Fatal("renewed a lease that never existed — provider must republish")
	}
}

func TestRemove(t *testing.T) {
	tab := NewTable(Policy{})
	id := uuid.NewGenerator(4).New()
	tab.Grant(id, time.Minute, t0)
	if !tab.Remove(id) {
		t.Fatal("Remove = false")
	}
	if tab.Remove(id) {
		t.Fatal("double Remove = true")
	}
	if len(tab.ExpireThrough(t0.Add(time.Hour))) != 0 {
		t.Fatal("removed lease still expired")
	}
}

func TestPolicyClamp(t *testing.T) {
	p := Policy{Min: 5 * time.Second, Max: time.Minute, Default: 30 * time.Second}
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
	var zero Policy
	if zero.Clamp(0) != 30*time.Second {
		t.Fatal("zero policy default wrong")
	}
}

func TestGrantRefreshesExisting(t *testing.T) {
	tab := NewTable(Policy{})
	id := uuid.NewGenerator(5).New()
	tab.Grant(id, 5*time.Second, t0)
	tab.Grant(id, time.Minute, t0) // republish with longer lease
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after re-grant", tab.Len())
	}
	if len(tab.ExpireThrough(t0.Add(10*time.Second))) != 0 {
		t.Fatal("re-granted lease expired at the old deadline")
	}
}

func TestNextExpiry(t *testing.T) {
	tab := NewTable(Policy{})
	if _, ok := tab.NextExpiry(); ok {
		t.Fatal("empty table has a next expiry")
	}
	gen := uuid.NewGenerator(6)
	tab.Grant(gen.New(), time.Minute, t0)
	tab.Grant(gen.New(), time.Second, t0)
	next, ok := tab.NextExpiry()
	if !ok || !next.Equal(t0.Add(time.Second)) {
		t.Fatalf("NextExpiry = (%v, %v)", next, ok)
	}
}

func TestExpiryOrderProperty(t *testing.T) {
	// Property: for any set of lease durations, ExpireThrough(now)
	// returns exactly the leases whose deadline ≤ now, and every lease
	// is returned exactly once over increasing time.
	f := func(durs []uint16) bool {
		tab := NewTable(Policy{Min: time.Millisecond, Max: time.Hour})
		gen := uuid.NewGenerator(7)
		want := make(map[uuid.UUID]time.Time)
		for _, d := range durs {
			id := gen.New()
			dur := time.Duration(int(d)%3600+1) * time.Millisecond
			_, granted := tab.Grant(id, dur, t0)
			want[id] = t0.Add(granted)
		}
		seen := make(map[uuid.UUID]bool)
		for step := time.Duration(0); step <= 3700*time.Millisecond; step += 100 * time.Millisecond {
			now := t0.Add(step)
			for _, id := range tab.ExpireThrough(now) {
				if seen[id] {
					return false // duplicate expiry
				}
				seen[id] = true
				if want[id].After(now) {
					return false // expired early
				}
			}
		}
		return len(seen) == len(want) && tab.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapMapConsistencyUnderChurn(t *testing.T) {
	// Interleave grants, renews, removals and expirations; the heap and
	// map must never disagree.
	tab := NewTable(Policy{Min: time.Millisecond, Max: time.Hour})
	gen := uuid.NewGenerator(8)
	var ids []uuid.UUID
	now := t0
	for i := 0; i < 2000; i++ {
		switch i % 5 {
		case 0, 1:
			id := gen.New()
			ids = append(ids, id)
			tab.Grant(id, time.Duration(i%50+1)*time.Millisecond, now)
		case 2:
			if len(ids) > 0 {
				tab.Renew(ids[i%len(ids)], 20*time.Millisecond, now)
			}
		case 3:
			if len(ids) > 0 {
				tab.Remove(ids[i%len(ids)])
			}
		case 4:
			now = now.Add(7 * time.Millisecond)
			tab.ExpireThrough(now)
		}
		if next, ok := tab.NextExpiry(); ok && tab.Len() == 0 {
			t.Fatalf("NextExpiry %v with empty table", next)
		}
	}
	// Drain; must terminate and empty both structures.
	tab.ExpireThrough(now.Add(time.Hour))
	if tab.Len() != 0 {
		t.Fatalf("table not empty after full drain: %d", tab.Len())
	}
}
