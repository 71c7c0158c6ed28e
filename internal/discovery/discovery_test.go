package discovery

import (
	"testing"
	"time"

	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/memnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

type fixture struct {
	net  *memnet.Network
	gen  *uuid.Generator
	boot *Bootstrapper
	env  *runtime.Env
	// probes counts Probe messages seen by a fake registry observer.
	probes int
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	f := &fixture{net: memnet.New(memnet.Config{Seed: 3}), gen: uuid.NewGenerator(5)}
	env := &runtime.Env{ID: f.gen.New(), Clock: f.net, Gen: f.gen}
	dec := wire.NewDecoder()
	env.Iface = f.net.Attach("lan0/node", "lan0", func(from transport.Addr, data []byte) {
		e, err := dec.Decode(data)
		if err != nil {
			return
		}
		f.boot.Observe(e)
	})
	f.env = env
	f.boot = New(env, cfg)
	// A passive observer that counts probes on the LAN.
	f.net.Attach("lan0/observer", "lan0", func(from transport.Addr, data []byte) {
		if e, err := wire.Unmarshal(data); err == nil && e.Type == wire.TProbe {
			f.probes++
		}
	})
	return f
}

// fakeRegistry plants a registry presence by beacon or probe-match.
func (f *fixture) beacon(id uuid.UUID, addr string, peers ...wire.PeerInfo) {
	env := &wire.Envelope{Type: wire.TBeacon, From: id, FromAddr: addr, MsgID: f.gen.New(), Body: &wire.Beacon{Peers: peers}}
	f.boot.Observe(env)
}

func TestPassiveDiscoveryViaBeacon(t *testing.T) {
	f := newFixture(t, Config{})
	f.boot.Start()
	if _, ok := f.boot.Current(); ok {
		t.Fatal("registry known before any beacon")
	}
	rid := f.gen.New()
	f.beacon(rid, "lan0/r1")
	cur, ok := f.boot.Current()
	if !ok || cur.ID != rid || cur.Addr != "lan0/r1" {
		t.Fatalf("Current = (%+v, %v)", cur, ok)
	}
}

func TestActiveProbingUntilFound(t *testing.T) {
	f := newFixture(t, Config{ProbeInterval: 100 * time.Millisecond})
	f.boot.Start()
	f.net.RunFor(time.Second)
	if f.probes < 5 {
		t.Fatalf("probes while registry-less = %d, want repeated probing", f.probes)
	}
	f.beacon(f.gen.New(), "lan0/r1")
	before := f.probes
	f.net.RunFor(time.Second)
	// At most one already-in-flight probe may still be delivered.
	if f.probes > before+1 {
		t.Fatalf("probing continued after a registry was found (%d → %d)", before, f.probes)
	}
}

func TestOnRegistryFoundFiresOnTransition(t *testing.T) {
	f := newFixture(t, Config{})
	found := 0
	f.boot.OnRegistryFound(func() { found++ })
	f.boot.Start()
	rid := f.gen.New()
	f.beacon(rid, "lan0/r1")
	f.beacon(rid, "lan0/r1") // second beacon: no new transition
	if found != 1 {
		t.Fatalf("found fired %d times, want 1", found)
	}
	// Death then rediscovery fires again.
	f.boot.MarkDead(rid)
	f.beacon(rid, "lan0/r1")
	if found != 2 {
		t.Fatalf("found fired %d times after recovery, want 2", found)
	}
}

func TestSeedsAndSignaledAlternates(t *testing.T) {
	seedID := uuid.NewGenerator(9).New()
	f := newFixture(t, Config{Seeds: []wire.PeerInfo{{ID: seedID, Addr: "wan/r9"}}})
	f.boot.Start()
	cur, ok := f.boot.Current()
	if !ok || cur.ID != seedID {
		t.Fatalf("seeded registry not current: %+v", cur)
	}
	// A local beacon carrying alternates: local wins, alternates stored.
	localID, altID := f.gen.New(), f.gen.New()
	f.beacon(localID, "lan0/r1", wire.PeerInfo{ID: altID, Addr: "wan/r2"})
	cur, _ = f.boot.Current()
	if cur.ID != localID {
		t.Fatal("local registry not preferred over seed")
	}
	if n := f.boot.Known(); n != 3 {
		t.Fatalf("bootstrapper knows %d registries, want local + seed + signaled", n)
	}
}

func TestMarkDeadFailsOver(t *testing.T) {
	f := newFixture(t, Config{})
	f.boot.Start()
	r1, r2 := f.gen.New(), f.gen.New()
	f.beacon(r1, "lan0/r1")
	f.beacon(r2, "lan0/r2")
	cur, _ := f.boot.Current()
	f.boot.MarkDead(cur.ID)
	next, ok := f.boot.Current()
	if !ok || next.ID == cur.ID {
		t.Fatalf("failover did not switch registries: %+v", next)
	}
	f.boot.MarkDead(next.ID)
	if _, ok := f.boot.Current(); ok {
		t.Fatal("both dead but Current still returns one")
	}
	// A fresh beacon revives the table.
	f.beacon(r1, "lan0/r1")
	if _, ok := f.boot.Current(); !ok {
		t.Fatal("beacon did not revive a dead registry")
	}
}

func TestByeRemovesRegistry(t *testing.T) {
	f := newFixture(t, Config{})
	f.boot.Start()
	rid := f.gen.New()
	f.beacon(rid, "lan0/r1")
	f.boot.Observe(&wire.Envelope{Type: wire.TBye, From: rid, FromAddr: "lan0/r1", MsgID: f.gen.New(), Body: &wire.Bye{}})
	if _, ok := f.boot.Current(); ok {
		t.Fatal("departed registry still current")
	}
}

func TestLocalRegistryAgesOut(t *testing.T) {
	f := newFixture(t, Config{RegistryTTL: time.Second, ProbeInterval: 200 * time.Millisecond})
	f.boot.Start()
	f.beacon(f.gen.New(), "lan0/r1")
	f.net.RunFor(3 * time.Second) // no further beacons
	if _, ok := f.boot.Current(); ok {
		t.Fatal("silent registry did not age out")
	}
}

func TestSeedsDoNotAgeOut(t *testing.T) {
	seedID := uuid.NewGenerator(11).New()
	f := newFixture(t, Config{
		Seeds:         []wire.PeerInfo{{ID: seedID, Addr: "wan/r9"}},
		RegistryTTL:   500 * time.Millisecond,
		ProbeInterval: 200 * time.Millisecond,
	})
	f.boot.Start()
	f.net.RunFor(3 * time.Second)
	cur, ok := f.boot.Current()
	if !ok || cur.ID != seedID {
		t.Fatal("WAN seed aged out despite beacons not crossing LAN boundaries")
	}
}

func TestDeterministicPreference(t *testing.T) {
	f := newFixture(t, Config{})
	f.boot.Start()
	ids := []uuid.UUID{f.gen.New(), f.gen.New(), f.gen.New()}
	for i, id := range ids {
		f.beacon(id, "lan0/r"+string(rune('1'+i)))
	}
	lowest := ids[0]
	for _, id := range ids[1:] {
		if uuid.Compare(id, lowest) < 0 {
			lowest = id
		}
	}
	for i := 0; i < 5; i++ {
		cur, _ := f.boot.Current()
		if cur.ID != lowest {
			t.Fatalf("Current = %s, want lowest ID %s", cur.ID, lowest)
		}
	}
}
