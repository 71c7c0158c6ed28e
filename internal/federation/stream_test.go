package federation

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/transport/memnet"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// The shared anti-entropy engine (stream.go), checked once for both of
// its instantiations: whatever a scripted nemesis does to the datagrams
// or to the per-peer state while the sender's state keeps changing,
// every receiver holds the sender's state within streamHealTicks gossip
// ticks of the last faulty datagram, and from then on fully-acked idle
// peers cost zero bytes.

const (
	streamTick      = 200 * time.Millisecond
	streamHealTicks = 5
)

// quietCfg removes every periodic sender except the gossip under test
// (registries peer once, through the seed ping at Start), so the idle
// check can demand a silent network rather than filter message types.
func quietCfg(c *Config) {
	c.BeaconInterval = time.Hour
	c.PingInterval = time.Hour
	c.PeerTimeout = 3 * time.Hour
}

// streamFixture is one instantiation of the engine: nodes[0] is the
// sender whose state mutate changes; the rest must converge to it.
type streamFixture struct {
	name  string
	build func(h *harness) []*Registry
	// mutate changes the sender's gossiped state; step varies the change.
	mutate func(h *harness, s *Registry, step int)
	// diverged describes the first receiver not holding the sender's
	// state, or returns "" when all do.
	diverged func(nodes []*Registry) string
	// restart drops the sender's stream into a fresh, smaller version
	// space while its peers' acks still name the old one.
	restart func(s *Registry)
	// skipped counts the gossip ticks that found a peer fully acked.
	skipped func() uint64
}

func summaryFixture() streamFixture {
	cats := []string{"Device", "Sensor", "Radar", "Camera"}
	live := map[string]uuid.UUID{}
	return streamFixture{
		name: "summary",
		build: func(h *harness) []*Registry {
			// No cadenced full inside the run: every repair below has to
			// come from the ack path (Resync, uncovered ack, re-anchor).
			small := func(c *Config) { c.SummaryInterval = streamTick; c.SummaryFullEvery = 1 << 20 }
			s := h.addRegistry("lan0", "s", deltaCfg(quietCfg, small))
			seeded := func(c *Config) { c.Seeds = []wire.PeerInfo{peerInfo(s)} }
			return []*Registry{s,
				h.addRegistry("lan1", "r1", deltaCfg(quietCfg, small, seeded)),
				h.addRegistry("lan2", "r2", deltaCfg(quietCfg, small, seeded)),
			}
		},
		mutate: func(h *harness, s *Registry, step int) {
			publish := func(cat string) {
				adv := h.semAdvert("urn:svc:"+cat, cat, time.Hour)
				if _, _, err := s.Store().Publish(adv, h.net.Now()); err != nil {
					h.t.Fatal(err)
				}
				live[cat] = adv.ID
			}
			// Bit i of step decides whether an advert of category i is
			// stored, so tokens come and go in every combination.
			for i, cat := range cats {
				id, have := live[cat]
				switch want := (step>>i)&1 == 1; {
				case want && !have:
					publish(cat)
				case !want && have:
					s.Store().Remove(id)
					delete(live, cat)
				}
			}
			// One token appears early in the fault window and never changes
			// again: once the history has rolled past that version, only a
			// full snapshot can bring it to a receiver that missed it.
			if step == 6 {
				publish("Lidar")
			}
		},
		diverged: func(nodes []*Registry) string {
			want := nonEmpty(snapshotOf(nodes[0].Store().Summary()))
			for _, r := range nodes[1:] {
				if got := nonEmpty(peerView(r, nodes[0])); !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("%s holds %v, sender stores %v", r.Addr(), got, want)
				}
			}
			return ""
		},
		restart: func(s *Registry) { s.dsum = deltaSummaryState{} },
		skipped: fDeltaSkipped.Load,
	}
}

// nonEmpty drops emptied kinds: a receiver keeps "provably stores
// nothing of this kind" as an empty set, a snapshot omits the kind.
func nonEmpty(s summarySnapshot) summarySnapshot {
	out := summarySnapshot{}
	for k, set := range s {
		if len(set) > 0 {
			out[k] = set
		}
	}
	return out
}

func directoryFixture() streamFixture {
	return streamFixture{
		name: "directory",
		build: func(h *harness) []*Registry {
			// The sender's entries reach gwB only by relay through the root.
			root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core", quietCfg))
			seeded := func(c *Config) { c.Seeds = []wire.PeerInfo{peerInfo(root)} }
			s := h.addRegistry("lanA", "s", dirCfg(RoleFederated, "alpha", quietCfg, seeded))
			gwB := h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", quietCfg, seeded))
			return []*Registry{s, root, gwB}
		},
		mutate: func(h *harness, s *Registry, step int) {
			s.announceDomain(step%5 == 4) // re-version, now and then as a tombstone
		},
		diverged: func(nodes []*Registry) string {
			want := nodes[0].DirectorySnapshot()
			for _, r := range nodes[1:] {
				if got := r.DirectorySnapshot(); !reflect.DeepEqual(got, want) {
					return fmt.Sprintf("%s holds %v, sender holds %v", r.Addr(), got, want)
				}
			}
			return ""
		},
		restart: func(s *Registry) { s.dir.stream = stream[wire.DirectoryEntry]{} },
		skipped: fDirDeltaSkipped.Load,
	}
}

func TestStreamConvergesAndGoesQuiet(t *testing.T) {
	const reorderDelay = 3 * streamTick / 2 // long enough for the next tick's delta to overtake
	// evict forgets a peer and re-learns it at once, as signaling does
	// when the table overflows: the fresh struct has lost both positions.
	evict := func(at, whom *Registry) {
		delete(at.peers, whom.ID())
		at.addPeer(peerInfo(whom), false)
	}
	scenarios := []struct {
		name  string
		fault memnet.FaultProfile
		// ticks the fault lasts; 0 means 15.
		window int
		// strike hits the per-peer state once, mid-window.
		strike func(f streamFixture, nodes []*Registry)
	}{
		{name: "loss", fault: memnet.FaultProfile{LossGood: 0.2, LossBad: 0.9, PGoodBad: 0.2, PBadGood: 0.3}},
		{name: "reorder", fault: memnet.FaultProfile{ReorderProb: 0.5, ReorderDelay: reorderDelay}},
		{name: "duplication", fault: memnet.FaultProfile{DupProb: 0.6}},
		{name: "all-at-once", fault: memnet.FaultProfile{
			LossGood: 0.3, LossBad: 0.3, DupProb: 0.3, ReorderProb: 0.3, ReorderDelay: reorderDelay}},
		// Cut off for more versions than the history keeps.
		{name: "blackout", fault: memnet.FaultProfile{LossGood: 1, LossBad: 1}, window: maxStreamHistory + 16},
		{name: "sender-restart", strike: func(f streamFixture, nodes []*Registry) { f.restart(nodes[0]) }},
		{name: "evict-readd", strike: func(f streamFixture, nodes []*Registry) {
			evict(nodes[0], nodes[1]) // sender forgets what nodes[1] acked
			evict(nodes[1], nodes[0]) // nodes[1] forgets what it applied
		}},
	}
	for _, mk := range []func() streamFixture{summaryFixture, directoryFixture} {
		for _, sc := range scenarios {
			f := mk()
			t.Run(f.name+"/"+sc.name, func(t *testing.T) {
				h := newHarness(t)
				nodes := f.build(h)
				h.net.RunFor(time.Second) // peer, exchange first fulls
				step := 0
				churn := func(ticks int) {
					for i := 0; i < ticks; i++ {
						step++
						f.mutate(h, nodes[0], step)
						h.net.RunFor(streamTick)
					}
				}
				churn(3)
				h.net.RunFor(streamTick) // acks land: the fault starts from agreed positions

				window := sc.window
				if window == 0 {
					window = 15
				}
				if sc.fault != (memnet.FaultProfile{}) {
					h.net.InstallFaults(memnet.FaultSchedule{
						{Scope: memnet.ScopeAll, Profile: &sc.fault},
						{At: time.Duration(window) * streamTick, Scope: memnet.ScopeAll},
					})
				}
				churn(window / 2)
				if sc.strike != nil {
					sc.strike(f, nodes)
				}
				churn(window - window/2)
				// Healed. The sender keeps changing until the last delayed
				// datagram has landed: a late full snapshot can overwrite a
				// summary receiver with older state, and the protocol repairs
				// that on the sender's next change (base mismatch ⇒ Resync),
				// not on a timer.
				churn(2)

				h.net.RunFor(streamHealTicks * streamTick)
				if d := f.diverged(nodes); d != "" {
					t.Fatalf("not converged %d ticks after heal: %s", streamHealTicks, d)
				}

				// Everyone is acked: gossip ticks keep firing and send nothing,
				// for longer than the directory's full-snapshot cadence.
				before, skipped := h.net.Stats(), f.skipped()
				h.net.RunFor(25 * streamTick)
				after := h.net.Stats()
				if after.MessagesSent != before.MessagesSent || after.BytesSent != before.BytesSent {
					t.Fatalf("idle acked peers cost %d messages / %d bytes",
						after.MessagesSent-before.MessagesSent, after.BytesSent-before.BytesSent)
				}
				if f.skipped() == skipped {
					t.Fatal("no gossip tick ran during the idle window")
				}
			})
		}
	}
}

// TestPeriodicTimersKeepOneHandleEach: re-arming a periodic timer
// overwrites its cancel handle instead of appending one per tick, Stop
// still cancels every timer, and a tick that fires into a saturated
// executor queue is delayed, not lost — a self-rearming timer that loses
// one tick has lost them all.
func TestPeriodicTimersKeepOneHandleEach(t *testing.T) {
	t.Run("simulated", func(t *testing.T) {
		h := newHarness(t)
		r := h.addRegistry("lan0", "r", dirCfg(RoleRoot, "core", func(c *Config) {
			c.SummaryPruning = true
			c.PurgeInterval = 10 * time.Millisecond
		}))
		armed := len(r.cancels)
		if armed != 6 { // beacon, ping, purge, seen, summaries, directory
			t.Fatalf("Start armed %d timers, want 6", armed)
		}
		h.net.RunFor(15 * time.Second) // 1500 purge ticks, and every other timer at least once
		if len(r.cancels) != armed {
			t.Fatalf("%d cancel handles after 1500 ticks, want %d (one per timer)", len(r.cancels), armed)
		}
		r.Stop()
		sent := h.net.Stats().MessagesSent
		if n := h.net.RunFor(time.Minute); n != 0 {
			t.Fatalf("%d timer events fired after Stop", n)
		}
		if got := h.net.Stats().MessagesSent; got != sent {
			t.Fatalf("stopped registry sent %d messages", got-sent)
		}
	})
	t.Run("saturated udpnet queue", func(t *testing.T) {
		const tick = 50 * time.Millisecond
		u := newUDPRegistry(t, describe.NewSemanticModel(testOntology(t)), 0,
			udpnet.Config{QueueLen: 1}, Config{PurgeInterval: tick})
		u.publish(t, "urn:svc:short", 2*tick) // lapses after the first tick, before the second
		// Start arms the timers and then holds the executor, so the one
		// queue slot can be filled before the first purge tick is due.
		gate, armed := make(chan struct{}), make(chan int)
		release := sync.OnceFunc(func() { close(gate) })
		defer release()
		go u.node.Do(func() {
			u.reg.Start()
			armed <- len(u.reg.cancels)
			<-gate
		})
		handles := <-armed
		drops := counter("transport.udp.drops")
		for deadline := time.Now().Add(tick / 2); counter("transport.udp.drops") == drops; {
			if time.Now().After(deadline) {
				t.Skip("could not saturate the queue ahead of the first tick")
			}
			u.cenv.Send(u.reg.Addr(), wire.Ping{})
		}
		time.Sleep(3 * tick) // the first tick fires, and finds no room
		release()
		waitLen := func(want int, what string) {
			t.Helper()
			for deadline := time.Now().Add(10 * time.Second); u.store.Len() != want; {
				if time.Now().After(deadline) {
					t.Fatalf("%s: the purge timer is dead (%d adverts held)", what, u.store.Len())
				}
				time.Sleep(time.Millisecond)
			}
		}
		waitLen(0, "tick delayed by the full queue")
		u.publish(t, "urn:svc:next", tick)
		waitLen(0, "ticks after it")
		u.node.Do(func() {
			if len(u.reg.cancels) != handles {
				t.Errorf("%d cancel handles, want %d (one per timer)", len(u.reg.cancels), handles)
			}
			u.reg.Stop()
		})
	})
}

// TestSameSeedSameTrace: a 40-domain star run twice from one seed yields
// identical network accounting. Every gateway joins at the same instant,
// so the root's ping loop and peer eviction face whole groups of equal
// lastSeen; walking the peer map there made the order of sends — and the
// latency draws behind them — depend on Go's map randomisation.
func TestSameSeedSameTrace(t *testing.T) {
	run := func() memnet.Stats {
		h := newHarness(t)
		fast := func(c *Config) {
			c.PingInterval = time.Second
			c.PeerTimeout = 3 * time.Second
			c.MaxPeers = 24 // below the domain count: the root must evict
		}
		root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core", fast))
		for i := 0; i < 40; i++ {
			name := fmt.Sprintf("d%02d", i)
			h.addRegistry("lan-"+name, "gw", dirCfg(RoleFederated, name, fast, func(c *Config) {
				c.Seeds = []wire.PeerInfo{peerInfo(root)}
				c.RootAddr = string(root.Addr())
			}))
		}
		h.net.RunFor(10 * time.Second)
		return h.net.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different traces:\n%+v\n%+v", a, b)
	}
	if a.DeliveredByCategory[wire.CatMaintenance].Messages == 0 {
		t.Fatal("the star exchanged no maintenance traffic")
	}
}
