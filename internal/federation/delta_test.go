package federation

import (
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/wire"
)

// deltaCfg turns on fast summary gossip for the delta tests.
func deltaCfg(extra ...func(*Config)) Config {
	cfg := Config{SummaryPruning: true, SummaryInterval: 200 * time.Millisecond}
	for _, f := range extra {
		f(&cfg)
	}
	return cfg
}

// peerView returns what reg currently believes about other's summary.
func peerView(reg *Registry, other *Registry) map[describe.Kind]map[string]bool {
	if p, ok := reg.peers[other.ID()]; ok {
		return p.summary
	}
	return nil
}

// TestDeltaSummaryConverges: adds and removals propagate through
// incremental deltas, and steady state sends no summaries at all.
func TestDeltaSummaryConverges(t *testing.T) {
	h := newHarness(t)
	// A huge SummaryFullEvery keeps the periodic refresh out of the
	// window so every observed send is attributable.
	noFull := func(c *Config) { c.SummaryFullEvery = 1 << 20 }
	r1 := h.addRegistry("lan0", "r1", deltaCfg(noFull))
	r2 := h.addRegistry("lan1", "r2", deltaCfg(noFull, func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)

	tc := h.addClient("lan1", "c")
	adv := h.semAdvert("urn:svc:cam", "Camera", time.Minute)
	h.publish(tc, r2, adv)
	h.net.RunFor(time.Second)

	view := peerView(r1, r2)
	if view == nil || !view[describe.KindSemantic][string(c("Camera"))] {
		t.Fatalf("r1's view of r2 missing Camera token: %v", view)
	}

	// Steady state: no change → fully acked peers get nothing.
	skippedBefore := fDeltaSkipped.Load()
	h.net.RunFor(2 * time.Second)
	if fDeltaSkipped.Load() == skippedBefore {
		t.Fatal("no summary ticks were skipped in steady state")
	}

	// Removal travels as a tombstone delta, not a full resync.
	fullBefore := fDeltaFullSent.Load()
	r2.Store().Remove(adv.ID)
	h.net.RunFor(time.Second)
	view = peerView(r1, r2)
	if view[describe.KindSemantic][string(c("Camera"))] {
		t.Fatalf("Camera token not removed from r1's view: %v", view)
	}
	if got := fDeltaFullSent.Load() - fullBefore; got != 0 {
		t.Fatalf("removal caused %d full resyncs, want incremental delta", got)
	}
}

// TestDeltaSummaryPrunes: the delta-built peer summary drives forward
// pruning exactly like a whole-summary one.
func TestDeltaSummaryPrunes(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg())
	r2 := h.addRegistry("lan1", "r2", deltaCfg(func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)
	tcB := h.addClient("lan1", "c2")
	h.publish(tcB, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)

	tc := h.addClient("lan0", "c1")
	before := r2.Stats().QueriesReceived
	h.query(tc, r1, "Radar", 2)
	h.net.RunFor(2 * time.Second)
	if got := r2.Stats().QueriesReceived; got != before {
		t.Fatalf("r2 received %d queries despite delta summary proving no match", got-before)
	}
	if r1.Stats().ForwardsPruned == 0 {
		t.Fatal("pruning not accounted")
	}
}

// TestDeltaResyncAfterLoss: when every delta in flight is lost for
// longer than the history covers — simulated by a receiver restart
// (fresh peer state) — the Resync escape hatch recovers via a full
// summary instead of deadlocking on mismatched bases.
func TestDeltaResyncAfterLoss(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg())
	r2 := h.addRegistry("lan1", "r2", deltaCfg(func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)
	tc := h.addClient("lan1", "c")
	h.publish(tc, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)

	// Simulate r1 losing its applied state (as a restart would): the
	// next delta's base cannot match, forcing a Resync request.
	p := r1.peers[r2.ID()]
	p.summary = nil
	p.sum.got = 0
	h.publish(tc, r2, h.semAdvert("urn:svc:radar", "Radar", time.Minute))
	h.net.RunFor(3 * time.Second)

	view := peerView(r1, r2)
	if !view[describe.KindSemantic][string(c("Camera"))] || !view[describe.KindSemantic][string(c("Radar"))] {
		t.Fatalf("full resync did not restore r1's view: %v", view)
	}
	if fDeltaResyncs.Load() == 0 {
		t.Fatal("no resync was requested")
	}
}

// TestDeltaAckMonotonic is the out-of-order ack regression test: a
// late-arriving ack for an older version must never regress the
// sender's per-peer acked version (which would re-base future deltas
// on state the peer has already advanced past).
func TestDeltaAckMonotonic(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg())
	r2 := h.addRegistry("lan0", "r2", deltaCfg())
	h.net.RunFor(time.Second)

	p := r1.peers[r2.ID()]
	if p == nil {
		t.Fatal("registries did not peer")
	}
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 7})
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 5}) // late datagram
	if p.sum.acked != 7 {
		t.Fatalf("ackedVersion = %d after out-of-order ack, want 7", p.sum.acked)
	}
	// A resync request rides any version without regressing it either.
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 3, Resync: true})
	if p.sum.acked != 7 || !p.sum.needFull {
		t.Fatalf("ackedVersion = %d needFull = %v, want 7/true", p.sum.acked, p.sum.needFull)
	}
	// The one sanctioned regression: an ack naming the exact version of
	// the last full resync re-anchors after a sender restart.
	p.sum.lastFull = 2
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 2})
	if p.sum.acked != 2 {
		t.Fatalf("ackedVersion = %d after full-resync ack, want 2", p.sum.acked)
	}
	// ...and it is one-shot: once the peer has acked at or past the full,
	// a delayed duplicate of that same ack must not re-anchor backwards
	// (that would trigger a needless delta/stale/resync cycle).
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 4})
	if p.sum.acked != 4 {
		t.Fatalf("ackedVersion = %d after post-resync ack, want 4", p.sum.acked)
	}
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: 2}) // duplicate of the resync ack
	if p.sum.acked != 4 {
		t.Fatalf("ackedVersion = %d after duplicate full-resync ack, want 4", p.sum.acked)
	}
}

// TestDeltaMergeNetsOut: a token added and removed between two acks
// merges away; one surviving the window merges to a single add.
func TestDeltaMergeNetsOut(t *testing.T) {
	var d deltaSummaryState
	snap := func(tokens ...string) []wire.SummaryEntry {
		return []wire.SummaryEntry{{Kind: describe.KindSemantic, Tokens: tokens}}
	}
	d.advance(snap("a"))      // v1: +a
	d.advance(snap("a", "b")) // v2: +b
	d.advance(snap("a"))      // v3: -b
	d.advance(snap("a", "c")) // v4: +c
	if d.version != 4 {
		t.Fatalf("version = %d, want 4", d.version)
	}
	merged := d.since(1)
	if len(merged) != 1 {
		t.Fatalf("merged entries = %+v", merged)
	}
	e := merged[0]
	if len(e.Add) != 1 || e.Add[0] != "c" || len(e.Remove) != 1 || e.Remove[0] != "b" {
		t.Fatalf("merged delta = +%v -%v, want +[c] -[b]", e.Add, e.Remove)
	}
	if !d.covers(1) || d.covers(4) || d.covers(9) {
		t.Fatal("history coverage wrong")
	}
}

// TestSummaryIdlePeerNoPeriodicFull is the skipped-tick regression
// test: a fully-acked peer with nothing changing must receive zero
// summary bytes indefinitely — the skip path must not advance the
// periodic-full counter, or every SummaryFullEvery idle ticks would
// burn a pointless full resync (exactly the WAN bytes the delta
// protocol exists to save).
func TestSummaryIdlePeerNoPeriodicFull(t *testing.T) {
	h := newHarness(t)
	// A tiny SummaryFullEvery makes the bug fire within a short idle
	// window: 2 s of 200 ms ticks crosses the every-4 boundary twice.
	small := func(c *Config) { c.SummaryFullEvery = 4 }
	r1 := h.addRegistry("lan0", "r1", deltaCfg(small))
	r2 := h.addRegistry("lan1", "r2", deltaCfg(small, func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)
	tc := h.addClient("lan1", "c")
	h.publish(tc, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second) // r1 applies and acks; steady state

	if p := r1.peers[r2.ID()]; p == nil || peerView(r1, r2) == nil {
		t.Fatal("summary never converged")
	}
	sentBefore := fSummariesSent.Load()
	fullBefore := fDeltaFullSent.Load()
	skippedBefore := fDeltaSkipped.Load()
	h.net.RunFor(2 * time.Second) // 10 idle ticks > 2×SummaryFullEvery
	if got := fSummariesSent.Load() - sentBefore; got != 0 {
		t.Fatalf("idle current peer was sent %d summaries (%d full), want 0",
			got, fDeltaFullSent.Load()-fullBefore)
	}
	if fDeltaSkipped.Load() == skippedBefore {
		t.Fatal("no ticks were skipped — peer never reached steady state")
	}
}

// TestSummaryResyncOnPeerReAdd is the eviction/re-add regression test:
// a peer dropped from the table and re-learned moments later gets a
// fresh peer struct with no summary state, so the next exchange must
// be a full resync in both directions — the re-added peer must not be
// delta'd from a phantom acked version (an ack from its previous
// incarnation still in flight), nor apply deltas against a stale base.
func TestSummaryResyncOnPeerReAdd(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg())
	r2 := h.addRegistry("lan1", "r2", deltaCfg(func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)
	tc := h.addClient("lan1", "c")
	h.publish(tc, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)
	if p := r2.peers[r1.ID()]; p == nil || p.sum.acked == 0 {
		t.Fatal("setup: r1 never acked r2's summary")
	}

	// r2 evicts r1 (table pressure), then re-learns it via signaling.
	r2.evictOldestPeer()
	for range r2.peers {
		t.Fatal("eviction left peers behind in a 1-peer table")
	}
	p := r2.addPeer(peerInfo(r1), false)
	if !p.sum.needFull {
		t.Fatal("re-added peer not marked for a full resync")
	}
	// A phantom ack from r1's previous incarnation lands after re-add.
	// It may move the acked version, but must not cancel the forced
	// full: the fresh struct has no record of what r1 actually holds.
	r2.handleSummaryAck(r1.ID(), &wire.SummaryAck{Version: 7})
	fullBefore := fDeltaFullSent.Load()
	deltaBefore := fDeltaSent.Load()
	r2.sendSummaryTo(p)
	if fDeltaFullSent.Load() != fullBefore+1 || fDeltaSent.Load() != deltaBefore {
		t.Fatal("re-added peer was delta'd from a phantom acked version, want full resync")
	}

	// End to end: the re-added peer's view reconverges through the full.
	h.publish(tc, r2, h.semAdvert("urn:svc:radar", "Radar", time.Minute))
	h.net.RunFor(3 * time.Second)
	view := peerView(r1, r2)
	if !view[describe.KindSemantic][string(c("Camera"))] || !view[describe.KindSemantic][string(c("Radar"))] {
		t.Fatalf("view after re-add did not reconverge: %v", view)
	}
}

// TestDeltaAckFromFuture pins the ack-from-the-future invariant: when a
// peer's acked version is *ahead* of the sender's current version (the
// sender restarted into a fresh, smaller version space), covers must
// report false, the next send must be a full resync, and the ack naming
// that full's exact version must re-anchor the peer downward. The
// recovery chain exists today, but only incidentally — this test makes
// it a contract.
func TestDeltaAckFromFuture(t *testing.T) {
	// State-machine level: covers treats a future ack as uncoverable.
	var d deltaSummaryState
	d.advance([]wire.SummaryEntry{{Kind: describe.KindSemantic, Tokens: []string{"a"}}})
	if d.version != 1 {
		t.Fatalf("version = %d, want 1", d.version)
	}
	if d.covers(1) || d.covers(7) {
		t.Fatal("covers accepted an ack at or past the current version")
	}
	if got := d.since(7); got != nil {
		t.Fatalf("since(future) = %+v, want nil", got)
	}

	// Protocol level: the future ack forces a full, whose ack re-anchors.
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg())
	r2 := h.addRegistry("lan0", "r2", deltaCfg())
	h.net.RunFor(time.Second)
	tc := h.addClient("lan0", "c")
	h.publish(tc, r1, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)

	p := r1.peers[r2.ID()]
	if p == nil {
		t.Fatal("registries did not peer")
	}
	// Simulate r1 having restarted with a fresh version space while r2's
	// ack stream still names the old one.
	p.sum.acked = r1.dsum.version + 41
	p.sum.needFull = false
	fullBefore := fDeltaFullSent.Load()
	r1.sendSummaryTo(p)
	if fDeltaFullSent.Load() != fullBefore+1 {
		t.Fatal("ack-from-the-future did not force a full resync")
	}
	if p.sum.lastFull != r1.dsum.version {
		t.Fatalf("lastFullVersion = %d, want %d", p.sum.lastFull, r1.dsum.version)
	}
	// The ack naming the full's version is the sanctioned regression:
	// it re-anchors the peer into the new version space.
	r1.handleSummaryAck(r2.ID(), &wire.SummaryAck{Version: r1.dsum.version})
	if p.sum.acked != r1.dsum.version {
		t.Fatalf("ackedVersion = %d after full-resync ack, want %d", p.sum.acked, r1.dsum.version)
	}
	if p.sum.lastFull != 0 {
		t.Fatal("re-anchor was not one-shot")
	}
}

// TestFullSummariesAblation: the pre-delta behaviour stays available
// and sends whole summaries every tick.
func TestFullSummariesAblation(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", deltaCfg(func(c *Config) { c.FullSummaries = true }))
	r2 := h.addRegistry("lan1", "r2", deltaCfg(func(c *Config) {
		c.FullSummaries = true
		c.Seeds = []wire.PeerInfo{peerInfo(r1)}
	}))
	h.net.RunFor(time.Second)
	tc := h.addClient("lan1", "c")
	h.publish(tc, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)
	view := peerView(r1, r2)
	if view == nil || !view[describe.KindSemantic][string(c("Camera"))] {
		t.Fatalf("whole-summary gossip broken: %v", view)
	}
}
