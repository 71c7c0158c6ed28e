package federation

import (
	"reflect"
	"testing"
	"time"

	"semdisco/internal/transport"
	"semdisco/internal/transport/memnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// dirCfg builds a hierarchy-member config with fast directory gossip.
func dirCfg(role Role, domain string, extra ...func(*Config)) Config {
	cfg := Config{
		Role:              role,
		Domain:            domain,
		DirectoryInterval: 200 * time.Millisecond,
	}
	for _, f := range extra {
		f(&cfg)
	}
	return cfg
}

// domains flattens a snapshot to domain -> tombstone for assertions.
func domains(entries []wire.DirectoryEntry) map[string]bool {
	out := make(map[string]bool, len(entries))
	for _, e := range entries {
		out[e.Domain] = e.Tombstone
	}
	return out
}

// TestDirectoryMergeOrder pins the deterministic merge: same origin
// compares versions, cross-origin compares versions then breaks ties
// toward the lowest origin ID, and stale/equal entries are rejected
// (the property that makes relaying loop-safe).
func TestDirectoryMergeOrder(t *testing.T) {
	gen := uuid.NewGenerator(1)
	a, b := gen.New(), gen.New()
	lo, hi := a, b
	if uuid.Compare(b, a) < 0 {
		lo, hi = b, a
	}
	d := newDirectory()
	now := time.Unix(0, 0)
	ttl := time.Minute

	if !d.merge(wire.DirectoryEntry{Domain: "x", Origin: hi, Version: 1}, now, ttl) {
		t.Fatal("first entry rejected")
	}
	if d.merge(wire.DirectoryEntry{Domain: "x", Origin: hi, Version: 1}, now, ttl) {
		t.Fatal("duplicate accepted — relaying would loop")
	}
	if !d.merge(wire.DirectoryEntry{Domain: "x", Origin: hi, Version: 2}, now, ttl) {
		t.Fatal("same-origin newer version rejected")
	}
	// Cross-origin: higher version wins regardless of ID order.
	if !d.merge(wire.DirectoryEntry{Domain: "x", Origin: lo, Version: 3}, now, ttl) {
		t.Fatal("cross-origin higher version rejected")
	}
	// Version tie: lowest origin ID wins, deterministically.
	if d.merge(wire.DirectoryEntry{Domain: "x", Origin: hi, Version: 3}, now, ttl) {
		t.Fatal("tie broke toward the higher origin ID")
	}
	if got := d.entries["x"].Origin; got != lo {
		t.Fatalf("contested domain held by %v, want lowest ID %v", got, lo)
	}
	if d.version != 3 {
		t.Fatalf("stream version = %d after 3 accepted merges, want 3", d.version)
	}

	// since/covers mirror the summary delta semantics, including
	// ack-from-the-future.
	if !d.covers(1) || d.covers(3) || d.covers(9) {
		t.Fatal("directory history coverage wrong")
	}
	if got := d.since(2); len(got) != 1 || got[0].Origin != lo {
		t.Fatalf("since(2) = %+v", got)
	}

	// Tombstones age out locally after their TTL without advancing the
	// stream.
	if !d.merge(wire.DirectoryEntry{Domain: "x", Origin: lo, Version: 4, Tombstone: true}, now, ttl) {
		t.Fatal("tombstone rejected")
	}
	v := d.version
	if n := d.expire(now.Add(30 * time.Second)); n != 0 {
		t.Fatalf("tombstone expired %d entries before its TTL", n)
	}
	if n := d.expire(now.Add(2 * time.Minute)); n != 1 {
		t.Fatalf("expire = %d, want 1", n)
	}
	if _, ok := d.entries["x"]; ok {
		t.Fatal("expired tombstone still resident")
	}
	if d.version != v {
		t.Fatal("local tombstone expiry advanced the gossip stream")
	}
}

// TestDirectoryConvergesAcrossDomains: domain gateways seeded only with
// the root learn every domain through anti-entropy gossip (transitive
// relay through the root), a departing domain's tombstone propagates,
// and the tombstone ages out after its TTL.
func TestDirectoryConvergesAcrossDomains(t *testing.T) {
	h := newHarness(t)
	root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core", func(c *Config) {
		c.TombstoneTTL = 2 * time.Second
	}))
	seedRoot := func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(root)}
		c.RootAddr = string(root.Addr())
		c.TombstoneTTL = 2 * time.Second
	}
	gwA := h.addRegistry("lanA", "gwA", dirCfg(RoleFederated, "alpha", seedRoot))
	gwB := h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", seedRoot))
	h.net.RunFor(3 * time.Second)

	want := map[string]bool{"core": false, "alpha": false, "beta": false}
	for _, r := range []*Registry{root, gwA, gwB} {
		if got := domains(r.DirectorySnapshot()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s directory = %v, want %v", r.Domain(), got, want)
		}
	}

	// A departing domain tombstones its entry; the survivors converge on
	// the retraction.
	gwB.Stop()
	h.net.RunFor(time.Second)
	for _, r := range []*Registry{root, gwA} {
		got := domains(r.DirectorySnapshot())
		if dead, ok := got["beta"]; !ok || !dead {
			t.Fatalf("%s did not learn beta's tombstone: %v", r.Domain(), got)
		}
	}

	// After TombstoneTTL the tombstone ages out locally.
	expired := fDirTombExpired.Load()
	h.net.RunFor(3 * time.Second)
	for _, r := range []*Registry{root, gwA} {
		if got := domains(r.DirectorySnapshot()); len(got) != 2 {
			t.Fatalf("%s still holds expired tombstone: %v", r.Domain(), got)
		}
	}
	if fDirTombExpired.Load() == expired {
		t.Fatal("tombstone expiry not accounted")
	}
}

// TestDirectoryByeOvertakesFinalDelta pins the departure race: a
// stopping gateway sends its tombstone delta and then Bye, but the
// network may deliver the Bye first. The Bye drops the peer, so the
// delta re-adds a fresh peer struct whose got-version is zero and the
// delta's Base reads as a gap — and the Resync it triggers goes to a
// node that no longer exists. The entries must merge anyway: a gapped
// delta is still safe to apply (origin-stamped monotone merge), and for
// a departing sender it is the last chance to hear the retraction.
func TestDirectoryByeOvertakesFinalDelta(t *testing.T) {
	h := newHarness(t)
	root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core"))
	gwB := h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(root)}
	}))
	h.net.RunFor(2 * time.Second)
	if dead, ok := domains(root.DirectorySnapshot())["beta"]; !ok || dead {
		t.Fatal("setup: root never learned beta")
	}
	base := root.peers[gwB.ID()].dirs.got
	if base == 0 {
		t.Fatal("setup: root has no directory stream position for gwB")
	}

	// The Bye overtakes the final delta: root drops the peer first...
	delete(root.peers, gwB.ID())
	// ...then the tombstone delta arrives, based on the stream position
	// only the dead peer struct remembered.
	root.handleDirectoryDelta(
		&wire.Envelope{From: gwB.ID(), FromAddr: string(gwB.Addr())},
		transport.Addr(gwB.Addr()),
		&wire.DirectoryDelta{
			Version: base + 1,
			Base:    base,
			Entries: []wire.DirectoryEntry{{
				Domain: "beta", Origin: gwB.ID(), Addr: string(gwB.Addr()),
				Version: 2, Tombstone: true,
			}},
		})

	if dead, ok := domains(root.DirectorySnapshot())["beta"]; !ok || !dead {
		t.Fatal("reordered final delta lost the departure tombstone")
	}
	// The gap is still a gap: got must not have advanced past the
	// unheard span, so a live sender would resend from the right place.
	if got := root.peers[gwB.ID()].dirs.got; got != 0 {
		t.Fatalf("dirGotVersion advanced to %d across an unrecovered gap", got)
	}
}

// TestDomainScopedQueryCascade: a query pinned to a remote domain
// resolves through the directory straight to that domain's gateway (no
// WAN flood), an unknown domain escalates to the root, and a query
// pinned to the local domain stays confined to it.
func TestDomainScopedQueryCascade(t *testing.T) {
	h := newHarness(t)
	root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core"))
	seedRoot := func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(root)}
		c.RootAddr = string(root.Addr())
	}
	gwA := h.addRegistry("lanA", "gwA", dirCfg(RoleFederated, "alpha", seedRoot))
	gwB := h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", seedRoot))
	h.net.RunFor(3 * time.Second) // directories converge

	tcB := h.addClient("lanB", "cB")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tcB, gwB, adv)

	// Cross-domain: the directory names gwB; the query goes there
	// directly and the root never sees it.
	tcA := h.addClient("lanA", "cA")
	hits := fDirLookupHit.Load()
	rootBefore := root.Stats().QueriesReceived
	qid := h.query(tcA, gwA, "Sensor", 3, func(q *wire.Query) { q.Domain = "beta" })
	h.net.RunFor(3 * time.Second)
	if !tcA.done[qid] || len(tcA.results[qid]) != 1 || tcA.results[qid][0].ID != adv.ID {
		t.Fatalf("cross-domain cascade results = %v (done=%v)", tcA.results[qid], tcA.done[qid])
	}
	if fDirLookupHit.Load() == hits {
		t.Fatal("directory lookup hit not accounted")
	}
	if got := root.Stats().QueriesReceived; got != rootBefore {
		t.Fatalf("root received %d queries for a directory-resolved domain", got-rootBefore)
	}

	// Unknown domain: the gateway escalates to the root, which has
	// nowhere further to go and resolves flat (empty here).
	falls := fDirRootFallback.Load()
	qid = h.query(tcA, gwA, "Sensor", 3, func(q *wire.Query) { q.Domain = "gamma" })
	h.net.RunFor(3 * time.Second)
	if !tcA.done[qid] {
		t.Fatal("root-fallback query never completed")
	}
	if len(tcA.results[qid]) != 0 {
		t.Fatalf("unknown domain returned %v", tcA.results[qid])
	}
	if fDirRootFallback.Load() == falls {
		t.Fatal("root fallback not accounted")
	}
	if root.Stats().QueriesReceived == rootBefore {
		t.Fatal("unknown domain never reached the root")
	}

	// Same-domain confinement: a query pinned to alpha must not leave
	// it — gateways the directory proves front other domains are skipped.
	rootBefore = root.Stats().QueriesReceived
	gwBBefore := gwB.Stats().QueriesReceived
	qid = h.query(tcA, gwA, "Sensor", 3, func(q *wire.Query) { q.Domain = "alpha" })
	h.net.RunFor(3 * time.Second)
	if !tcA.done[qid] {
		t.Fatal("confined query never completed")
	}
	if root.Stats().QueriesReceived != rootBefore || gwB.Stats().QueriesReceived != gwBBefore {
		t.Fatal("domain-confined query escaped to another domain's gateway")
	}
}

// dirChaosRun executes one seeded chaos scenario: a 3-domain hierarchy
// is partitioned into two islands, one domain departs inside the
// smaller island (its tombstone initially visible there only), the
// partition heals, and gossip must reconverge every survivor — the
// tombstone included. It returns each survivor's final directory and
// the maintenance-message count for the same-seed determinism check.
func dirChaosRun(t *testing.T, seed int64) ([]map[string]bool, uint64) {
	t.Helper()
	h := newHarness(t)
	h.net = memnet.New(memnet.Config{Seed: seed})
	root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core"))
	seedRoot := func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(root)}
		c.RootAddr = string(root.Addr())
	}
	gwA := h.addRegistry("lanA", "gwA", dirCfg(RoleFederated, "alpha", seedRoot))
	gwB := h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", seedRoot))
	gwC := h.addRegistry("lanC", "gwC", dirCfg(RoleFederated, "gamma", seedRoot))

	// The nemesis: at 2s split {root, gwA} from {gwB, gwC}; heal at 5s.
	h.net.InstallFaults(memnet.FaultSchedule{
		{At: 2 * time.Second, Partition: [][]transport.Addr{
			{root.Addr(), gwA.Addr()},
			{gwB.Addr(), gwC.Addr()},
		}},
		{At: 5 * time.Second, Heal: true},
	})
	h.net.RunFor(3 * time.Second) // converged, then partitioned at 2s

	// gamma departs inside the minority island: only gwB can hear the
	// tombstone until the heal.
	gwC.Stop()
	h.net.RunFor(7 * time.Second) // heal at 5s, then reconverge

	want := map[string]bool{"core": false, "alpha": false, "beta": false, "gamma": true}
	var out []map[string]bool
	for _, r := range []*Registry{root, gwA, gwB} {
		got := domains(r.DirectorySnapshot())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s directory after heal = %v, want %v", r.Domain(), got, want)
		}
		out = append(out, got)
	}
	return out, h.net.Stats().DeliveredByCategory[wire.CatMaintenance].Messages
}

// TestDirectoryChaosConvergence: partition/heal under a scripted
// FaultSchedule reconverges the directory (tombstones included), and
// the same seed replays to bit-identical traffic and state.
func TestDirectoryChaosConvergence(t *testing.T) {
	dirs1, msgs1 := dirChaosRun(t, 42)
	dirs2, msgs2 := dirChaosRun(t, 42)
	if !reflect.DeepEqual(dirs1, dirs2) {
		t.Fatalf("same-seed chaos runs diverged:\n%v\n%v", dirs1, dirs2)
	}
	if msgs1 != msgs2 {
		t.Fatalf("same-seed chaos runs sent different maintenance traffic: %d vs %d", msgs1, msgs2)
	}
	// A different seed draws different fault randomness but must still
	// converge (dirChaosRun asserts the final state internally).
	dirChaosRun(t, 1007)
}
