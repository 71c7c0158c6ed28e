package federation

// The registry-of-registries layer: a gossiped directory of federation
// domains. The paper's §4.9 federation is flat — every gateway peers
// with every other — but the architecture it sketches is hierarchical:
// registries carry a role (standalone, federated under a domain, or
// root), and a query that names a domain resolves through a cascade —
// local store, then the domain directory, then the root — instead of
// flooding the whole WAN.
//
// The directory itself is a monotone merged map, in the style of a
// master-less super-hub phonebook: each gateway authors one
// origin-stamped entry for its domain (origin NodeID + per-origin
// version, with a tombstone as the final version when the domain
// departs), and every gateway merges every entry it hears, keeping the
// newest. Merging is deterministic and commutative — same origin
// compares versions; competing origins for one domain compare versions
// first and break ties toward the lowest origin ID — so any gossip
// order converges to the same directory.
//
// Entries travel between gateways on the shared anti-entropy stream
// (stream.go): every accepted entry, authored or relayed, is one stream
// version, and each peer is sent only the entries past the version it
// acknowledged. Because applying a snapshot is a merge — never a
// replace — full resyncs cannot lose entries, and relaying is
// loop-safe: a stale copy merges to a no-op and does not re-enter the
// stream.

import (
	"sort"
	"time"

	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Role places a registry in the federation hierarchy.
type Role uint8

const (
	// RoleStandalone keeps the flat pre-directory behaviour: no
	// directory gossip, no cascade.
	RoleStandalone Role = iota
	// RoleFederated marks a domain gateway: it authors the directory
	// entry for Config.Domain, gossips the directory, and resolves
	// domain-scoped queries through it (falling back to the root for
	// domains it does not know).
	RoleFederated
	// RoleRoot marks the hierarchy's fallback resolver: it gossips and
	// serves the directory like a federated gateway but never escalates
	// further — a miss at the root is a miss.
	RoleRoot
)

func (r Role) String() string {
	switch r {
	case RoleFederated:
		return "federated"
	case RoleRoot:
		return "root"
	default:
		return "standalone"
	}
}

// ParseRole maps the -role flag values onto Role.
func ParseRole(s string) (Role, bool) {
	switch s {
	case "", "standalone":
		return RoleStandalone, true
	case "federated":
		return RoleFederated, true
	case "root":
		return RoleRoot, true
	}
	return RoleStandalone, false
}

// directoryFullEvery forces a full directory snapshot every Nth sending
// tick per peer.
const directoryFullEvery = 16

// directory is the merged domain map plus the stream that gossips it,
// one accepted entry per stream version.
type directory struct {
	stream[wire.DirectoryEntry]
	entries map[string]wire.DirectoryEntry
	// deadAt ages tombstones out locally once every peer has had
	// TombstoneTTL to hear them; expiry is local aging, not a change,
	// so it does not advance the stream.
	deadAt map[string]time.Time
}

func newDirectory() *directory {
	return &directory{
		entries: make(map[string]wire.DirectoryEntry),
		deadAt:  make(map[string]time.Time),
	}
}

// entryNewer reports whether e supersedes cur under the merge order:
// same origin compares versions; across origins the higher version
// wins, and a version tie breaks toward the lowest origin ID so every
// gateway picks the same winner for a contested domain.
func entryNewer(e, cur wire.DirectoryEntry) bool {
	if e.Origin == cur.Origin {
		return e.Version > cur.Version
	}
	if e.Version != cur.Version {
		return e.Version > cur.Version
	}
	return uuid.Compare(e.Origin, cur.Origin) < 0
}

// merge applies one entry if it supersedes what the directory holds,
// advancing the stream and recording the delta. The bool reports
// acceptance — a rejected (stale or equal) entry changes nothing and
// must not be re-gossiped, which is what makes relaying loop-safe.
func (d *directory) merge(e wire.DirectoryEntry, now time.Time, ttl time.Duration) bool {
	cur, ok := d.entries[e.Domain]
	if ok && !entryNewer(e, cur) {
		return false
	}
	d.entries[e.Domain] = e
	if e.Tombstone {
		d.deadAt[e.Domain] = now.Add(ttl)
	} else {
		delete(d.deadAt, e.Domain)
	}
	d.stream.advance(e)
	return true
}

// lookup resolves a domain to its live entry; tombstoned and unknown
// domains both miss.
func (d *directory) lookup(domain string) (wire.DirectoryEntry, bool) {
	e, ok := d.entries[domain]
	if !ok || e.Tombstone {
		return wire.DirectoryEntry{}, false
	}
	return e, true
}

// domainOf reports which live domain (if any) the given gateway is the
// origin of; the confinement check uses it to skip WAN peers that
// provably serve a different namespace.
func (d *directory) domainOf(id wire.NodeID) (string, bool) {
	for _, e := range d.entries {
		if e.Origin == id && !e.Tombstone {
			return e.Domain, true
		}
	}
	return "", false
}

// since merges the history past acked into one entry set: the newest
// record per domain, sorted for deterministic wire bytes.
func (d *directory) since(acked uint64) []wire.DirectoryEntry {
	latest := make(map[string]wire.DirectoryEntry)
	for _, e := range d.stream.since(acked) {
		latest[e.Domain] = e
	}
	return sortedEntries(latest)
}

// fullEntries renders the whole directory as a snapshot delta.
func (d *directory) fullEntries() []wire.DirectoryEntry {
	return sortedEntries(d.entries)
}

// expire drops tombstones whose propagation window lapsed. Expiry is
// local-only aging (no stream advance): by construction every live
// gateway heard the tombstone within the TTL or will take a full
// snapshot that no longer carries it.
func (d *directory) expire(now time.Time) int {
	n := 0
	for domain, at := range d.deadAt {
		if !at.After(now) {
			delete(d.deadAt, domain)
			delete(d.entries, domain)
			n++
		}
	}
	return n
}

// counts returns resident live and tombstoned entry counts for gauges.
func (d *directory) counts() (live, dead int) {
	for _, e := range d.entries {
		if e.Tombstone {
			dead++
		} else {
			live++
		}
	}
	return
}

func sortedEntries(m map[string]wire.DirectoryEntry) []wire.DirectoryEntry {
	if len(m) == 0 {
		return nil
	}
	out := make([]wire.DirectoryEntry, 0, len(m))
	for _, e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

// --- registry integration ---

// dirEnabled reports whether this registry participates in the
// hierarchy (gossips and resolves through the directory).
func (r *Registry) dirEnabled() bool { return r.cfg.Role != RoleStandalone }

// announceDomain authors (or re-versions) this gateway's own directory
// entry. Called at Start, and with tombstone at Stop.
func (r *Registry) announceDomain(tombstone bool) {
	if r.cfg.Domain == "" {
		return
	}
	r.ownDirVersion++
	r.dir.merge(wire.DirectoryEntry{
		Domain:    r.cfg.Domain,
		Origin:    r.env.ID,
		Addr:      string(r.env.Addr()),
		Version:   r.ownDirVersion,
		Tombstone: tombstone,
	}, r.now(), r.cfg.TombstoneTTL)
	r.updateDirGauges()
}

// gossipDirectory is the periodic anti-entropy tick: age tombstones
// out, then bring every peer up to the current stream.
func (r *Registry) gossipDirectory() {
	if n := r.dir.expire(r.now()); n > 0 {
		fDirTombExpired.Add(uint64(n))
		r.updateDirGauges()
	}
	if r.dir.version == 0 {
		return
	}
	for _, p := range r.sortedPeers() {
		r.sendDirectoryTo(p)
	}
}

// sendDirectoryTo sends one peer whatever directory state it needs this
// tick: nothing (fully acked), the entries since its ack, or a full
// snapshot.
func (r *Registry) sendDirectoryTo(p *peer) {
	d := r.dir
	base := p.dirs.acked
	switch p.dirs.next(d.version, d.covers(base), directoryFullEvery) {
	case sendNothing:
		fDirDeltaSkipped.Inc()
	case sendFull:
		r.env.Send(transport.Addr(p.info.Addr), wire.DirectoryDelta{
			Version: d.version, Full: true, Entries: d.fullEntries(),
		})
		fDirDeltaFull.Inc()
	case sendDelta:
		r.env.Send(transport.Addr(p.info.Addr), wire.DirectoryDelta{
			Version: d.version, Base: base, Entries: d.since(base),
		})
		fDirDeltaSent.Inc()
	}
}

// handleDirectoryDelta merges a peer's directory update. Entries merge
// individually (a full snapshot is just a bigger merge, never a wipe);
// the Base check detects a gap in the peer's stream — a lost delta may
// have carried an entry nothing else will re-send — and demands a
// resync. Only a *forward* gap (Base past what we hold) is a gap: a
// delta based before our position is a superset of what we need, and
// the monotone merge makes replaying it safe. Rejecting those — the
// sender's Base lags while its ack to us is still in flight — would
// turn a departing gateway's final tombstone delta into a Resync
// request to a node that no longer exists, losing the retraction
// permanently. A delta from an unknown sender first learns it as a
// peer — like a Ping, it proves the sender is a federation gateway,
// and dropping it could strand such a final delta too.
func (r *Registry) handleDirectoryDelta(env *wire.Envelope, addr transport.Addr, dd *wire.DirectoryDelta) {
	if !r.dirEnabled() {
		return
	}
	p := r.addPeer(wire.PeerInfo{ID: env.From, Addr: env.FromAddr}, false)
	if p == nil {
		return
	}
	p.lastSeen = r.now()
	if !dd.Full && dd.Version <= p.dirs.got {
		// Duplicate or reordered: this span was already applied. Re-ack
		// our position so the sender still advances.
		fDirDeltaStale.Inc()
		r.env.Send(addr, wire.DirectoryAck{Version: p.dirs.got})
		return
	}
	now := r.now()
	accepted := 0
	for _, e := range dd.Entries {
		if r.dir.merge(e, now, r.cfg.TombstoneTTL) {
			accepted++
		} else {
			fDirMergeStale.Inc()
		}
	}
	if accepted > 0 {
		fDirMergeApplied.Add(uint64(accepted))
		r.updateDirGauges()
	}
	if !dd.Full && dd.Base > p.dirs.got {
		// Gap: the span (got, Base] never arrived — a delta was lost, or
		// the sender's Bye overtook its final delta and this is a fresh
		// peer struct. The entries above were merged regardless (the
		// monotone merge makes a partial stream safe to apply, and for a
		// departing sender they are the last chance to hear its
		// tombstone); the resync only recovers the missed span, so got
		// must not advance past it.
		fDirDeltaStale.Inc()
		r.env.Send(addr, wire.DirectoryAck{Version: p.dirs.got, Resync: true})
		return
	}
	p.dirs.got = dd.Version
	r.env.Send(addr, wire.DirectoryAck{Version: dd.Version})
}

// handleDirectoryAck advances the sender's per-peer directory ack.
func (r *Registry) handleDirectoryAck(from wire.NodeID, a *wire.DirectoryAck) {
	if !r.dirEnabled() {
		return
	}
	p, ok := r.peers[from]
	if !ok {
		return
	}
	p.lastSeen = r.now()
	if a.Resync {
		fDirResyncs.Inc()
	}
	p.dirs.ack(a.Version, a.Resync)
}

func (r *Registry) updateDirGauges() {
	live, dead := r.dir.counts()
	fDirEntries.Set(int64(live))
	fDirTombstones.Set(int64(dead))
}

// Role returns the registry's configured federation role.
func (r *Registry) Role() Role { return r.cfg.Role }

// Domain returns the registry's configured federation domain.
func (r *Registry) Domain() string { return r.cfg.Domain }

// DirectorySnapshot returns a sorted copy of the current domain
// directory (tombstones included) — the convergence probe experiments
// and tests compare across gateways and same-seed runs.
func (r *Registry) DirectorySnapshot() []wire.DirectoryEntry {
	return r.dir.fullEntries()
}
