// Package federation implements the paper's central proposal: the
// autonomous, dynamically federated registry node (§4 and MILCOM'07).
// Each Registry is a super-peer that
//
//   - stores complete ("thick") advertisements and evaluates queries
//     itself via the pluggable description models,
//   - beacons on its LAN for passive registry discovery and answers
//     multicast probes for active discovery (§4.5),
//   - federates with peer registries across LANs: aliveness pings,
//     registry signaling (sharing alternate registry addresses),
//     summary gossip, and advertisement push (§4.9),
//   - forwards queries through the registry network under a selectable
//     strategy (flood / expanding ring / k-random-walk) with unique
//     query IDs for loop avoidance, aggregating results along the
//     reverse path so the entry registry can exercise query response
//     control before answering the client (§3.1, §4.7),
//   - coordinates with co-located registries so only one LAN gateway
//     forwards to the WAN (§4.7),
//   - purges advertisements whose leases lapse (§4.8), and
//   - serves ontology/schema artifacts (§4.6).
//
// The Registry is a sans-I/O state machine: the runtime guarantees
// handlers and timers never run concurrently.
//
// Protocol activity is instrumented: the federation.* runtime metrics
// (query receipt/forwarding/pruning, beacon and summary traffic, read
// pool usage) count every loop above; see OBSERVABILITY.md. The
// per-registry Stats struct carries the same query counts scoped to one
// registry instance.
package federation

import (
	"math/rand"
	"sort"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Config tunes a federated registry. Zero values become the listed
// defaults — the "configurable on an individual deployment basis"
// parameters the paper enumerates (beacon interval, query TTL, lease
// period, cooperation mode, …).
type Config struct {
	// BeaconInterval spaces LAN beacons; default 5 s.
	BeaconInterval time.Duration
	// PingInterval spaces aliveness pings to quiet peers; default 10 s.
	PingInterval time.Duration
	// PeerTimeout expires unresponsive peers; default 30 s.
	PeerTimeout time.Duration
	// SummaryInterval spaces summary gossip; 0 disables sending
	// summaries; default 15 s when SummaryPruning is set, else off.
	SummaryInterval time.Duration
	// SummaryPruning skips forwarding to peers whose summaries cannot
	// match the query.
	SummaryPruning bool
	// PushReplication forwards received advertisements to peers
	// (replication-style cooperation); PushHops bounds the spread.
	PushReplication bool
	// PushHops defaults to 1.
	PushHops uint8
	// GatewayCoordination makes only the lowest-ID registry on a LAN
	// forward queries to WAN peers.
	GatewayCoordination bool
	// QueryTimeout is the per-hop result aggregation budget multiplied
	// by remaining TTL+1; default 250 ms.
	QueryTimeout time.Duration
	// PurgeInterval spaces lease-expiry sweeps; default 500 ms.
	PurgeInterval time.Duration
	// SeenTTL is how long a handled query ID is remembered for loop
	// avoidance: at least this long, at most twice (see seenSet, which
	// also bounds the memory by size); default 60 s.
	SeenTTL time.Duration
	// MaxPeers bounds the peer table; default 32.
	MaxPeers int
	// Seeds are well-known registries contacted at start — the manual
	// seeding that connects LANs into a WAN registry network (§4.5).
	Seeds []wire.PeerInfo
	// SeedAddrs seeds by transport address alone (used by live UDP
	// deployments where peer node IDs are not known in advance); the
	// peer is learned from its Pong.
	SeedAddrs []string
	// Seed drives the walker-selection RNG.
	Seed int64
	// ReadWorkers, when positive, evaluates incoming queries on a
	// worker pool of that size instead of the node goroutine, so slow
	// semantic matchmaking does not stall protocol handling. All
	// state-mutating envelopes stay serialized on the node goroutine.
	// The default 0 keeps evaluation synchronous — required under the
	// deterministic simulator; enable only over the real UDP runtime.
	ReadWorkers int
	// ResultCacheSize, when positive, enables the gateway's remote
	// result cache of that many entries: completed fan-out results are
	// reused for repeated identical queries, bounded by the minimum
	// lease duration among the cached adverts (§4.8: a result is only
	// as fresh as its shortest lease). 0 disables it — remote caching
	// trades WAN bandwidth for bounded staleness, so it is opt-in.
	ResultCacheSize int
	// ResultCacheMaxTTL caps how long any remote result is reused even
	// when its leases run longer; default 5 s.
	ResultCacheMaxTTL time.Duration
	// SummaryFullEvery forces a full summary resync every Nth summary
	// tick per peer, bounding silent divergence under lost deltas;
	// default 16. Deltas are sent on the ticks in between.
	SummaryFullEvery int
	// FullSummaries disables the incremental delta protocol and sends
	// a whole summary to every peer each tick (the pre-delta behaviour,
	// kept for ablation experiments).
	FullSummaries bool

	// Role places the registry in the federation hierarchy (directory.go):
	// standalone (default, flat federation), federated (domain gateway),
	// or root (the cascade's fallback resolver).
	Role Role
	// Domain names the namespace this gateway fronts; federated and root
	// registries with a Domain author its directory entry.
	Domain string
	// RootAddr is where a federated gateway escalates queries for
	// domains its directory does not know. Listing the root in Seeds as
	// well lets escalated queries complete promptly instead of on the
	// hop deadline.
	RootAddr string
	// DirectoryInterval spaces directory anti-entropy gossip;
	// default 10 s when Role is not standalone.
	DirectoryInterval time.Duration
	// TombstoneTTL bounds how long a departed domain's tombstone is
	// retained (and re-gossiped) before aging out; default 2 m.
	TombstoneTTL time.Duration
}

const (
	// maxPeerShare bounds peer lists in signaling messages.
	maxPeerShare = 5
	// resultCacheEmptyTTL bounds reuse of empty remote results, so a
	// service published moments after a miss becomes discoverable quickly.
	resultCacheEmptyTTL = time.Second
)

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d == 0 {
			*d = v
		}
	}
	def(&c.BeaconInterval, 5*time.Second)
	def(&c.PingInterval, 10*time.Second)
	def(&c.PeerTimeout, 30*time.Second)
	if c.SummaryInterval == 0 && c.SummaryPruning {
		c.SummaryInterval = 15 * time.Second
	}
	if c.PushHops == 0 {
		c.PushHops = 1
	}
	def(&c.QueryTimeout, 250*time.Millisecond)
	def(&c.PurgeInterval, 500*time.Millisecond)
	def(&c.SeenTTL, 60*time.Second)
	if c.MaxPeers == 0 {
		c.MaxPeers = 32
	}
	def(&c.ResultCacheMaxTTL, 5*time.Second)
	if c.SummaryFullEvery == 0 {
		c.SummaryFullEvery = 16
	}
	if c.Role != RoleStandalone {
		def(&c.DirectoryInterval, 10*time.Second)
	}
	def(&c.TombstoneTTL, 2*time.Minute)
	return c
}

// Stats counts the registry's protocol activity for experiments.
type Stats struct {
	QueriesReceived      uint64
	DuplicatesSuppressed uint64
	QueriesForwarded     uint64
	ForwardsPruned       uint64
	QueriesAnswered      uint64
	ResultsReturned      uint64
	AdvertsPushed        uint64
	PeersExpired         uint64
}

type peer struct {
	info     wire.PeerInfo
	lastSeen time.Time
	// lan marks peers discovered via LAN multicast (beacons/probes).
	lan bool
	// summary holds the peer's last gossiped tokens per kind.
	summary map[describe.Kind]map[string]bool

	// sum and dirs are this peer's positions on the two anti-entropy
	// streams (stream.go): summary deltas and the domain directory.
	sum, dirs peerStream
}

// Registry is one federated registry node.
type Registry struct {
	env   *runtime.Env
	store *registry.Store
	cfg   Config
	rng   *rand.Rand
	pool  *runtime.WorkerPool // nil when ReadWorkers == 0

	peers   map[wire.NodeID]*peer
	seen    seenSet
	pending map[uuid.UUID]*pendingQuery
	rcache  *resultCache // nil when ResultCacheSize == 0

	gatewayOverride *bool // test hook; nil = derive from LAN peers

	// dsum is the sender state of the incremental summary protocol:
	// the versioned snapshot and the bounded delta history (delta.go).
	dsum deltaSummaryState

	// dir is the gossiped domain directory (registry-of-registries);
	// ownDirVersion is the per-origin version of this gateway's own
	// entry in it (directory.go).
	dir           *directory
	ownDirVersion uint64

	stats   Stats
	stopped bool
	cancels []transport.CancelFunc
}

// New constructs a federated registry over the given store and
// environment. Call Start to arm its timers.
func New(env *runtime.Env, store *registry.Store, cfg Config) *Registry {
	cfg = cfg.withDefaults()
	var rcache *resultCache
	if cfg.ResultCacheSize > 0 {
		rcache = newResultCache(cfg.ResultCacheSize, cfg.ResultCacheMaxTTL, resultCacheEmptyTTL)
	}
	return &Registry{
		env:     env,
		store:   store,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		pool:    runtime.NewWorkerPool(cfg.ReadWorkers, 4*cfg.ReadWorkers),
		peers:   make(map[wire.NodeID]*peer),
		seen:    newSeenSet(seenCap),
		pending: make(map[uuid.UUID]*pendingQuery),
		rcache:  rcache,
		dir:     newDirectory(),
	}
}

// Store exposes the underlying registry store.
func (r *Registry) Store() *registry.Store { return r.store }

// Stats returns a copy of the protocol counters.
func (r *Registry) Stats() Stats { return r.stats }

// ID returns the registry's node ID.
func (r *Registry) ID() wire.NodeID { return r.env.ID }

// Addr returns the registry's transport address.
func (r *Registry) Addr() transport.Addr { return r.env.Addr() }

// Start announces the registry (immediate beacon + probe for other
// registries), contacts the configured seeds, and arms the periodic
// timers.
func (r *Registry) Start() {
	r.sendBeacon()
	// Probe so co-located registries answer and both sides learn each
	// other immediately rather than after one beacon interval.
	r.env.Multicast(wire.Probe{})
	for _, s := range r.cfg.Seeds {
		if s.ID != r.env.ID {
			r.addPeer(s, false)
			r.env.Send(transport.Addr(s.Addr), wire.Ping{FromRegistry: true})
		}
	}
	for _, addr := range r.cfg.SeedAddrs {
		if addr != string(r.env.Addr()) {
			r.env.Send(transport.Addr(addr), wire.Ping{FromRegistry: true})
		}
	}
	r.every(r.cfg.BeaconInterval, r.sendBeacon)
	r.every(r.cfg.PingInterval, r.pingPeers)
	r.every(r.cfg.PurgeInterval, r.purge)
	r.every(r.cfg.SeenTTL, r.seen.rotate)
	if r.cfg.SummaryInterval > 0 {
		r.every(r.cfg.SummaryInterval, r.sendSummaries)
	}
	if r.dirEnabled() {
		r.announceDomain(false)
		r.every(r.cfg.DirectoryInterval, r.gossipDirectory)
	}
}

// Stop announces departure and cancels all timers.
func (r *Registry) Stop() {
	if r.stopped {
		return
	}
	r.stopped = true
	// A departing domain gateway retracts its directory entry: the
	// tombstone goes out best-effort on the normal delta path, and other
	// gateways relay it on (transitive gossip) to anyone who missed it.
	if r.dirEnabled() && r.cfg.Domain != "" {
		r.announceDomain(true)
		for _, p := range r.sortedPeers() {
			r.sendDirectoryTo(p)
		}
	}
	r.env.Multicast(wire.Bye{})
	for _, p := range r.sortedPeers() {
		if !p.lan {
			r.env.Send(transport.Addr(p.info.Addr), wire.Bye{})
		}
	}
	for _, c := range r.cancels {
		c()
	}
	r.cancels = nil
	r.pool.Close()
}

// Crash halts the registry abruptly — no Bye, no cleanup visible to
// peers — simulating the sudden failures of dynamic environments. Peers
// only learn of the death through ping timeouts and clients through
// request timeouts.
func (r *Registry) Crash() {
	r.stopped = true
	for _, c := range r.cancels {
		c()
	}
	r.cancels = nil
	r.pool.Close()
}

// every arms a self-rearming timer. Each timer owns one slot in
// r.cancels, overwritten on re-arm, so the handle table stays as long as
// the number of armed timers however many times they tick.
func (r *Registry) every(d time.Duration, fn func()) {
	slot := len(r.cancels)
	var arm func()
	arm = func() {
		if r.stopped {
			return
		}
		fn()
		r.cancels[slot] = r.env.Clock.After(d, arm)
	}
	r.cancels = append(r.cancels, r.env.Clock.After(d, arm))
}

func (r *Registry) now() time.Time { return r.env.Clock.Now() }

// --- peer table ---

func (r *Registry) addPeer(info wire.PeerInfo, lan bool) *peer {
	if info.ID == r.env.ID || info.ID.IsNil() {
		return nil
	}
	p, ok := r.peers[info.ID]
	if !ok {
		if len(r.peers) >= r.cfg.MaxPeers {
			r.evictOldestPeer()
		}
		// A fresh peer struct must start from a full resync on both delta
		// streams, even if the node itself was known before (evicted and
		// re-learned moments later via signaling): the old per-peer state
		// is gone, so a delta against the stale base — or one sent from a
		// phantom acked version still in flight — would corrupt the view.
		p = &peer{info: info, lastSeen: r.now(), sum: peerStream{needFull: true}, dirs: peerStream{needFull: true}}
		r.peers[info.ID] = p
	}
	p.info.Addr = info.Addr
	if lan {
		p.lan = true
	}
	return p
}

func (r *Registry) touchPeer(id wire.NodeID) {
	if p, ok := r.peers[id]; ok {
		p.lastSeen = r.now()
	}
}

// evictOldestPeer drops the least recently heard peer; ties go to the
// lowest node ID, never to map iteration order, so one seed yields one
// trace.
func (r *Registry) evictOldestPeer() {
	var victim *peer
	for _, p := range r.peers {
		if victim == nil || p.lastSeen.Before(victim.lastSeen) ||
			(p.lastSeen.Equal(victim.lastSeen) && uuid.Compare(p.info.ID, victim.info.ID) < 0) {
			victim = p
		}
	}
	if victim != nil {
		delete(r.peers, victim.info.ID)
	}
}

// sortedPeers returns live peers in deterministic (ID) order.
func (r *Registry) sortedPeers() []*peer {
	out := make([]*peer, 0, len(r.peers))
	for _, p := range r.peers {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		return uuid.Compare(out[i].info.ID, out[j].info.ID) < 0
	})
	return out
}

// Peers returns the current peer list (registry signaling content).
func (r *Registry) Peers() []wire.PeerInfo {
	ps := r.sortedPeers()
	out := make([]wire.PeerInfo, len(ps))
	for i, p := range ps {
		out[i] = p.info
	}
	return out
}

// sharePeers selects up to maxPeerShare peers (self first) for
// signaling messages, so clients and peers always learn alternates.
func (r *Registry) sharePeers() []wire.PeerInfo {
	out := []wire.PeerInfo{{ID: r.env.ID, Addr: string(r.env.Addr())}}
	for _, p := range r.sortedPeers() {
		if len(out) > maxPeerShare {
			break
		}
		out = append(out, p.info)
	}
	return out
}

// IsGateway reports whether this registry currently holds the LAN
// gateway role: the lowest node ID among itself and the live registries
// it has heard beacon on its LAN. With coordination disabled every
// registry acts as a gateway.
func (r *Registry) IsGateway() bool {
	if !r.cfg.GatewayCoordination {
		return true
	}
	if r.gatewayOverride != nil {
		return *r.gatewayOverride
	}
	for _, p := range r.peers {
		if p.lan && uuid.Compare(p.info.ID, r.env.ID) < 0 {
			return false
		}
	}
	return true
}

// --- periodic duties ---

func (r *Registry) sendBeacon() {
	r.env.Multicast(wire.Beacon{Peers: r.sharePeers()})
	fBeaconsSent.Inc()
}

func (r *Registry) pingPeers() {
	now := r.now()
	// Sorted, not map order: the send order decides which jitter draws
	// each ping gets, and same seed must mean same trace.
	for _, p := range r.sortedPeers() {
		idle := now.Sub(p.lastSeen)
		if idle >= r.cfg.PeerTimeout {
			delete(r.peers, p.info.ID)
			r.stats.PeersExpired++
			fPeersExpired.Inc()
			continue
		}
		if idle >= r.cfg.PingInterval && !p.lan {
			r.env.Send(transport.Addr(p.info.Addr), wire.Ping{FromRegistry: true})
		}
	}
	// Configured seeds are durable intent: if a seed dropped out of the
	// peer table (e.g. a network partition outlived the peer timeout),
	// keep trying it so the federation re-forms after a heal.
	for _, s := range r.cfg.Seeds {
		if s.ID == r.env.ID {
			continue
		}
		if _, known := r.peers[s.ID]; !known {
			r.env.Send(transport.Addr(s.Addr), wire.Ping{FromRegistry: true})
		}
	}
	for _, addr := range r.cfg.SeedAddrs {
		if addr == string(r.env.Addr()) {
			continue
		}
		known := false
		for _, p := range r.peers {
			if p.info.Addr == addr {
				known = true
				break
			}
		}
		if !known {
			r.env.Send(transport.Addr(addr), wire.Ping{FromRegistry: true})
		}
	}
}

func (r *Registry) purge() {
	purged := r.store.ExpireThrough(r.now())
	if len(purged) > 0 {
		r.env.Tracef("purged %d expired adverts", len(purged))
	}
	if n := r.store.PruneSubscriptions(r.now()); n > 0 {
		r.env.Tracef("pruned %d expired subscriptions", n)
	}
}

// subscriptionLease clamps requested subscription leases; reusing the
// advertisement policy's spirit with a 60 s default.
func subscriptionLease(requestedMillis uint64) time.Duration {
	d := time.Duration(requestedMillis) * time.Millisecond
	switch {
	case d <= 0:
		return time.Minute
	case d < time.Second:
		return time.Second
	case d > 10*time.Minute:
		return 10 * time.Minute
	default:
		return d
	}
}

func (r *Registry) handleSubscribe(from transport.Addr, b *wire.Subscribe) {
	granted := subscriptionLease(b.LeaseMillis)
	notify := b.NotifyAddr
	if notify == "" {
		notify = string(from)
	}
	subID := b.SubID
	_, lsn, err := r.store.SubscribeAsync(b.Kind, b.Payload, notify, subID, r.now().Add(granted))
	r.whenDurable(lsn, func(derr error) {
		if err == nil {
			err = derr
		}
		ack := wire.SubscribeAck{SubID: subID, OK: err == nil, LeaseMillis: uint64(granted / time.Millisecond)}
		if err != nil {
			ack.Error = err.Error()
		}
		r.env.Send(from, ack)
	})
}

// whenDurable runs fn on the node goroutine once the store mutation
// that returned lsn is durable (derr == nil) or can no longer be. The
// handler that applied the mutation returns at once; the barrier runs
// off the node goroutine and its completion re-enters through the
// timer queue, exactly like a read-pool result (query.go), so the
// acknowledgement — and anything else that must not leave before the
// state is durable — is sent from fn. LSN 0 (memory store, or a renewal
// the store lets ack early) needs no wait: fn runs inline, with no
// re-entry, so a memnet trace is the same as when every mutation was
// synchronous. A stopped registry runs no completion.
func (r *Registry) whenDurable(lsn uint64, fn func(derr error)) {
	if lsn == 0 {
		fn(nil)
		return
	}
	r.store.WhenDurable(lsn, func(derr error) {
		r.env.Clock.After(0, func() {
			if !r.stopped {
				fn(derr)
			}
		})
	})
}

func (r *Registry) sendSummaries() {
	sum := r.store.Summary()
	if r.cfg.FullSummaries {
		// Ablation path: gossip the whole summary every tick.
		if len(sum) == 0 {
			return
		}
		for _, p := range r.sortedPeers() {
			r.env.Send(transport.Addr(p.info.Addr), wire.Summary{Entries: sum})
			fSummariesSent.Inc()
		}
		return
	}
	r.dsum.advance(sum)
	if r.dsum.version == 0 {
		return // nothing was ever advertised
	}
	for _, p := range r.sortedPeers() {
		r.sendSummaryTo(p)
	}
}

// HandleEnvelope implements runtime.Handler.
func (r *Registry) HandleEnvelope(env *wire.Envelope, from transport.Addr) {
	if r.stopped {
		return
	}
	switch b := env.Body.(type) {
	case *wire.Probe:
		// Active registry discovery: answer with ourselves + alternates.
		r.env.Send(from, wire.ProbeMatch{Peers: r.sharePeers()})
	case *wire.Beacon:
		// Beacons only travel by LAN multicast, so the sender is local.
		r.addPeer(wire.PeerInfo{ID: env.From, Addr: env.FromAddr}, true)
		r.touchPeer(env.From)
		r.learnPeers(b.Peers)
	case *wire.ProbeMatch:
		r.addPeer(wire.PeerInfo{ID: env.From, Addr: env.FromAddr}, true)
		r.touchPeer(env.From)
		r.learnPeers(b.Peers)
	case *wire.Bye:
		delete(r.peers, env.From)
	case *wire.Ping:
		if b.FromRegistry {
			r.addPeer(wire.PeerInfo{ID: env.From, Addr: env.FromAddr}, false)
			r.touchPeer(env.From)
		}
		r.env.Send(from, wire.Pong{Peers: r.sharePeers()})
	case *wire.Pong:
		r.addPeer(wire.PeerInfo{ID: env.From, Addr: env.FromAddr}, false)
		r.touchPeer(env.From)
		r.learnPeers(b.Peers)
	case *wire.PeerExchange:
		r.touchPeer(env.From)
		r.learnPeers(b.Peers)
	case *wire.Summary:
		r.handleSummary(env.From, b)
	case *wire.SummaryDelta:
		r.handleSummaryDelta(env.From, from, b)
	case *wire.SummaryAck:
		r.handleSummaryAck(env.From, b)
	case *wire.DirectoryDelta:
		r.handleDirectoryDelta(env, from, b)
	case *wire.DirectoryAck:
		r.handleDirectoryAck(env.From, b)
	case *wire.GatewayClaim:
		// A yielding gateway re-triggers election implicitly: it stops
		// beaconing as gateway; nothing to store beyond peer liveness.
		r.touchPeer(env.From)
	case *wire.Publish:
		r.handlePublish(env, from, b)
	case *wire.Renew:
		r.handleRenew(env, from, b)
	case *wire.Remove:
		r.store.RemoveAsync(b.AdvertID) // nothing acks it: the record rides the next barrier
	case *wire.AdvertForward:
		r.handleAdvertForward(env, b)
	case *wire.Query:
		r.handleQuery(env, from, b)
	case *wire.QueryResult:
		r.handleQueryResult(env, b)
	case *wire.ArtifactGet:
		data, found := r.store.Artifact(b.IRI)
		r.env.Send(from, wire.ArtifactData{IRI: b.IRI, Found: found, Data: data})
	case *wire.Subscribe:
		r.handleSubscribe(from, b)
	case *wire.ArtifactPut:
		r.store.PutArtifact(b.IRI, b.Data)
		r.env.Send(from, wire.ArtifactPutAck{IRI: b.IRI, OK: true})
	case *wire.Unsubscribe:
		r.store.Unsubscribe(b.SubID)
	default:
		r.env.Tracef("registry: ignoring %v from %s", env.Type, from)
	}
}

func (r *Registry) learnPeers(infos []wire.PeerInfo) {
	for _, in := range infos {
		r.addPeer(in, false)
	}
}

func (r *Registry) handleSummary(from wire.NodeID, s *wire.Summary) {
	p, ok := r.peers[from]
	if !ok {
		return
	}
	p.lastSeen = r.now()
	p.summary = make(map[describe.Kind]map[string]bool, len(s.Entries))
	for _, e := range s.Entries {
		set := make(map[string]bool, len(e.Tokens))
		for _, t := range e.Tokens {
			set[t] = true
		}
		p.summary[e.Kind] = set
	}
}

func (r *Registry) handlePublish(env *wire.Envelope, from transport.Addr, b *wire.Publish) {
	// The advert's payload is borrowed from the receive buffer; the
	// store retains it, so it must be cloned before crossing into the
	// store (the push fan-out below marshals synchronously and may use
	// either copy).
	adv := wire.CloneAdvert(b.Advert)
	origin := env.From
	granted, notes, lsn, err := r.store.PublishAsync(adv, r.now())
	r.whenDurable(lsn, func(derr error) {
		if err == nil {
			err = derr
		}
		ack := wire.PublishAck{AdvertID: adv.ID, OK: err == nil, LeaseMillis: uint64(granted / time.Millisecond)}
		if err != nil {
			ack.Error = err.Error()
		}
		r.env.Send(from, ack)
		r.notify(notes)
		if err == nil && r.cfg.PushReplication {
			r.pushAdvert(adv, r.cfg.PushHops, origin)
		}
	})
}

func (r *Registry) handleRenew(env *wire.Envelope, from transport.Addr, b *wire.Renew) {
	id, origin := b.AdvertID, env.From
	// A renewal of a live advert whose publish is durable comes back
	// with LSN 0 and is acked inline: its record is already on its way
	// into the next commit round, and a crash inside that round costs
	// the lease extension, never the advert (registry.RenewAsync).
	granted, ok, lsn := r.store.RenewAsync(id, r.now())
	r.whenDurable(lsn, func(derr error) {
		ok = ok && derr == nil
		if !ok {
			granted = 0
		}
		r.env.Send(from, wire.RenewAck{
			AdvertID:    id,
			OK:          ok,
			LeaseMillis: uint64(granted / time.Millisecond),
		})
		// Under push replication, renewals must refresh the replicas
		// too, or they age out at the peers while the original lives.
		if ok && r.cfg.PushReplication {
			if adv, have := r.store.Advert(id); have {
				r.pushAdvert(adv, r.cfg.PushHops, origin)
			}
		}
	})
}

func (r *Registry) handleAdvertForward(env *wire.Envelope, b *wire.AdvertForward) {
	// Replicas of content we already hold only refresh the lease; they
	// are not forwarded again, or every renewal would cascade through
	// the whole registry network.
	known := false
	if existing, ok := r.store.Advert(b.Advert.ID); ok && existing.Version >= b.Advert.Version {
		known = true
	}
	adv := wire.CloneAdvert(b.Advert) // payload is borrowed; the store retains it
	_, notes, lsn, err := r.store.PublishAsync(adv, r.now())
	if err != nil {
		return // stale or unknown kind: drop silently
	}
	forward := !known && b.HopsLeft > 0
	if len(notes) == 0 && !forward {
		return // nothing waits on the record: it rides the next barrier
	}
	hops, origin := b.HopsLeft, env.From
	r.whenDurable(lsn, func(derr error) {
		r.notify(notes)
		if derr == nil && forward {
			r.pushAdvert(adv, hops-1, origin)
		}
	})
}

// notify sends each standing-query hit of a publish to its subscriber.
func (r *Registry) notify(notes []registry.Notification) {
	for _, n := range notes {
		r.env.Send(transport.Addr(n.NotifyAddr), wire.QueryResult{
			QueryID: n.SubID,
			Adverts: []wire.Advertisement{n.Advert},
		})
	}
}

func (r *Registry) pushAdvert(adv wire.Advertisement, hops uint8, except wire.NodeID) {
	for _, p := range r.sortedPeers() {
		if p.info.ID == except || p.info.ID == adv.Provider {
			continue
		}
		r.env.Send(transport.Addr(p.info.Addr), wire.AdvertForward{Advert: adv, HopsLeft: hops})
		r.stats.AdvertsPushed++
		fAdvertsPushed.Inc()
	}
}
