// Package discovery implements registry discovery and failover for
// client and service nodes (§4.5): active discovery by multicast probe,
// passive discovery by listening to registry beacons, manual seeding
// for WAN registries, and the registry-signaling failover that lets a
// node switch to an alternate registry when its current one disappears
// — "reduce the amount of tedious, manual reconfiguration of registry
// endpoints".
package discovery

import (
	"time"

	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Config tunes a bootstrapper.
type Config struct {
	// Seeds are statically configured registries (WAN seeding).
	Seeds []wire.PeerInfo
	// SeedAddrs seeds by transport address alone; the registry's
	// identity is learned from its Pong. Used by live UDP deployments.
	SeedAddrs []string
	// ProbeInterval spaces re-probes while no registry is known;
	// default 2 s.
	ProbeInterval time.Duration
	// RegistryTTL ages out registries we have not heard from; default
	// 3× the federation's default beacon interval (15 s).
	RegistryTTL time.Duration
	// Probation spaces liveness re-probes of registries marked dead.
	// A demoted registry is pinged every Probation interval until it
	// answers (a Pong revives it — it is readopted) or it is forgotten;
	// without this, one transient failure would blacklist a registry
	// forever. Default = ProbeInterval.
	Probation time.Duration
	// Passive disables active probing entirely: registries are learned
	// only from beacons, seeds and signaling. Probe-free operation
	// suits radio-silent nodes and the pure decentralized baseline.
	// Probation re-probes are also suppressed.
	Passive bool
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.RegistryTTL == 0 {
		c.RegistryTTL = 15 * time.Second
	}
	if c.Probation == 0 {
		c.Probation = c.ProbeInterval
	}
	return c
}

type known struct {
	info     wire.PeerInfo
	lastSeen time.Time
	// local marks registries heard on the LAN (preferred connection
	// points over remote seeds).
	local bool
	// dead marks registries that failed a request; they are demoted
	// until heard from again.
	dead bool
}

// Bootstrapper tracks known registries for one node and selects the
// current connection point into the registry network.
type Bootstrapper struct {
	env     *runtime.Env
	cfg     Config
	regs    map[wire.NodeID]*known
	stopped bool
	cancels []transport.CancelFunc
	// probation is the pending probation re-probe timer; armed while at
	// least one registry is marked dead, nil otherwise.
	probation transport.CancelFunc
	// onFound, when set, fires once each time the node transitions from
	// "no registry" to "registry available".
	onFound func()
}

// New returns a bootstrapper. Call Start to begin discovery.
func New(env *runtime.Env, cfg Config) *Bootstrapper {
	return &Bootstrapper{
		env:  env,
		cfg:  cfg.withDefaults(),
		regs: make(map[wire.NodeID]*known),
	}
}

// OnRegistryFound registers a callback invoked whenever a registry
// becomes available after a period with none (service nodes republish
// on this signal).
func (b *Bootstrapper) OnRegistryFound(fn func()) { b.onFound = fn }

// Start seeds the table and begins probing.
func (b *Bootstrapper) Start() {
	now := b.env.Clock.Now()
	for _, s := range b.cfg.Seeds {
		if s.ID != b.env.ID {
			b.regs[s.ID] = &known{info: s, lastSeen: now}
		}
	}
	if !b.cfg.Passive {
		b.probe()
	}
	var arm func()
	arm = func() {
		if b.stopped {
			return
		}
		b.expire()
		if _, ok := b.Current(); !ok && !b.cfg.Passive {
			b.probe()
		}
		b.cancels = append(b.cancels, b.env.Clock.After(b.cfg.ProbeInterval, arm))
	}
	b.cancels = append(b.cancels, b.env.Clock.After(b.cfg.ProbeInterval, arm))
}

// Stop cancels the probe and probation timers.
func (b *Bootstrapper) Stop() {
	b.stopped = true
	for _, c := range b.cancels {
		c()
	}
	b.cancels = nil
	if b.probation != nil {
		b.probation()
		b.probation = nil
	}
}

func (b *Bootstrapper) probe() {
	b.env.Multicast(wire.Probe{})
	// Address-only seeds are pinged until they identify themselves.
	for _, addr := range b.cfg.SeedAddrs {
		if addr != string(b.env.Addr()) {
			b.env.Send(transport.Addr(addr), wire.Ping{})
		}
	}
}

func (b *Bootstrapper) expire() {
	cutoff := b.env.Clock.Now().Add(-b.cfg.RegistryTTL)
	for id, k := range b.regs {
		// Only LAN registries age out by beacon silence; seeds stay
		// unless marked dead (no beacons cross the WAN).
		if k.local && k.lastSeen.Before(cutoff) {
			delete(b.regs, id)
		}
	}
}

// Observe feeds a maintenance message into the table. Nodes call it
// from their message handlers for Beacon, ProbeMatch, Pong and Bye
// envelopes; other message types are ignored.
func (b *Bootstrapper) Observe(env *wire.Envelope) {
	hadRegistry := b.hasLive()
	switch body := env.Body.(type) {
	case *wire.Beacon:
		b.learnDirect(env, true)
		b.learn(body.Peers)
	case *wire.ProbeMatch:
		b.learnDirect(env, true)
		b.learn(body.Peers)
	case *wire.Pong:
		b.learnDirect(env, false)
		b.learn(body.Peers)
	case *wire.Bye:
		delete(b.regs, env.From)
	default:
		return
	}
	if !hadRegistry && b.hasLive() && b.onFound != nil {
		b.onFound()
	}
}

func (b *Bootstrapper) learnDirect(env *wire.Envelope, local bool) {
	if env.From == b.env.ID {
		return
	}
	k, ok := b.regs[env.From]
	if !ok {
		k = &known{info: wire.PeerInfo{ID: env.From, Addr: env.FromAddr}}
		b.regs[env.From] = k
	}
	k.info.Addr = env.FromAddr
	k.lastSeen = b.env.Clock.Now()
	if k.dead {
		// Probation ends: the registry answered (probation ping, beacon
		// or pong) and is readopted as a connection point.
		k.dead = false
		dRevived.Inc()
	}
	if local {
		k.local = true
	}
}

// learn adds signaled alternates without marking them live-local.
func (b *Bootstrapper) learn(peers []wire.PeerInfo) {
	now := b.env.Clock.Now()
	for _, p := range peers {
		if p.ID == b.env.ID || p.ID.IsNil() {
			continue
		}
		if _, ok := b.regs[p.ID]; !ok {
			b.regs[p.ID] = &known{info: p, lastSeen: now}
		}
	}
}

// MarkDead demotes a registry after a failed request, triggering
// failover to an alternate and an immediate re-probe. The demotion is
// probation, not a permanent blacklist: the registry is re-pinged every
// Probation interval and readopted as soon as it answers, so a
// transient partition does not force permanent decentralized fallback.
func (b *Bootstrapper) MarkDead(id wire.NodeID) {
	if k, ok := b.regs[id]; ok && !k.dead {
		k.dead = true
		dMarkedDead.Inc()
	}
	if !b.hasLive() && !b.cfg.Passive {
		b.probe()
	}
	b.armProbation()
}

// armProbation schedules the next liveness re-probe of demoted
// registries; it keeps re-arming itself while any remain dead.
func (b *Bootstrapper) armProbation() {
	if b.stopped || b.probation != nil || b.cfg.Passive {
		return
	}
	b.probation = b.env.Clock.After(b.cfg.Probation, func() {
		b.probation = nil
		if b.stopped {
			return
		}
		again := false
		for _, k := range b.regs {
			if k.dead {
				b.env.Send(transport.Addr(k.info.Addr), wire.Ping{})
				dProbationProbes.Inc()
				again = true
			}
		}
		if again {
			b.armProbation()
		}
	})
}

func (b *Bootstrapper) hasLive() bool {
	for _, k := range b.regs {
		if !k.dead {
			return true
		}
	}
	return false
}

// Current returns the preferred registry: a live local one if any
// (lowest ID for determinism), otherwise a live seeded/signaled one.
// ok=false means the node is registry-less and should fall back to
// decentralized discovery (Fig. 3 right).
func (b *Bootstrapper) Current() (wire.PeerInfo, bool) {
	var bestLocal, bestAny *known
	for _, k := range b.regs {
		if k.dead {
			continue
		}
		if bestAny == nil || uuid.Compare(k.info.ID, bestAny.info.ID) < 0 {
			bestAny = k
		}
		if k.local && (bestLocal == nil || uuid.Compare(k.info.ID, bestLocal.info.ID) < 0) {
			bestLocal = k
		}
	}
	if bestLocal != nil {
		return bestLocal.info, true
	}
	if bestAny != nil {
		return bestAny.info, true
	}
	return wire.PeerInfo{}, false
}

// Known returns the full table size (dead or alive), for tests and
// reports.
func (b *Bootstrapper) Known() int { return len(b.regs) }
