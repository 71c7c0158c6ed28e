// Fault injection for the simulated network: per-link and per-scope
// fault profiles layered on top of the base latency/loss model, driven
// by the same deterministic seed so every chaos scenario replays
// identically. The primitives model the failure classes the paper's
// dynamic environments exhibit (§4.5): bursty wireless loss
// (Gilbert-Elliott), datagram duplication and reordering (retransmitting
// link layers), asymmetric congestion delay spikes, and timed network
// partitions with heal events.
//
// Profiles are installed directly (SetFault) or scripted as a
// FaultSchedule of inject/heal events executed at virtual times —
// a deterministic nemesis in the Jepsen sense.
package memnet

import (
	"fmt"
	"time"

	"semdisco/internal/obs"
	"semdisco/internal/transport"
)

// Fault-injection observability, alongside the base transport.sim.*
// traffic counters. Documented in OBSERVABILITY.md.
var (
	mFaultDropped = obs.NewCounter("transport.sim.fault.dropped.msgs", "count",
		"datagrams dropped by an injected fault profile (burst-loss draws)")
	mFaultDuplicated = obs.NewCounter("transport.sim.fault.dup.msgs", "count",
		"extra datagram copies injected by duplication faults")
	mFaultReordered = obs.NewCounter("transport.sim.fault.reordered.msgs", "count",
		"datagrams held back so later traffic overtakes them")
	mFaultDelayed = obs.NewCounter("transport.sim.fault.delayed.msgs", "count",
		"datagrams hit by an injected delay spike")
	mFaultEvents = obs.NewCounter("transport.sim.fault.events", "count",
		"fault-schedule events executed (inject, heal, partition)")
)

// FaultProfile describes the fault behaviour of one scope. The zero
// value injects nothing. Loss follows the Gilbert-Elliott two-state
// model: the link flips between a good and a bad state with the given
// per-datagram transition probabilities, and each state drops datagrams
// with its own probability — bursty loss, unlike the uniform base
// Config.Loss.
type FaultProfile struct {
	// LossGood / LossBad are drop probabilities in the good and bad
	// states. A uniform-loss profile sets both equal and leaves the
	// transition probabilities zero.
	LossGood float64
	LossBad  float64
	// PGoodBad / PBadGood are the per-datagram state transition
	// probabilities good→bad and bad→good. PBadGood controls mean burst
	// length (1/PBadGood datagrams); PGoodBad controls burst frequency.
	PGoodBad float64
	PBadGood float64
	// DupProb duplicates a delivered datagram with this probability; the
	// copy takes an independent latency draw (so copies may reorder).
	DupProb float64
	// ReorderProb holds a datagram back by ReorderDelay so traffic sent
	// after it arrives first.
	ReorderProb  float64
	ReorderDelay time.Duration
	// SpikeProb adds SpikeDelay to a datagram's latency — a congestion
	// or retransmission delay spike. Applied per direction, so an
	// asymmetric link installs a profile on one directed scope only.
	SpikeProb  float64
	SpikeDelay time.Duration
}

// zero reports whether the profile injects nothing.
func (p FaultProfile) zero() bool { return p == FaultProfile{} }

// Fault scopes name the traffic a profile applies to. Resolution is
// most-specific-first per datagram: the directed link scope, then the
// scope of the traffic class (LAN segment or WAN), then ScopeAll.
const (
	// ScopeAll matches every datagram.
	ScopeAll = "*"
	// ScopeWAN matches datagrams crossing LAN segments.
	ScopeWAN = "wan"
)

// ScopeLAN matches datagrams between nodes on one LAN segment.
func ScopeLAN(lan string) string { return "lan:" + lan }

// ScopeLink matches datagrams from one address to another — a directed
// scope, so asymmetric faults install on a single direction.
func ScopeLink(from, to transport.Addr) string {
	return fmt.Sprintf("link:%s>%s", from, to)
}

// faultState is one installed profile plus its Gilbert-Elliott loss
// state (bad=true while inside a loss burst).
type faultState struct {
	profile FaultProfile
	bad     bool
}

// SetFault installs (or replaces) the fault profile for a scope. The
// Gilbert-Elliott state restarts in the good state. A zero profile is
// equivalent to ClearFault.
func (n *Network) SetFault(scope string, p FaultProfile) {
	if p.zero() {
		n.ClearFault(scope)
		return
	}
	if n.faults == nil {
		n.faults = make(map[string]*faultState)
	}
	n.faults[scope] = &faultState{profile: p}
}

// ClearFault removes the profile installed for a scope.
func (n *Network) ClearFault(scope string) { delete(n.faults, scope) }

// faultFor resolves the profile governing one datagram,
// most-specific-first.
func (n *Network) faultFor(from, to *node) *faultState {
	if len(n.faults) == 0 {
		return nil
	}
	if f, ok := n.faults[ScopeLink(from.addr, to.addr)]; ok {
		return f
	}
	if from.lan == to.lan {
		if f, ok := n.faults[ScopeLAN(from.lan)]; ok {
			return f
		}
	} else if f, ok := n.faults[ScopeWAN]; ok {
		return f
	}
	return n.faults[ScopeAll]
}

// faultVerdict is the per-datagram outcome of the installed faults.
type faultVerdict struct {
	drop  bool
	dup   bool
	extra time.Duration
}

// apply draws this datagram's fate from the fault state, advancing the
// Gilbert-Elliott chain. All randomness comes from the network's
// dedicated fault RNG so chaos runs replay exactly per seed.
func (n *Network) applyFault(f *faultState) faultVerdict {
	var v faultVerdict
	p := f.profile
	// Advance the loss chain first, then draw loss in the new state:
	// bursts begin with the datagram that flipped the state.
	if f.bad {
		if p.PBadGood > 0 && n.faultRng.Float64() < p.PBadGood {
			f.bad = false
		}
	} else if p.PGoodBad > 0 && n.faultRng.Float64() < p.PGoodBad {
		f.bad = true
	}
	loss := p.LossGood
	if f.bad {
		loss = p.LossBad
	}
	if loss > 0 && n.faultRng.Float64() < loss {
		v.drop = true
		n.stats.Faults.Dropped++
		mFaultDropped.Inc()
		return v
	}
	if p.SpikeProb > 0 && n.faultRng.Float64() < p.SpikeProb {
		v.extra += p.SpikeDelay
		n.stats.Faults.Delayed++
		mFaultDelayed.Inc()
	}
	if p.ReorderProb > 0 && n.faultRng.Float64() < p.ReorderProb {
		v.extra += p.ReorderDelay
		n.stats.Faults.Reordered++
		mFaultReordered.Inc()
	}
	if p.DupProb > 0 && n.faultRng.Float64() < p.DupProb {
		v.dup = true
		n.stats.Faults.Duplicated++
		mFaultDuplicated.Inc()
	}
	return v
}

// FaultEvent is one step of a scripted chaos scenario, executed At
// (relative to schedule installation) on the event loop. Exactly one of
// the action fields should be set; a zero event is a no-op.
type FaultEvent struct {
	// At is the virtual-time offset from InstallFaults.
	At time.Duration
	// Scope plus Profile installs a fault profile; Profile nil with a
	// non-empty Scope clears that scope's profile.
	Scope   string
	Profile *FaultProfile
	// Partition installs connectivity islands (see Network.Partition).
	Partition [][]transport.Addr
	// Heal heals all partitions.
	Heal bool
}

// FaultSchedule is a scripted sequence of fault events — a
// deterministic nemesis: inject at t, heal at t'.
type FaultSchedule []FaultEvent

// InstallFaults schedules every event of a chaos script relative to the
// current virtual time. Multiple schedules may be installed; events
// interleave by time as usual.
func (n *Network) InstallFaults(s FaultSchedule) {
	for _, ev := range s {
		ev := ev
		n.After(ev.At, func() {
			n.stats.Faults.Events++
			mFaultEvents.Inc()
			switch {
			case ev.Partition != nil:
				n.Partition(ev.Partition...)
			case ev.Heal:
				n.Partition()
			case ev.Scope != "":
				if ev.Profile == nil {
					n.ClearFault(ev.Scope)
				} else {
					n.SetFault(ev.Scope, *ev.Profile)
				}
			}
		})
	}
}
