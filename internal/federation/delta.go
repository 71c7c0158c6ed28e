package federation

// Incremental registry summaries (the delta protocol). Whole-summary
// gossip costs O(tokens) per peer per tick even when nothing changed;
// at WAN scale the summary dominates maintenance bandwidth. Instead the
// summary rides the shared anti-entropy stream (stream.go): each change
// to the summary is one stream version whose change set is token
// add/remove lists (removals acting as tombstones), and a peer is sent
// only the net change past the version it last acknowledged.

import (
	"sort"

	"semdisco/internal/describe"
	"semdisco/internal/transport"
	"semdisco/internal/wire"
)

type summarySnapshot map[describe.Kind]map[string]bool

// deltaSummaryState is the sender side of the protocol: the summary
// stream plus the snapshot its current version describes.
type deltaSummaryState struct {
	stream[wire.SummaryDeltaEntry]
	snap summarySnapshot
}

func snapshotOf(entries []wire.SummaryEntry) summarySnapshot {
	s := make(summarySnapshot, len(entries))
	for _, e := range entries {
		set := make(map[string]bool, len(e.Tokens))
		for _, t := range e.Tokens {
			set[t] = true
		}
		s[e.Kind] = set
	}
	return s
}

// advance diffs the current summary against the last versioned
// snapshot; on change it bumps the version and records the delta.
func (d *deltaSummaryState) advance(cur []wire.SummaryEntry) {
	next := snapshotOf(cur)
	entries := diffSnapshots(d.snap, next)
	if len(entries) == 0 && d.version != 0 {
		return // unchanged
	}
	if d.version == 0 && len(next) == 0 {
		return // still empty: no version to speak of
	}
	d.snap = next
	d.stream.advance(entries...)
}

// diffSnapshots returns the add/remove lists taking prev to next.
func diffSnapshots(prev, next summarySnapshot) []wire.SummaryDeltaEntry {
	state := make(map[describe.Kind]map[string]bool)
	mark := func(k describe.Kind, t string, present bool) {
		if state[k] == nil {
			state[k] = make(map[string]bool)
		}
		state[k][t] = present
	}
	for k, set := range next {
		for t := range set {
			if !prev[k][t] {
				mark(k, t, true)
			}
		}
	}
	for k, set := range prev {
		for t := range set {
			if !next[k][t] {
				mark(k, t, false)
			}
		}
	}
	return changeSet(state)
}

// fullEntries renders the snapshot as a pure-add delta (a full resync).
func (d *deltaSummaryState) fullEntries() []wire.SummaryDeltaEntry { return changeSet(d.snap) }

// since merges every delta past acked into one change set, applied in
// version order so an add-then-remove nets out correctly.
func (d *deltaSummaryState) since(acked uint64) []wire.SummaryDeltaEntry {
	state := make(map[describe.Kind]map[string]bool)
	for _, e := range d.stream.since(acked) {
		m := state[e.Kind]
		if m == nil {
			m = make(map[string]bool)
			state[e.Kind] = m
		}
		for _, t := range e.Add {
			m[t] = true
		}
		for _, t := range e.Remove {
			m[t] = false
		}
	}
	return changeSet(state)
}

// changeSet renders token -> present-afterwards maps as add/remove
// lists, sorted per kind for deterministic wire bytes.
func changeSet(state map[describe.Kind]map[string]bool) []wire.SummaryDeltaEntry {
	var kinds []describe.Kind
	for k := range state {
		kinds = append(kinds, k)
	}
	sortKinds(kinds)
	var out []wire.SummaryDeltaEntry
	for _, k := range kinds {
		var add, remove []string
		for t, present := range state[k] {
			if present {
				add = append(add, t)
			} else {
				remove = append(remove, t)
			}
		}
		if len(add) == 0 && len(remove) == 0 {
			continue
		}
		sortStrings(add)
		sortStrings(remove)
		out = append(out, wire.SummaryDeltaEntry{Kind: k, Add: add, Remove: remove})
	}
	return out
}

// sendSummaryTo sends one peer whatever it needs this tick: nothing
// (fully acked), the merged deltas since its ack, or a full resync.
func (r *Registry) sendSummaryTo(p *peer) {
	d := &r.dsum
	base := p.sum.acked
	switch p.sum.next(d.version, d.covers(base), r.cfg.SummaryFullEvery) {
	case sendNothing:
		// Peer is current: send nothing at all. Liveness is the ping
		// loop's job; this is where the delta protocol saves its bytes.
		fDeltaSkipped.Inc()
	case sendFull:
		r.env.Send(transport.Addr(p.info.Addr), wire.SummaryDelta{
			Version: d.version, Full: true, Entries: d.fullEntries(),
		})
		fSummariesSent.Inc()
		fDeltaFullSent.Inc()
	case sendDelta:
		r.env.Send(transport.Addr(p.info.Addr), wire.SummaryDelta{
			Version: d.version, Base: base, Entries: d.since(base),
		})
		fSummariesSent.Inc()
		fDeltaSent.Inc()
	}
}

// handleSummaryDelta is the receiver side: apply in-order deltas to the
// peer's summary, rebuild on a full resync, and ack what we now hold.
// A delta whose base does not match what we hold (lost datagram,
// restart) cannot be applied; the ack then carries Resync so the sender
// schedules a full refresh.
func (r *Registry) handleSummaryDelta(from wire.NodeID, addr transport.Addr, d *wire.SummaryDelta) {
	p, ok := r.peers[from]
	if !ok {
		return
	}
	p.lastSeen = r.now()
	switch {
	case d.Full:
		p.summary = make(map[describe.Kind]map[string]bool, len(d.Entries))
		for _, e := range d.Entries {
			set := make(map[string]bool, len(e.Add))
			for _, t := range e.Add {
				set[t] = true
			}
			p.summary[e.Kind] = set
		}
		p.sum.got = d.Version
		fDeltaApplied.Inc()
	case p.summary == nil || d.Base != p.sum.got:
		fDeltaStale.Inc()
		r.env.Send(addr, wire.SummaryAck{Version: p.sum.got, Resync: true})
		return
	default:
		for _, e := range d.Entries {
			set := p.summary[e.Kind]
			if set == nil {
				set = make(map[string]bool, len(e.Add))
				p.summary[e.Kind] = set
			}
			for _, t := range e.Add {
				set[t] = true
			}
			for _, t := range e.Remove {
				delete(set, t)
			}
			// An emptied kind stays present as an empty set: "provably
			// stores nothing of this kind", exactly like a full summary
			// that omits it (pruneBySummary treats nil and empty alike).
		}
		p.sum.got = d.Version
		fDeltaApplied.Inc()
	}
	r.env.Send(addr, wire.SummaryAck{Version: d.Version})
}

// handleSummaryAck advances the sender's per-peer acked version.
func (r *Registry) handleSummaryAck(from wire.NodeID, a *wire.SummaryAck) {
	p, ok := r.peers[from]
	if !ok {
		return
	}
	p.lastSeen = r.now()
	if a.Resync {
		fDeltaResyncs.Inc()
	}
	p.sum.ack(a.Version, a.Resync)
}

// sortKinds orders kinds numerically; describe.Kind is a small integer.
func sortKinds(ks []describe.Kind) {
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
}

func sortStrings(ss []string) { sort.Strings(ss) }
