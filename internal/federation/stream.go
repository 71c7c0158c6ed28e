package federation

// The anti-entropy stream shared by summary gossip (delta.go) and the
// domain directory (directory.go). A sender versions its state, keeps a
// bounded history of the change set behind each version, and sends each
// peer only what lies past the version that peer acknowledged: nothing
// when the peer is current, the history span when it covers the gap, a
// full snapshot otherwise — plus a cadenced full and an explicit Resync
// request in the ack, which bound divergence when deltas are lost for
// longer than the history covers or a node restarts.
//
// Only the entry type and two policies differ between the users, and
// they stay with them: how a span of history collapses into one delta
// (net add/remove vs newest-per-domain), and what the receiver does
// with a delta that does not line up (replace-and-reject vs
// merge-across-the-gap).

// maxStreamHistory bounds the retained per-version change sets; a peer
// whose ack falls behind the window gets a full snapshot instead.
const maxStreamHistory = 64

// streamRecord is the change set that produced one stream version.
type streamRecord[E any] struct {
	version uint64
	entries []E
}

// stream is the sender side: the current version plus the history
// needed to fast-forward peers. The zero value is an empty stream at
// version 0 ("nothing to speak of").
type stream[E any] struct {
	version uint64
	history []streamRecord[E] // oldest first, at most maxStreamHistory
}

// advance bumps the version and records the change set behind it.
func (s *stream[E]) advance(entries ...E) {
	s.version++
	s.history = append(s.history, streamRecord[E]{version: s.version, entries: entries})
	if len(s.history) > maxStreamHistory {
		s.history = s.history[len(s.history)-maxStreamHistory:]
	}
}

// covers reports whether the history can fast-forward a peer acked at
// the given version to the current one. An ack at or past the current
// version — the sender restarted into a smaller version space — is not
// coverable, which forces the full-snapshot re-anchor.
func (s *stream[E]) covers(acked uint64) bool {
	if acked >= s.version || len(s.history) == 0 {
		return false
	}
	return s.history[0].version <= acked+1
}

// since returns every entry recorded past acked, in version order, for
// the user to collapse into one delta.
func (s *stream[E]) since(acked uint64) []E {
	var out []E
	for _, rec := range s.history {
		if rec.version > acked {
			out = append(out, rec.entries...)
		}
	}
	return out
}

// peerStream is one peer's position on one stream, both directions.
type peerStream struct {
	// got is the receiver side: the sender's version our applied state
	// corresponds to.
	got uint64
	// acked is the sender side: the highest version this peer
	// acknowledged. Guarded monotonic — acks are datagrams and may arrive
	// out of order; regressing would re-send (and mis-base) applied deltas.
	acked uint64
	// needFull forces the next tick to send a full snapshot (a fresh peer
	// struct, or an explicit Resync request).
	needFull bool
	// lastFull is the version of the last full snapshot sent and not yet
	// acknowledged; an ack naming it exactly may lower acked (see ack).
	lastFull uint64
	// sinceFull counts deltas sent since the last full, for the cadenced
	// full refresh that bounds silent divergence.
	sinceFull int
}

// streamSend is what a peer needs from a stream this tick.
type streamSend uint8

const (
	sendNothing streamSend = iota
	sendFull
	sendDelta // based on peerStream.acked
)

// next decides what to send a peer given the stream's current version
// and whether its history covers the peer's ack, and accounts for the
// send. The cadence counter advances only on ticks that send a delta: an
// idle, fully-acked peer must keep costing zero bytes, not receive a
// pointless full every fullEvery skipped ticks.
func (p *peerStream) next(version uint64, covered bool, fullEvery int) streamSend {
	switch {
	case p.acked == version && !p.needFull:
		return sendNothing
	case p.needFull || p.acked == 0 || p.sinceFull+1 >= fullEvery || !covered:
		p.needFull = false
		p.lastFull = version
		p.sinceFull = 0
		return sendFull
	default:
		p.sinceFull++
		return sendDelta
	}
}

// ack records a peer's acknowledgement. The guard is strictly monotonic
// so a late, out-of-order ack can never regress the position — except
// an ack naming the last full snapshot's exact version, which re-anchors
// a peer after this sender's version space moved backwards (restart).
// That re-anchor is one-shot: the first ack at or past the full's
// version clears it, so a delayed duplicate of the same ack cannot drag
// acked backwards again and trigger a needless delta/stale/resync cycle.
func (p *peerStream) ack(version uint64, resync bool) {
	if resync {
		p.needFull = true
	}
	if version > p.acked || (version == p.lastFull && p.lastFull != 0) {
		p.acked = version
	}
	if p.lastFull != 0 && version >= p.lastFull {
		p.lastFull = 0
	}
}
