package federation

import "semdisco/internal/uuid"

// seenCap bounds one generation of seenSet: two generations of bare IDs
// stay within a few megabytes, and even at 50 000 queries a second one
// spans over two seconds — the hop deadline of a TTL-7 query.
const seenCap = 1 << 17

// seenSet is the loop-avoidance memory of §4.10: the IDs of the queries
// this node has handled, in two generations. The SeenTTL timer rotates
// them, so an ID is remembered for one to two SeenTTL; a young
// generation that reaches cap rotates early, so the set never exceeds
// 2 × cap IDs. Under such a flood the window shrinks below SeenTTL, to
// the time 1–2 × cap queries take; a copy arriving later than that is
// handled again, and its TTL still bounds how far it travels. The maps
// hold no pointers, so the collector never scans them.
type seenSet struct {
	young, old map[uuid.UUID]struct{}
	cap        int
}

func newSeenSet(cap int) seenSet {
	return seenSet{young: make(map[uuid.UUID]struct{}), cap: cap}
}

// add records id and reports whether it was new.
func (s *seenSet) add(id uuid.UUID) bool {
	if _, dup := s.young[id]; dup {
		return false
	}
	if _, dup := s.old[id]; dup {
		return false
	}
	if len(s.young) >= s.cap {
		s.rotate()
	}
	s.young[id] = struct{}{}
	return true
}

// rotate forgets the old generation and starts a new young one.
func (s *seenSet) rotate() {
	s.old, s.young = s.young, make(map[uuid.UUID]struct{})
}
