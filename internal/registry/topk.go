package registry

import (
	"slices"
	"strings"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/match"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// hit is one matched advertisement during selection. The advert is
// snapshotted by value: stored records live in recyclable arena slots,
// so nothing derived from a *stored may outlive the shard lock. The
// copy is cheap — the Payload field is a slice header aliasing the
// immutable publish-time backing array.
type hit struct {
	adv wire.Advertisement
	key string // service key, the pre-ID ranking tiebreaker
	ev  describe.Evaluation
	// expires is the lease deadline the advert was alive until when
	// collected; the query result cache takes the minimum over a result
	// set as the entry's freshness horizon.
	expires time.Time
}

// rankCompare is the ranking total order: the shared
// match.CompareQuality rule (higher degree first, then higher score),
// then service key, then advertisement ID. IDs are unique, so the order
// is strict — the top-K set is independent of evaluation order.
func rankCompare(aEv describe.Evaluation, aKey string, aID uuid.UUID, bEv describe.Evaluation, bKey string, bID uuid.UUID) int {
	if c := match.CompareQuality(aEv.Degree, aEv.Score, bEv.Degree, bEv.Score); c != 0 {
		return c
	}
	if c := strings.Compare(aKey, bKey); c != 0 {
		return c
	}
	return uuid.Compare(aID, bID)
}

func hitCompare(a, b *hit) int {
	return rankCompare(a.ev, a.key, a.adv.ID, b.ev, b.key, b.adv.ID)
}

func hitBefore(a, b *hit) bool { return hitCompare(a, b) < 0 }

func sortHits(hits []hit) {
	slices.SortFunc(hits, func(a, b hit) int { return hitCompare(&a, &b) })
}

// topK keeps the K best hits seen so far in a bounded heap with the
// *worst* kept hit at the root, so replacing it when a better hit
// arrives is O(log K). This caps selection memory at K instead of the
// full hit count and removes the O(n log n) sort over every match.
//
// The heap is built lazily: while fewer than K hits arrived, push is a
// plain append — queries whose hit count never reaches the cap (the
// common narrow case) pay nothing for the bound.
type topK struct {
	k      int
	hits   []hit
	heaped bool
	// dropped counts matches discarded because the bound was full —
	// evidence the result cap truncated the match set (response
	// control actually bit, §3.1).
	dropped int
}

// topKPrealloc caps the hits newTopK allocates up front: a typical
// result cap fits, and a huge one grows only as hits arrive.
const topKPrealloc = 64

func newTopK(k int) *topK {
	return &topK{k: k, hits: make([]hit, 0, max(0, min(k, topKPrealloc)))}
}

// worse reports whether hits[i] ranks after hits[j] — the heap is a
// min-heap under ranking quality.
func (t *topK) worse(i, j int) bool { return hitBefore(&t.hits[j], &t.hits[i]) }

func (t *topK) push(h *hit) {
	if t.k <= 0 {
		return
	}
	if len(t.hits) < t.k {
		t.hits = append(t.hits, *h)
		return
	}
	if !t.heaped {
		for i := len(t.hits)/2 - 1; i >= 0; i-- {
			t.down(i)
		}
		t.heaped = true
	}
	t.dropped++
	if !hitBefore(h, &t.hits[0]) {
		return // not better than the current worst kept hit
	}
	t.hits[0] = *h
	t.down(0)
}

func (t *topK) down(i int) {
	n := len(t.hits)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.hits[i], t.hits[worst] = t.hits[worst], t.hits[i]
		i = worst
	}
}
