package registry

import "sync"

// tok is a store-interned summary-token ID. Tokens are the currency of
// both the advert token index and the subscription posting lists;
// interning them once per store replaces per-advert []string slices and
// string-keyed bucket maps with int32 IDs, which is what lets one
// registry hold millions of adverts in bounded memory (a URI-model
// population shares a few hundred type URIs across the whole store).
type tok int32

// tokenInterner is the store-wide string↔tok table. It only ever
// grows: tokens are tiny relative to adverts and a stable ID space
// means a posting list compiled at Subscribe time stays valid for the
// subscription's whole life. Reads (query-token resolution, summary
// rendering) take the read lock; interning takes the write lock only
// on a genuinely new token.
type tokenInterner struct {
	mu   sync.RWMutex
	ids  map[string]tok
	strs []string
}

func newTokenInterner() *tokenInterner {
	return &tokenInterner{ids: make(map[string]tok)}
}

// intern returns the ID for s, assigning a fresh one on first sight.
func (ti *tokenInterner) intern(s string) tok {
	ti.mu.RLock()
	t, ok := ti.ids[s]
	ti.mu.RUnlock()
	if ok {
		return t
	}
	ti.mu.Lock()
	defer ti.mu.Unlock()
	if t, ok := ti.ids[s]; ok {
		return t
	}
	t = tok(len(ti.strs))
	ti.ids[s] = t
	ti.strs = append(ti.strs, s)
	mTokensInterned.Add(1)
	return t
}

// internAll interns every token, deduplicating — the old map-backed
// buckets collapsed duplicate tokens implicitly, and the dense posting
// slices rely on each (record, token) pair appearing once.
func (ti *tokenInterner) internAll(tokens []string) []tok {
	if len(tokens) == 0 {
		return nil
	}
	out := make([]tok, 0, len(tokens))
	for _, s := range tokens {
		t := ti.intern(s)
		dup := false
		for _, prev := range out {
			if prev == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// lookupAll resolves query tokens to IDs, skipping tokens never seen by
// this store — a token with no ID has no posting bucket, so no stored
// advert can carry it. Resolution happens per evaluation (never cached
// in the plan): a token absent now may be interned by a later publish.
func (ti *tokenInterner) lookupAll(tokens []string) []tok {
	if len(tokens) == 0 {
		return nil
	}
	out := make([]tok, 0, len(tokens))
	ti.mu.RLock()
	for _, s := range tokens {
		if t, ok := ti.ids[s]; ok {
			out = append(out, t)
		}
	}
	ti.mu.RUnlock()
	return out
}

// str returns the string for an interned token (summary rendering).
func (ti *tokenInterner) str(t tok) string {
	ti.mu.RLock()
	defer ti.mu.RUnlock()
	if int(t) < 0 || int(t) >= len(ti.strs) {
		return ""
	}
	return ti.strs[t]
}

// size reports the number of interned tokens (tests and stats).
func (ti *tokenInterner) size() int {
	ti.mu.RLock()
	defer ti.mu.RUnlock()
	return len(ti.strs)
}

// arenaSlab is the stored-record count per arena slab. 1024 records ≈
// a few hundred kB per slab: big enough that a million-advert shard
// allocates ~60 slabs instead of a million loose heap objects, small
// enough that a near-empty store wastes little. Tests shrink a store's
// slabs with setSlabSize to exercise growth on a few adverts.
const arenaSlab = 1024

// alloc hands out a zeroed stored record from the shard arena — the
// free list first, then the bump pointer, growing by one slab when the
// arena is full. The caller holds the shard write lock and must fully
// initialize the record before linking it into any index.
//
// Records live in large contiguous slabs instead of individual heap
// allocations, so a million-advert shard is ~len/slabSize objects for
// the GC to trace rather than a million, and freed slots are recycled
// without returning memory to the allocator. Slot reuse is what makes
// the snapshot discipline load-bearing: nothing derived from a *stored
// may be dereferenced after the shard lock is released (see hit and
// removedAdvert).
func (sh *shard) alloc() *stored {
	if n := len(sh.free); n > 0 {
		slot := sh.free[n-1]
		sh.free = sh.free[:n-1]
		mArenaFree.Add(-1)
		st := sh.slotAt(slot)
		st.slot = slot
		return st
	}
	if int(sh.next) == len(sh.slabs)*sh.slabSize {
		sh.slabs = append(sh.slabs, make([]stored, sh.slabSize))
		mArenaSlabs.Add(1)
	}
	slot := sh.next
	sh.next++
	st := sh.slotAt(slot)
	st.slot = slot
	return st
}

// slotAt maps a slot number to its record in the slab matrix.
func (sh *shard) slotAt(slot int32) *stored {
	return &sh.slabs[int(slot)/sh.slabSize][int(slot)%sh.slabSize]
}

// release clears a record's references (so the GC can reclaim payloads
// and descriptions) and returns its slot to the free list. The caller
// holds the shard write lock and has already unlinked the record from
// every index and the expiry heap.
func (sh *shard) release(st *stored) {
	sh.free = append(sh.free, st.slot)
	*st = stored{}
	mArenaFree.Add(1)
}

// expiryHeap is a shard's min-heap of resident records by lease
// deadline (container/heap); each record keeps its position in heapIdx,
// so a renewal re-sifts it in place and a removal unlinks it in
// O(log n) without a search.
type expiryHeap []*stored

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expires.Before(h[j].expires) }
func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = int32(i)
	h[j].heapIdx = int32(j)
}

func (h *expiryHeap) Push(x any) {
	st := x.(*stored)
	st.heapIdx = int32(len(*h))
	*h = append(*h, st)
}

func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old) - 1
	st := old[n]
	old[n] = nil
	*h = old[:n]
	return st
}
