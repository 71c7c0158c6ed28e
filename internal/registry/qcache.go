package registry

import (
	"bytes"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lru"
	"semdisco/internal/wire"
)

// queryCache memoizes ranked Evaluate result sets in a bounded LRU.
// Unlike a TTL cache, entries are *validated*, never trusted: each one
// is stamped with the values of the generation counters its query
// depends on (tokenGens below) plus the earliest lease deadline among
// the advertisements it holds. A lookup serves the entry only when none
// of those counters moved and the query time sits inside [fill time,
// min deadline] — a handful of integer compares that guarantee the
// cached answer equals what a live evaluation would return right now.
// There are no invalidation callbacks and no staleness window.
//
// Concurrent identical queries share one computation through a
// singleflight group: the first caller computes and fills, the rest
// wait for the filled entry and re-validate it against their own clock.
// That is the federation fan-in pattern — one WAN query arriving at a
// registry simultaneously from several gateway walkers — collapsed to a
// single index scan.
//
// Hash collisions are handled the same way as the plan cache: entries
// remember their payload and a lookup whose payload differs is a miss,
// never a wrong answer.
type queryCache struct {
	mu      sync.Mutex
	lru     *lru.Cache[qkey, *qentry]
	flights map[qkey]*qflight
}

// qkey identifies one cached result set. The effective limit (not the
// raw MaxResults) is part of the key, so MaxResults=0 and an explicit
// MaxResults equal to the store default share an entry, while BestOnly
// and MaxResults=1 — same limit, different option — never alias.
type qkey struct {
	hash  uint64
	kind  describe.Kind
	limit int
	best  bool
}

// qentry is one cached result set plus everything needed to prove it is
// still exact.
type qentry struct {
	payload []byte
	adverts []wire.Advertisement
	// deps are the generation counters the query's results depend on
	// (the plan's), and gens their values snapshotted before the result
	// was collected.
	deps []uint32
	gens []uint64
	// fillNow is the query time the result was computed at; a lookup
	// whose clock is behind it (simulator rewind, skew) never reuses
	// the entry.
	fillNow time.Time
	// minExpiry is the earliest lease deadline among the returned
	// advertisements; past it the result may silently lose a member
	// even though no counter moved (expired-but-unpurged leases are
	// filtered at collect time, not mutation time). Zero for empty
	// result sets, which stay exact until a counter moves.
	minExpiry time.Time
}

// qflight is one in-progress computation other callers of the same key
// can wait on instead of repeating the scan.
type qflight struct {
	payload []byte
	wg      sync.WaitGroup
	entry   *qentry // set before wg.Done; read only after wg.Wait
}

// newQueryCache returns an empty cache bounded to capacity entries.
func newQueryCache(capacity int) *queryCache {
	return &queryCache{lru: lru.New[qkey, *qentry](capacity), flights: make(map[qkey]*qflight)}
}

// valid reports whether the entry still answers the query exactly at
// now against the store's current generation counters.
func (e *qentry) valid(s *Store, now time.Time) bool {
	if now.Before(e.fillNow) {
		return false
	}
	if !e.minExpiry.IsZero() && now.After(e.minExpiry) {
		return false
	}
	return s.gens.current(e.deps, e.gens)
}

// evaluate is the cached Evaluate body: validated lookup, singleflight
// join, or live computation plus fill.
func (c *queryCache) evaluate(s *Store, key qkey, payload []byte, kind describe.Kind, plan *queryPlan, limit int, now time.Time) []wire.Advertisement {
	c.mu.Lock()
	if e, ok := c.lru.Get(key); ok {
		if !bytes.Equal(e.payload, payload) {
			// Hash collision: miss, and leave the resident entry alone.
			c.mu.Unlock()
			mQCacheMisses.Inc()
			out, _ := s.evaluateLive(kind, plan, limit, now)
			return out
		}
		if e.valid(s, now) {
			c.mu.Unlock()
			mQCacheHits.Inc()
			return cloneAdverts(e.adverts)
		}
		// Stale: a counter moved or a lease deadline passed since the
		// fill. Drop the entry and fall through to recompute.
		c.lru.Remove(key)
		mQCacheSize.Set(int64(c.lru.Len()))
		mQCacheInvalidations.Inc()
	}
	if f, ok := c.flights[key]; ok && bytes.Equal(f.payload, payload) {
		c.mu.Unlock()
		f.wg.Wait()
		mQCacheShared.Inc()
		// The shared fill may have been computed at a different query
		// time; serve it only if it is valid at *our* now.
		if f.entry != nil && f.entry.valid(s, now) {
			return cloneAdverts(f.entry.adverts)
		}
		out, _ := s.evaluateLive(kind, plan, limit, now)
		return out
	}
	f := &qflight{payload: payload}
	f.wg.Add(1)
	c.flights[key] = f
	c.mu.Unlock()
	mQCacheMisses.Inc()

	// Snapshot the counters BEFORE collecting: a mutation racing the
	// scan bumps a counter we already recorded, making this entry
	// conservatively stale instead of wrongly fresh.
	gens := s.gens.snapshot(plan.deps)
	adverts, minExpiry := s.evaluateLive(kind, plan, limit, now)
	e := &qentry{
		payload:   append([]byte(nil), payload...),
		adverts:   adverts,
		deps:      plan.deps,
		gens:      gens,
		fillNow:   now,
		minExpiry: minExpiry,
	}

	c.mu.Lock()
	f.entry = e
	delete(c.flights, key)
	c.lru.Put(key, e)
	mQCacheSize.Set(int64(c.lru.Len()))
	c.mu.Unlock()
	f.wg.Done()
	return cloneAdverts(adverts)
}

// size reports the number of resident entries (tests).
func (c *queryCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// cloneAdverts copies a cached result set so callers can never mutate
// resident cache state through the returned slice.
func cloneAdverts(adverts []wire.Advertisement) []wire.Advertisement {
	out := make([]wire.Advertisement, len(adverts))
	copy(out, adverts)
	return out
}

// Generation counters keyed by token. Every mutation that can change a
// query result — publish, update, supersede, remove, expiry purge, a
// resurrecting or deadline-pulling renew — bumps, while it holds the
// advert's shard write lock, the counters of the tokens that advert
// carries (tokenGens.bump). A cached entry depends only on the counters
// of the tokens its query can see (genDeps), so a write in one category
// leaves the cached results of disjoint categories valid.
//
// Soundness rests on the contract summary pruning and the posting
// index already rely on (describe.Model.QueryTokens): an advert can
// enter a prunable query's result only if it carries one of the
// query's tokens, or carries none. So a mutation that can change such a
// result touches an advert that bumps one of the query's token buckets
// or the token-less counter. Non-prunable plans depend on the
// store-wide counter every mutation bumps. Buckets hash the token
// *string*, not its interned ID, so a query token nobody has interned
// yet still names the bucket of the publish that will intern it. Hash
// collisions merge buckets, which only over-invalidates.
//
// Ordering: an entry snapshots its counters before collecting, and a
// bump happens under the shard write lock a collecting reader must also
// take. A reader whose snapshot precedes the bump sees the counter move
// at validation; one whose snapshot follows it collects after the lock
// was released and so sees the mutation.
const (
	genBuckets = 4096           // token-hash buckets, a power of two
	genNoTok   = genBuckets     // adverts carrying no token
	genAll     = genBuckets + 1 // every result-affecting mutation
)

// tokenGens is a store's generation counters: one per token-hash
// bucket, then genNoTok and genAll.
type tokenGens [genBuckets + 2]atomic.Uint64

// genBucket is a token's bucket: FNV-1a over the string.
func genBucket(token string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(token); i++ {
		h ^= uint32(token[i])
		h *= 16777619
	}
	return h & (genBuckets - 1)
}

// bump records a result-affecting mutation of an advert carrying
// tokens; the caller holds that advert's shard write lock.
func (g *tokenGens) bump(tokens []string) {
	if len(tokens) == 0 {
		g[genNoTok].Add(1)
	}
	for _, t := range tokens {
		g[genBucket(t)].Add(1)
	}
	g[genAll].Add(1)
}

// genDeps lists the counters a plan's cached results depend on,
// distinct and ascending.
func genDeps(tokens []string, prunable bool) []uint32 {
	if !prunable {
		return []uint32{genAll}
	}
	deps := make([]uint32, 0, len(tokens)+1)
	for _, t := range tokens {
		deps = append(deps, genBucket(t))
	}
	deps = append(deps, genNoTok)
	slices.Sort(deps)
	return slices.Compact(deps)
}

// snapshot reads the counters deps names.
func (g *tokenGens) snapshot(deps []uint32) []uint64 {
	vals := make([]uint64, len(deps))
	for i, d := range deps {
		vals[i] = g[d].Load()
	}
	return vals
}

// current reports whether none of the counters deps names moved since
// vals was snapshotted.
func (g *tokenGens) current(deps []uint32, vals []uint64) bool {
	for i, d := range deps {
		if g[d].Load() != vals[i] {
			return false
		}
	}
	return true
}
