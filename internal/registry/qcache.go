package registry

import (
	"bytes"
	"sync"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lru"
	"semdisco/internal/wire"
)

// queryCache memoizes ranked Evaluate result sets in a bounded LRU.
// Unlike a TTL cache, entries are *validated*, never trusted: each one
// is stamped with the per-shard generation vector it was computed
// against plus the earliest lease deadline among the advertisements it
// holds. A lookup serves the entry only when every shard generation is
// unchanged and the query time sits inside [fill time, min deadline] —
// an O(shards) integer compare that guarantees the cached answer equals
// what a live evaluation would return right now. There are no
// invalidation callbacks and no staleness window.
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
	// gens is the shard generation vector snapshotted before the
	// result was collected.
	gens []uint64
	// fillNow is the query time the result was computed at; a lookup
	// whose clock is behind it (simulator rewind, skew) never reuses
	// the entry.
	fillNow time.Time
	// minExpiry is the earliest lease deadline among the returned
	// advertisements; past it the result may silently lose a member
	// even though no generation moved (expired-but-unpurged leases are
	// filtered at collect time, not mutation time). Zero for empty
	// result sets, which stay exact until a generation moves.
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
// now against the store's current shard generations.
func (e *qentry) valid(s *Store, now time.Time) bool {
	if now.Before(e.fillNow) {
		return false
	}
	if !e.minExpiry.IsZero() && now.After(e.minExpiry) {
		return false
	}
	return s.gensCurrent(e.gens)
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
		// Stale: a generation moved or a lease deadline passed since
		// the fill. Drop the entry and fall through to recompute.
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

	// Snapshot generations BEFORE collecting: a mutation racing the
	// scan bumps a generation we already recorded, making this entry
	// conservatively stale instead of wrongly fresh.
	gens := s.genVector()
	adverts, minExpiry := s.evaluateLive(kind, plan, limit, now)
	e := &qentry{
		payload:   append([]byte(nil), payload...),
		adverts:   adverts,
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
