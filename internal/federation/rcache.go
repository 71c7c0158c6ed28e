package federation

import (
	"bytes"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lru"
	"semdisco/internal/wire"
)

// resultCache is the gateway's remote result cache: the remote pools a
// completed fan-out aggregated, keyed by the full query shape, so a
// repeated WAN query is answered from local state instead of flooding
// the registry network again (the MILCOM'07 gateway-coordination
// design's bandwidth argument, applied to repeat traffic).
//
// Unlike the registry's generation-validated cache, a gateway cannot
// observe mutations at remote registries, so entries carry a hard
// expiry derived from the §4.8 lease rule: a result is only as fresh
// as its shortest lease. The entry TTL is min(MaxTTL, shortest
// advertised lease duration among the cached adverts); an empty remote
// result uses the (short) EmptyTTL so a service published moments later
// becomes discoverable quickly.
//
// Local evaluations are never cached here — the local store answers
// exactly (and has its own generation-validated cache); only the
// WAN-expensive remote pools are reused. The Registry is a sans-I/O
// single-goroutine state machine, so the cache needs no lock.
type resultCache struct {
	maxTTL   time.Duration
	emptyTTL time.Duration
	lru      *lru.Cache[rkey, rentry]
}

// rkey identifies one remote result set. Everything that shapes the
// fan-out — and therefore what came back — is part of the key: the
// payload (by hash, verified on lookup), response control, TTL radius,
// strategy and walker count.
type rkey struct {
	hash     uint64
	kind     describe.Kind
	max      uint16
	best     bool
	ttl      uint8
	strategy wire.Strategy
	walkers  uint8
	domain   string
}

func rkeyFor(q wire.Query) rkey {
	return rkey{
		hash:     describe.PayloadHash(q.Kind, q.Payload),
		kind:     q.Kind,
		max:      q.MaxResults,
		best:     q.BestOnly,
		ttl:      q.TTL,
		strategy: q.Strategy,
		walkers:  q.Walkers,
		domain:   q.Domain,
	}
}

// rentry is one cached remote pool set. pools is read-only once stored:
// respond/MergeRank only read, so serving the same backing arrays to
// many queries is safe.
type rentry struct {
	payload []byte
	pools   [][]wire.Advertisement
	expires time.Time
}

func newResultCache(capacity int, maxTTL, emptyTTL time.Duration) *resultCache {
	return &resultCache{maxTTL: maxTTL, emptyTTL: emptyTTL, lru: lru.New[rkey, rentry](capacity)}
}

// get returns the cached remote pools when a fresh entry exists.
func (c *resultCache) get(key rkey, payload []byte, now time.Time) ([][]wire.Advertisement, bool) {
	e, ok := c.lru.Get(key)
	if !ok || !bytes.Equal(e.payload, payload) {
		fRCacheMisses.Inc()
		return nil, false // a hash collision is a miss too, never a wrong answer
	}
	if now.After(e.expires) {
		c.lru.Remove(key)
		fRCacheSize.Set(int64(c.lru.Len()))
		fRCacheExpired.Inc()
		return nil, false
	}
	fRCacheHits.Inc()
	return e.pools, true
}

// put stores the remote pools of a *completely* aggregated fan-out
// (every forwarded child answered — partial, deadline-truncated results
// are never cached). The entry lives until the lease-bounded deadline.
func (c *resultCache) put(key rkey, payload []byte, pools [][]wire.Advertisement, now time.Time) {
	ttl := c.emptyTTL
	first := true
	for _, pool := range pools {
		for _, a := range pool {
			d := time.Duration(a.LeaseMillis) * time.Millisecond
			if d <= 0 {
				continue
			}
			if first || d < ttl {
				ttl = d
				first = false
			}
		}
	}
	if first {
		ttl = c.emptyTTL
	} else if ttl > c.maxTTL {
		ttl = c.maxTTL
	}
	c.lru.Put(key, rentry{payload: append([]byte(nil), payload...), pools: pools, expires: now.Add(ttl)})
	fRCacheSize.Set(int64(c.lru.Len()))
}

// size reports resident entries (tests).
func (c *resultCache) size() int { return c.lru.Len() }
