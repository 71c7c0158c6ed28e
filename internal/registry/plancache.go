package registry

import (
	"bytes"
	"fmt"
	"sync"

	"semdisco/internal/describe"
	"semdisco/internal/lru"
)

// queryPlan is everything the store derives from a query payload:
// the owning model, the decoded query, its pruning tokens and the index
// keys candidate generation filters on (postings.go). Plans are
// immutable once built and safe to share across goroutines — the
// description models are read-only after construction.
type queryPlan struct {
	model    describe.Model
	query    describe.Query
	tokens   []string
	prunable bool
	// groups are the query's output constraints (Model.OutputGroups).
	groups []outGroup
	// catSet is the category's concept closure (ConceptIndexer), set
	// only for plans with groups: it lets a scan of an output union test
	// the category on the entry's key.
	catSet conceptSet
	// hash is describe.PayloadHash(kind, payload) for the payload this
	// plan was decoded from — the query result cache keys on it.
	hash uint64
	// deps are the generation counters the plan's cached results depend
	// on (qcache.go, genDeps).
	deps []uint32
}

// planCache memoizes query plans keyed by (kind, payload hash) in an
// LRU of bounded size. A federated query arrives at a registry up to
// three times in different roles (summary-pruning decision, local
// Evaluate, entry-registry MergeRank) and at every federation hop with
// an identical payload; caching the decode keeps the §3.2 promise that
// query evaluation work is paid once, not once per stage.
//
// Hash collisions are handled by verifying kind and payload on lookup:
// a colliding entry is a miss, never a wrong plan.
type planCache struct {
	mu  sync.Mutex
	lru *lru.Cache[uint64, planEntry]
}

type planEntry struct {
	kind    describe.Kind
	payload []byte
	plan    *queryPlan
}

func newPlanCache(capacity int) *planCache {
	return &planCache{lru: lru.New[uint64, planEntry](capacity)}
}

// get returns the cached plan for the payload, or nil on miss.
func (c *planCache) get(kind describe.Kind, payload []byte, hash uint64) *queryPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.Get(hash)
	if !ok || e.kind != kind || !bytes.Equal(e.payload, payload) {
		return nil // a hash collision is a miss too
	}
	return e.plan
}

// put stores a freshly decoded plan, evicting the least recently used
// entry when the cache is full; the same hash re-decoded (collision or
// racing fill) keeps the newest. The payload is copied: callers may
// reuse their buffer.
func (c *planCache) put(kind describe.Kind, payload []byte, hash uint64, plan *queryPlan) {
	e := planEntry{kind: kind, payload: append([]byte(nil), payload...), plan: plan}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Put(hash, e)
}

// size reports the number of cached plans (tests).
func (c *planCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// plan resolves the query plan for a payload: model dispatch, plan
// cache lookup, and on a miss DecodeQuery + QueryTokens + the index keys
// with the result memoized. Errors are never cached.
func (s *Store) plan(kind describe.Kind, payload []byte) (*queryPlan, error) {
	model, ok := s.models.Model(kind)
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrUnknownKind, kind)
	}
	h := describe.PayloadHash(kind, payload)
	if s.plans != nil {
		if p := s.plans.get(kind, payload, h); p != nil {
			mPlanCacheHits.Inc()
			return p, nil
		}
	}
	mPlanCacheMisses.Inc()
	q, err := model.DecodeQuery(payload)
	if err != nil {
		return nil, err
	}
	tokens, prunable := model.QueryTokens(q)
	p := &queryPlan{model: model, query: q, tokens: tokens, prunable: prunable, hash: h, deps: genDeps(tokens, prunable)}
	p.groups = newOutGroups(model.OutputGroups(q))
	if ci, ok := model.(describe.ConceptIndexer); ok && len(p.groups) > 0 && prunable {
		if ids, ok := ci.QueryConceptIDs(q); ok {
			p.catSet = newConceptSet(ids)
		}
	}
	if s.plans != nil {
		s.plans.put(kind, payload, h, p)
	}
	return p, nil
}

// QueryPlan exposes the cached decode of a query payload: the decoded
// query plus its pruning tokens. Federation's summary pruning uses it
// so a forwarded query is decoded once per node rather than once per
// peer considered.
func (s *Store) QueryPlan(kind describe.Kind, payload []byte) (describe.Query, []string, bool, error) {
	p, err := s.plan(kind, payload)
	if err != nil {
		return nil, nil, false, err
	}
	return p.query, p.tokens, p.prunable, nil
}
