package federation

import (
	"time"

	"semdisco/internal/registry"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// pendingQuery tracks one in-flight federated query at this hop:
// results from forwarded copies aggregate here until every child
// answered or the hop deadline fires, then the merged, re-ranked,
// response-controlled result goes back toward the origin (§3.1: the
// registry, not the client, controls the number of responses).
type pendingQuery struct {
	query   wire.Query
	replyTo transport.Addr
	// parent is the node the query arrived from (client or forwarding
	// registry); a duplicated datagram of the same forward is recognized
	// by matching it and dropped rather than answered "exhausted".
	parent wire.NodeID
	// pools holds locally evaluated results; remote holds pools that
	// arrived from forwarded copies (or were pre-seeded from the
	// gateway result cache). They are kept apart so only genuinely
	// remote results are cached for reuse.
	pools  [][]wire.Advertisement
	remote [][]wire.Advertisement
	// outstanding holds the forward targets yet to send their Complete;
	// nil for a query that was not forwarded.
	outstanding map[wire.NodeID]bool
	// localPending marks a local evaluation still running on the read
	// pool; aggregation must not finalize before it lands (or the hop
	// deadline fires, whichever is first).
	localPending bool
	// fill marks this query as a candidate to fill the gateway result
	// cache under fillKey once every forwarded child has answered.
	fill    bool
	fillKey rkey
	// relay marks a query pinned to a domain this node does not front,
	// forwarded to exactly one target: there is no local pool, so that
	// target's one complete answer — ranked and capped there for the same
	// query and limit — is the answer, and goes back as it came.
	relay bool
	// cancel stops the hop deadline; nil when nothing was forwarded.
	cancel transport.CancelFunc
	done   bool
}

// allPools returns local and remote pools together for merge-ranking.
func (p *pendingQuery) allPools() [][]wire.Advertisement {
	if len(p.remote) == 0 {
		return p.pools
	}
	out := make([][]wire.Advertisement, 0, len(p.pools)+len(p.remote))
	out = append(out, p.pools...)
	return append(out, p.remote...)
}

func (r *Registry) handleQuery(env *wire.Envelope, from transport.Addr, qp *wire.Query) {
	// The query outlives this handler (pending state, pooled evaluation
	// off the node goroutine, forwards), but the decoded payload is
	// borrowed from the receive buffer — copy once here.
	q := *qp
	q.Payload = wire.CloneBytes(q.Payload)
	r.stats.QueriesReceived++
	fQueriesReceived.Inc()
	// Loop avoidance by unique query ID (§4.10).
	if !r.seen.add(q.QueryID) {
		r.stats.DuplicatesSuppressed++
		fQueriesDuplicate.Inc()
		// A duplicated datagram of the forward we are already processing
		// (same parent, query still pending) is dropped: that parent gets
		// the real answer when aggregation completes. Otherwise tell a
		// forwarding registry this branch is exhausted so its aggregation
		// completes without waiting for the hop deadline — but only a
		// registry: an empty Complete to the origin client would finalize
		// its query before the real fan-out answers.
		if p, pending := r.pending[q.QueryID]; pending && p.parent == env.From {
			return
		}
		if _, isPeer := r.peers[env.From]; isPeer {
			r.env.Send(from, wire.QueryResult{QueryID: q.QueryID, Complete: true})
		}
		return
	}

	opts := queryOptions(q)

	// Gateway result cache: a fresh cached remote pool substitutes for
	// the whole fan-out — only the local evaluation runs. NoCache
	// queries skip the lookup but still fill the cache (their result is
	// fresh by construction).
	var key rkey
	var cachedRemote [][]wire.Advertisement
	cacheHit := false
	if r.rcache != nil {
		key = rkeyFor(q)
		if !q.NoCache {
			cachedRemote, cacheHit = r.rcache.get(key, q.Payload, r.now())
		}
	}

	var targets []fwdTarget
	if !cacheHit {
		targets = r.resolveTargets(q, env.From)
	}
	p := &pendingQuery{
		query:   q,
		replyTo: transport.Addr(q.ReplyAddr),
		parent:  env.From,
		remote:  cachedRemote,
	}
	if r.rcache != nil && !cacheHit && len(targets) > 0 {
		p.fill, p.fillKey = true, key
	}

	// Local evaluation. A registry without the payload's model still
	// forwards the query (it may be evaluable elsewhere). With a read
	// pool the store lookup runs off the node goroutine — the store is
	// concurrency-safe — and its result re-enters through the timer
	// queue, so all bookkeeping below stays single-writer. A query
	// pinned to a namespace this node provably does not front (it
	// declares a different domain) skips local evaluation: the store
	// holds the wrong domain's services, and a relay hop — the root
	// fallback in particular — must not leak them into the answer.
	if q.Domain != "" && r.dirEnabled() && q.Domain != r.cfg.Domain {
		if len(targets) == 0 {
			r.respond(q, p.replyTo, p.allPools())
			return
		}
		p.relay = len(targets) == 1
		r.pending[q.QueryID] = p
		r.forward(p, q, targets)
		return
	}
	now := r.now()
	if r.pool != nil && r.pool.TrySubmit(func() {
		local, err := r.store.Evaluate(q.Kind, q.Payload, opts, now)
		r.env.Clock.After(0, func() { r.localDone(q.QueryID, local, err) })
	}) {
		p.localPending = true
		fReadPoolAsync.Inc()
	} else {
		fReadPoolInline.Inc()
		if local, err := r.store.Evaluate(q.Kind, q.Payload, opts, now); err == nil {
			p.pools = append(p.pools, local)
		} else {
			r.env.Tracef("local evaluation skipped: %v", err)
		}
	}

	if len(targets) == 0 && !p.localPending {
		// Leaf of the forwarding tree (or a cache hit): answer
		// immediately.
		r.respond(q, p.replyTo, p.allPools())
		return
	}
	// A leaf waiting only for its own pooled evaluation arms no deadline
	// (an accepted pool task always lands in localDone) but keeps its
	// pending entry: the result lands there, and it is what tells a
	// duplicated datagram of this forward from a loop.
	r.pending[q.QueryID] = p
	if len(targets) > 0 {
		r.forward(p, q, targets)
	}
}

// forward sends the query on to its resolved targets and arms the hop
// deadline: children get proportionally smaller budgets, so a parent
// never times out before its children can respond.
func (r *Registry) forward(p *pendingQuery, q wire.Query, targets []fwdTarget) {
	fwd := q
	fwd.TTL = q.TTL - 1
	fwd.ReplyAddr = string(r.env.Addr())
	p.outstanding = make(map[wire.NodeID]bool, len(targets))
	for _, t := range targets {
		p.outstanding[t.id] = true
		r.env.Send(t.addr, fwd)
		r.stats.QueriesForwarded++
		fQueriesForwarded.Inc()
	}
	deadline := r.cfg.QueryTimeout * time.Duration(int(q.TTL)+1)
	p.cancel = r.env.Clock.After(deadline, func() { r.finalize(q.QueryID) })
}

// localDone lands a pooled local evaluation back on the node goroutine
// and finalizes the query if nothing else is outstanding.
func (r *Registry) localDone(queryID uuid.UUID, local []wire.Advertisement, err error) {
	if r.stopped {
		return
	}
	p, ok := r.pending[queryID]
	if !ok || p.done {
		return // already answered on the hop deadline
	}
	p.localPending = false
	if err == nil {
		p.pools = append(p.pools, local)
	} else {
		r.env.Tracef("local evaluation skipped: %v", err)
	}
	if len(p.outstanding) == 0 {
		r.finalize(queryID)
	}
}

// fwdTarget is one destination of a query forward: usually a peer, but
// the cascade may target a gateway known only through the directory.
type fwdTarget struct {
	id   wire.NodeID
	addr transport.Addr
}

// resolveTargets implements the resolution cascade for domain-scoped
// queries — local store (handled by the caller's evaluation), then the
// domain directory, then the root fallback — and defers to the flat
// forwardTargets for everything else. A query pinned to a *different*
// domain skips the WAN flood entirely: the directory names the one
// gateway fronting that namespace, and an unknown domain escalates to
// the configured root.
func (r *Registry) resolveTargets(q wire.Query, sender wire.NodeID) []fwdTarget {
	if q.TTL == 0 {
		return nil
	}
	if q.Domain != "" && r.dirEnabled() && q.Domain != r.cfg.Domain && r.IsGateway() {
		if e, ok := r.dir.lookup(q.Domain); ok {
			fDirLookupHit.Inc()
			if e.Origin == r.env.ID || e.Origin == sender {
				return nil
			}
			return []fwdTarget{{id: e.Origin, addr: transport.Addr(e.Addr)}}
		}
		fDirLookupMiss.Inc()
		if r.cfg.RootAddr != "" && r.cfg.Role != RoleRoot {
			fDirRootFallback.Inc()
			return []fwdTarget{{id: r.peerIDByAddr(r.cfg.RootAddr), addr: transport.Addr(r.cfg.RootAddr)}}
		}
		// Nowhere left to escalate (we are the root, or no root is
		// configured): fall through to the flat fan-out so the query can
		// still resolve the slow way.
	}
	peers := r.forwardTargets(q, sender)
	out := make([]fwdTarget, len(peers))
	for i, p := range peers {
		out[i] = fwdTarget{id: p.info.ID, addr: transport.Addr(p.info.Addr)}
	}
	return out
}

// peerIDByAddr finds the peer ID behind a transport address (the root,
// when it is also seeded); a nil ID means the responder is unknown and
// aggregation completes on the hop deadline instead of its Complete.
func (r *Registry) peerIDByAddr(addr string) wire.NodeID {
	for _, p := range r.sortedPeers() {
		if p.info.Addr == addr {
			return p.info.ID
		}
	}
	return wire.NodeID{}
}

// forwardTargets selects the peers this hop forwards to, applying TTL,
// the forwarding strategy, gateway coordination, summary pruning, and —
// for a query pinned to this gateway's own domain — domain confinement.
func (r *Registry) forwardTargets(q wire.Query, sender wire.NodeID) []*peer {
	if q.TTL == 0 {
		return nil
	}
	gateway := r.IsGateway()
	confine := q.Domain != "" && r.dirEnabled() && q.Domain == r.cfg.Domain
	var eligible []*peer
	for _, p := range r.sortedPeers() {
		if p.info.ID == sender {
			continue
		}
		if !p.lan && !gateway {
			// Non-gateway registries leave WAN forwarding to the LAN
			// gateway (§4.7); the gateway is a LAN peer and will relay.
			continue
		}
		if confine && !p.lan {
			// The query is pinned to our own domain: WAN peers that the
			// directory proves front a different namespace cannot hold
			// in-domain services. Peers the directory does not know stay
			// eligible (conservative, like summary pruning).
			if d, known := r.dir.domainOf(p.info.ID); known && d != q.Domain {
				continue
			}
		}
		if r.cfg.SummaryPruning && r.pruneBySummary(q, p) {
			r.stats.ForwardsPruned++
			fForwardsPruned.Inc()
			continue
		}
		eligible = append(eligible, p)
	}
	switch q.Strategy {
	case wire.StrategyRandomWalk:
		k := int(q.Walkers)
		if k == 0 {
			k = 1
		}
		if len(eligible) > k {
			r.rng.Shuffle(len(eligible), func(i, j int) {
				eligible[i], eligible[j] = eligible[j], eligible[i]
			})
			eligible = eligible[:k]
		}
	default:
		// Flood and expanding ring forward to all eligible peers; the
		// ring's growth is driven by the client reissuing with larger
		// TTLs.
	}
	return eligible
}

// pruneBySummary reports whether the peer's gossiped summary proves it
// cannot answer the query. Conservative: peers without a summary, or
// queries without prunable tokens, are never pruned.
func (r *Registry) pruneBySummary(q wire.Query, p *peer) bool {
	if p.summary == nil {
		return false
	}
	// The cached query plan means a query forwarded to many peers — and
	// later evaluated and merge-ranked here — decodes its payload once
	// per node, not once per peer considered.
	_, tokens, prunable, err := r.store.QueryPlan(q.Kind, q.Payload)
	if err != nil || !prunable {
		return false
	}
	have := p.summary[q.Kind]
	if have == nil {
		// The peer gossiped a summary that contains nothing of this
		// kind: it provably stores no matching advertisement. It might
		// still relay to others, but summary pruning deliberately trades
		// that reach for bandwidth — the ablation E12 measures the cost.
		return true
	}
	for _, t := range tokens {
		if have[t] {
			return false
		}
	}
	return true
}

func (r *Registry) handleQueryResult(env *wire.Envelope, res *wire.QueryResult) {
	p, ok := r.pending[res.QueryID]
	if !ok || p.done {
		return
	}
	complete := false
	if res.Complete {
		if _, waiting := p.outstanding[env.From]; waiting {
			delete(p.outstanding, env.From)
		} else if len(p.outstanding) == 1 && p.outstanding[wire.NodeID{}] {
			// A root-fallback forward whose responder ID we did not know
			// was tracked under the nil ID; its Complete closes that slot.
			delete(p.outstanding, wire.NodeID{})
		}
		complete = len(p.outstanding) == 0 && !p.localPending
	}
	if complete && p.relay && len(p.remote) == 0 {
		// The adverts still borrow the receive buffer, which is fine:
		// Send marshals them before it returns.
		r.relay(p, res.Adverts)
		return
	}
	if len(res.Adverts) > 0 {
		// Aggregated pools outlive the handler (and may be pinned by the
		// gateway result cache); the decoded adverts borrow the receive
		// buffer, so deep-copy before retaining.
		p.remote = append(p.remote, wire.CloneAdverts(res.Adverts))
	}
	if complete {
		r.finalize(res.QueryID)
	}
}

// release retires the pending state of a query about to be answered.
func (r *Registry) release(p *pendingQuery) {
	p.done = true
	delete(r.pending, p.query.QueryID)
	if p.cancel != nil {
		p.cancel()
	}
}

// relay answers a relay query (pendingQuery.relay) with its one
// target's complete result: no merge, no re-check, no copy — a proxy,
// not a second evaluator. The cap is a guard against a target that
// ignored the limit; only the gateway result cache needs a copy to keep.
func (r *Registry) relay(p *pendingQuery, adverts []wire.Advertisement) {
	r.release(p)
	if p.fill {
		r.rcache.put(p.fillKey, p.query.Payload, [][]wire.Advertisement{wire.CloneAdverts(adverts)}, r.now())
	}
	if limit := r.store.EffectiveLimit(queryOptions(p.query)); len(adverts) > limit {
		adverts = adverts[:limit]
	}
	r.answer(p.query, p.replyTo, adverts)
}

// finalize merges all pools, re-ranks and caps them, responds toward
// the origin, and releases the pending state.
func (r *Registry) finalize(queryID uuid.UUID) {
	p, ok := r.pending[queryID]
	if !ok || p.done {
		return
	}
	r.release(p)
	// Fill the gateway result cache only from a complete aggregation:
	// every forwarded child answered. A hop-deadline finalize with
	// branches still outstanding would pin a truncated result set.
	if p.fill && len(p.outstanding) == 0 && r.rcache != nil {
		r.rcache.put(p.fillKey, p.query.Payload, p.remote, r.now())
	}
	r.respond(p.query, p.replyTo, p.allPools())
}

// queryOptions is the response control a query delegates (§3.1).
func queryOptions(q wire.Query) registry.QueryOptions {
	return registry.QueryOptions{MaxResults: int(q.MaxResults), BestOnly: q.BestOnly, NoCache: q.NoCache}
}

// respond merges, re-checks and ranks the pools and answers with the
// result: the step of a node that evaluated the query itself or
// gathered more than one answer to it.
func (r *Registry) respond(q wire.Query, to transport.Addr, pools [][]wire.Advertisement) {
	opts := queryOptions(q)
	merged, err := r.store.MergeRank(q.Kind, q.Payload, pools, opts)
	if err != nil {
		// No model for this kind here: pass pooled results through
		// unranked but still capped, so constrained registries can relay.
		for _, pool := range pools {
			merged = append(merged, pool...)
		}
		if limit := r.store.EffectiveLimit(opts); len(merged) > limit {
			merged = merged[:limit]
		}
	}
	r.answer(q, to, merged)
}

// answer sends the final result of a query toward its origin.
func (r *Registry) answer(q wire.Query, to transport.Addr, adverts []wire.Advertisement) {
	r.stats.QueriesAnswered++
	fQueriesAnswered.Inc()
	r.stats.ResultsReturned += uint64(len(adverts))
	fResultsReturned.Add(uint64(len(adverts)))
	r.env.Send(to, wire.QueryResult{QueryID: q.QueryID, Adverts: adverts, Complete: true})
}
