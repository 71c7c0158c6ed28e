package registry

import (
	"sort"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// The inverted notification index. A standing query is compiled once at
// Subscribe into the key domain a publish can probe in O(1):
//
//   - a semantic query whose category is declared in its ontology
//     posts under every concept ID in its subsumption closure
//     (describe.ConceptIndexer → ontology.RelatedIDs), so a declared
//     advert probes exactly one byConcept bucket;
//   - any other prunable query posts under its interned summary tokens
//     (the same soundness invariant the advert token index rests on: a
//     description can match a prunable query only if they share a
//     token, or the description carries no tokens at all);
//   - a non-prunable query (e.g. an attribute-only KV template) is a
//     catch-all and is probed by every publish of its kind.
//
// Each publish then gathers candidates from byConcept[advert concept] ∪
// byTok[advert tokens] ∪ catchAll instead of scanning all standing
// queries; only candidates run the full model.Evaluate. Token-less
// adverts could match anything, so they (and stores built with
// Options.DisableSubIndex — the property-tested baseline) fall back to
// the linear scan, counted by registry.subindex.fallback.scans.
//
// An advert with a concept ID probes the token buckets as well, and
// that probe is load-bearing. A subscription on an undeclared category
// X is token-posted under [X, owl:Thing], and an owl:Thing advert,
// which carries a concept ID, matches it: Thing subsumes every
// category, declared or not. TestSubIndexMatchesLinearScan publishes
// Thing adverts to pin this.
//
// Removal is lazy: Unsubscribe tombstones the record (sub.removed) and
// probes skip it; once tombstones outnumber live entries the posting
// lists are rebuilt from scratch. All index state is guarded by the
// store's subMu.
type subIndex struct {
	kinds   map[describe.Kind]*subKind
	entries int // live subscriptions posted
	dead    int // tombstoned records still referenced by posting lists
}

// subKind holds one kind's posting lists.
type subKind struct {
	byTok     map[tok][]*subscription
	byConcept map[int32][]*subscription
	catchAll  []*subscription
}

// newSubIndex returns an empty index ready for the first insert.
func newSubIndex() *subIndex {
	return &subIndex{kinds: make(map[describe.Kind]*subKind)}
}

// compileSub derives the subscription's posting keys from its query
// plan. The caller holds the subMu write lock.
func (s *Store) compileSub(sub *subscription, plan *queryPlan) {
	sub.idxToks, sub.idxConcepts, sub.catchAll = nil, nil, false
	if ci, ok := plan.model.(describe.ConceptIndexer); ok {
		if ids, ok := ci.QueryConceptIDs(plan.query); ok {
			sub.idxConcepts = ids
			return
		}
	}
	if plan.prunable {
		sub.idxToks = s.toks.internAll(plan.tokens)
		return
	}
	sub.catchAll = true
}

// insert posts a compiled subscription.
func (ix *subIndex) insert(sub *subscription) {
	ix.post(sub)
	ix.entries++
	mSubIndexSize.Add(1)
}

// post appends a compiled subscription to the posting lists its keys
// select — concept buckets, token buckets, or the catch-all — creating
// the kind's bucket maps on first use.
func (ix *subIndex) post(sub *subscription) {
	sk := ix.kinds[sub.kind]
	if sk == nil {
		sk = &subKind{}
		ix.kinds[sub.kind] = sk
	}
	switch {
	case sub.idxConcepts != nil:
		if sk.byConcept == nil {
			sk.byConcept = make(map[int32][]*subscription)
		}
		for _, cid := range sub.idxConcepts {
			sk.byConcept[cid] = append(sk.byConcept[cid], sub)
		}
	case sub.idxToks != nil:
		if sk.byTok == nil {
			sk.byTok = make(map[tok][]*subscription)
		}
		for _, t := range sub.idxToks {
			sk.byTok[t] = append(sk.byTok[t], sub)
		}
	default:
		sk.catchAll = append(sk.catchAll, sub)
	}
}

// remove drops a subscription lazily: the caller has tombstoned (or is
// about to tombstone) the record via sub.removed, so posting-list
// probes skip it; the stale list entries are swept by the next rebuild.
func (ix *subIndex) remove(sub *subscription) {
	ix.entries--
	ix.dead++
	mSubIndexSize.Add(-1)
}

// maybeRebuildSubsLocked reposts every live subscription once lazy
// tombstones outnumber live entries, bounding probe overhead at 2x.
// The caller holds the subMu write lock.
func (s *Store) maybeRebuildSubsLocked() {
	ix := s.subidx
	if ix == nil || ix.dead < 64 || ix.dead <= ix.entries {
		return
	}
	ix.kinds = make(map[describe.Kind]*subKind)
	live := 0
	for _, sub := range s.subsArr {
		if sub == nil || sub.removed {
			continue
		}
		ix.post(sub)
		live++
	}
	ix.entries = live
	ix.dead = 0
	mSubIndexRebuilds.Inc()
}

// subCand is the by-value snapshot of one candidate subscription taken
// under subMu.RLock; model.Evaluate runs against these after the lock
// is released, so a slow match never stalls Subscribe, Unsubscribe or
// PruneSubscriptions.
type subCand struct {
	seq    uint64
	id     uuid.UUID
	notify string
	query  describe.Query
}

// notifySubs finds the standing queries a freshly published advert
// matches. Candidates come from the inverted index (or the full scan on
// baseline stores and token-less adverts), are snapshotted under the
// read lock, sorted back into insertion order, and evaluated lock-free.
// cid is the advert's declared concept ID, -1 when it has none.
func (s *Store) notifySubs(model describe.Model, adv wire.Advertisement, desc describe.Description, toks []tok, cid int32, now time.Time) []Notification {
	var cands []subCand
	s.subMu.RLock()
	if len(s.subs) == 0 {
		s.subMu.RUnlock()
		return nil
	}
	add := func(sub *subscription) {
		if sub == nil || sub.removed || sub.kind != adv.Kind || !sub.alive(now) {
			return
		}
		cands = append(cands, subCand{seq: sub.seq, id: sub.id, notify: sub.notify, query: sub.query})
	}
	hasCid := cid >= 0
	// A token-less, concept-less advert shares no posting key yet may
	// match any standing query: fall back to the full scan.
	scanAll := s.subidx == nil || (!hasCid && len(toks) == 0)
	if scanAll {
		mSubFallbackScans.Inc()
		for _, sub := range s.subsArr {
			add(sub)
		}
	} else if sk := s.subidx.kinds[adv.Kind]; sk != nil {
		if hasCid {
			for _, sub := range sk.byConcept[cid] {
				add(sub)
			}
		}
		// A multi-token subscription sits in one bucket per token, so
		// probing several advert tokens can surface it twice; dedup is
		// only needed in that doubly-multi case.
		var seen map[uint64]struct{}
		for _, t := range toks {
			for _, sub := range sk.byTok[t] {
				if len(toks) > 1 && sub != nil && len(sub.idxToks) > 1 {
					if seen == nil {
						seen = make(map[uint64]struct{})
					}
					if _, dup := seen[sub.seq]; dup {
						continue
					}
					seen[sub.seq] = struct{}{}
				}
				add(sub)
			}
		}
		for _, sub := range sk.catchAll {
			add(sub)
		}
	}
	s.subMu.RUnlock()
	if len(cands) == 0 {
		return nil
	}
	// Index probes surface candidates in posting-list order; restore
	// insertion order so notifications are emitted exactly as the
	// baseline scan would emit them.
	sort.Slice(cands, func(i, j int) bool { return cands[i].seq < cands[j].seq })
	mSubCandidates.Add(uint64(len(cands)))
	var notes []Notification
	for _, c := range cands {
		if ev := model.Evaluate(c.query, desc); ev.Matched {
			notes = append(notes, Notification{SubID: c.id, NotifyAddr: c.notify, Advert: adv})
		}
	}
	mSubMatched.Add(uint64(len(notes)))
	return notes
}
