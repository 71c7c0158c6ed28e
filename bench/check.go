package main

import (
	"fmt"
	stdruntime "runtime"
	"sync"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/registry"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// reference is a cache-off twin of the registry's store: the same
// adverts, evaluated live for every template. Ranking is a strict total
// order (quality, service key, advert ID), so the registry's replies
// must equal the twin's results ID for ID, in order.
type reference struct {
	store *registry.Store
	set   [][]byte
}

func newReference(in *inputs, adverts []wire.Advertisement, set [][]byte) (*reference, error) {
	st := registry.New(registry.Options{
		Models:         describe.NewRegistry(describe.NewSemanticModel(in.onto)),
		Leases:         lease.Policy{Max: 10 * time.Minute, Default: 30 * time.Second},
		PlanCacheSize:  -1,
		QueryCacheSize: -1,
	})
	if err := populate(st, adverts); err != nil {
		return nil, err
	}
	return &reference{store: st, set: set}, nil
}

func (r *reference) sum(tmpl int32) (uint64, error) {
	res, err := r.store.Evaluate(describe.KindSemantic, r.set[tmpl],
		registry.QueryOptions{MaxResults: maxResults, NoCache: true}, time.Now())
	if err != nil {
		return 0, err
	}
	return sumIDs(res), nil
}

// checkReplies compares every answered query among recs with the
// reference, evaluating each distinct template once.
func (r *reference) checkReplies(recs [][]opRecord) error {
	seen := make(map[int32]uint64)
	for _, rs := range recs {
		for i := range rs {
			if rs[i].kind == opQuery && rs[i].ok {
				seen[rs[i].tmpl] = 0
			}
		}
	}
	tmpls := make([]int32, 0, len(seen))
	for t := range seen {
		tmpls = append(tmpls, t)
	}
	sums := make([]uint64, len(tmpls))
	errs := make([]error, len(tmpls))
	workers := stdruntime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tmpls); i += workers {
				sums[i], errs[i] = r.sum(tmpls[i])
			}
		}(w)
	}
	wg.Wait()
	for i, t := range tmpls {
		if errs[i] != nil {
			return fmt.Errorf("reference evaluation of template %d: %w", t, errs[i])
		}
		seen[t] = sums[i]
	}
	for c, rs := range recs {
		for i := range rs {
			rec := &rs[i]
			if rec.kind != opQuery || !rec.ok {
				continue
			}
			if !rec.check {
				return fmt.Errorf("client %d op %d: reply not Complete or over MaxResults", c, i)
			}
			if rec.sum != seen[rec.tmpl] {
				return fmt.Errorf("client %d op %d: reply to template %d differs from the reference evaluation", c, i, rec.tmpl)
			}
		}
	}
	return nil
}

// checkWellFormed is the in-window check of a workload whose store
// changes under the queries: every ack said OK, every result was
// Complete and within MaxResults.
func checkWellFormed(recs [][]opRecord) error {
	for c, rs := range recs {
		for i := range rs {
			if rs[i].ok && !rs[i].check {
				return fmt.Errorf("client %d op %d: malformed reply", c, i)
			}
		}
	}
	return nil
}

// checkDurable runs after the churn clients stopped. It first asks the
// live registry every hot template once more and compares with a twin
// of the state the acks imply, then closes the registry, recovers its
// WAL directory into a fresh store and requires every acked, not
// removed advert to be there and every removed one to be gone. The
// process is not killed, so this shows acked ⇒ replayable, not that
// the data survived a page-cache loss. It returns the recovered store
// and log, still open.
func checkDurable(s *session) (*registry.Store, *registry.WAL, error) {
	gone := make(map[uuid.UUID]bool)
	var fresh []wire.Advertisement
	for _, c := range s.clients {
		for _, id := range c.removed {
			gone[id] = true
		}
		fresh = append(fresh, c.published...)
	}
	var expect []wire.Advertisement
	for _, from := range [][]wire.Advertisement{s.in.adverts, fresh} {
		for _, a := range from {
			if !gone[a.ID] {
				expect = append(expect, a)
			}
		}
	}

	ref, err := newReference(s.in, expect, s.in.hot)
	if err != nil {
		return nil, nil, err
	}
	final := make([][]opRecord, len(s.clients))
	for i, c := range s.clients {
		for t := range s.in.hot {
			final[i] = append(final[i], c.do(opQuery, t))
		}
	}
	if err := ref.checkReplies(final); err != nil {
		return nil, nil, fmt.Errorf("after churn: %w", err)
	}

	if err := s.cluster.stopNodes(); err != nil {
		return nil, nil, err
	}
	st, wal, _, err := registry.Recover(registry.WALConfig{
		Dir: s.cluster.walDir, Fsync: true, NewStore: storeFactory(s.in, nil),
	})
	if err != nil {
		return nil, nil, fmt.Errorf("recovering the WAL directory: %w", err)
	}
	for _, a := range expect {
		if !st.Has(a.ID) {
			wal.Close()
			return nil, nil, fmt.Errorf("acked advert %s missing after recovery", a.ID)
		}
	}
	for id := range gone {
		if st.Has(id) {
			wal.Close()
			return nil, nil, fmt.Errorf("removed advert %s present after recovery", id)
		}
	}
	return st, wal, nil
}
