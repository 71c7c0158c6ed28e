package main

import (
	"fmt"
	"math/rand"
	stdruntime "runtime"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/federation"
	"semdisco/internal/match"
	"semdisco/internal/profile"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// The functions here call one layer at a time through its public API,
// with no sockets, on the run's own inputs: the captured datagrams, the
// workload's templates, the populated store. They run after the traced
// window, so what they cost is not in any end-to-end figure.

const (
	replaySamples = 2000
	// replayBudget bounds each batch-timed micro-measurement.
	replayBudget = 50 * time.Millisecond
)

// perCall times fn in a loop for about replayBudget and returns ns per
// call; for calls too short to time one by one.
func perCall(fn func(i int)) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < replayBudget {
		for k := 0; k < 64; k++ {
			fn(n)
			n++
		}
	}
	return float64(time.Since(start)) / float64(n)
}

// each times every call of fn(0..n) on its own and returns the ns.
func each(n int, fn func(i int)) []int64 {
	out := make([]int64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = int64(time.Since(start))
	}
	return out
}

func mallocs() uint64 {
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return ms.Mallocs
}

func replayWire(reqs, reps [][]byte, out map[string]float64) {
	msgs := append(append([][]byte(nil), reqs...), reps...)
	if len(msgs) == 0 {
		return
	}
	dec := wire.NewDecoder()
	envs := make([]*wire.Envelope, len(msgs))
	for i, m := range msgs {
		envs[i], _ = wire.Unmarshal(m) // the client already decoded every one of these
	}
	out["wire.decode_ns_per_msg"] = perCall(func(i int) { dec.Decode(msgs[i%len(msgs)]) })
	out["wire.marshal_ns_per_msg"] = perCall(func(i int) { wire.Marshal(envs[i%len(envs)]) })
	before := mallocs()
	for i := range msgs {
		dec.Decode(msgs[i])
		wire.Marshal(envs[i])
	}
	out["wire.allocs_per_msg"] = float64(mallocs()-before) / float64(len(msgs))
	out["wire.request_bytes"] = meanLen(reqs)
	out["wire.reply_bytes"] = meanLen(reps)
}

func meanLen(bs [][]byte) float64 {
	total := 0
	for _, b := range bs {
		total += len(b)
	}
	return ratio(float64(total), float64(len(bs)))
}

// discardIface and idleClock let a federation.Registry run with no
// network: sends vanish, timers never fire.
type discardIface struct{ addr transport.Addr }

func (d discardIface) Addr() transport.Addr                 { return d.addr }
func (d discardIface) Unicast(transport.Addr, []byte) error { return nil }
func (d discardIface) Multicast([]byte) error               { return nil }
func (d discardIface) Close() error                         { return nil }

type idleClock struct{}

func (idleClock) Now() time.Time                                   { return time.Now() }
func (idleClock) After(time.Duration, func()) transport.CancelFunc { return func() {} }

// replayFederation times Registry.HandleEnvelope on the captured
// requests: everything a datagram costs after decode and before the
// socket — dedupe, inline evaluation, MergeRank, reply marshal.
func replayFederation(wl *workloadDef, st *registry.Store, reqs [][]byte, out map[string]float64) {
	if len(reqs) == 0 {
		return
	}
	ids := uuid.NewGenerator(0x6c61796572)
	env := &runtime.Env{ID: ids.New(), Iface: discardIface{"127.0.0.1:1"}, Clock: idleClock{}, Gen: ids}
	cfg := federation.Config{}
	if wl.domain != "" {
		cfg.Role, cfg.Domain = federation.RoleFederated, wl.domain
	}
	reg := federation.New(env, st, cfg)
	// The handler switches on the pointer bodies the Decoder emits, so
	// each request is decoded (untimed) right before it is handled.
	dec := wire.NewDecoder()
	ns := make([]int64, 0, replaySamples)
	for i := 0; i < replaySamples; i++ {
		e, err := dec.Decode(reqs[i%len(reqs)])
		if err != nil {
			continue
		}
		if q, ok := e.Body.(*wire.Query); ok {
			q.QueryID = ids.New() // a repeated ID is suppressed as a loop
			q.TTL = 0             // the data gateway's share of the cascade, no forward
		}
		start := time.Now()
		reg.HandleEnvelope(e, "127.0.0.1:2")
		ns = append(ns, int64(time.Since(start)))
	}
	out["federation.handle_us_p50"] = quantile(ns, 0.5) / 1e3
}

// replayRegistry times the store's own entry points on the workload's
// queries, with the caches in the state the run left them.
func replayRegistry(s *session, st *registry.Store, out map[string]float64) error {
	set := s.in.templates(s.wl)
	rng := rand.New(rand.NewSource(1))
	draws := make([]int, replaySamples)
	for i := range draws {
		draws[i] = rng.Intn(len(set))
	}
	opts := registry.QueryOptions{MaxResults: maxResults}
	results := make([][]wire.Advertisement, replaySamples)
	var failed error // the last call that failed; the figures mean nothing then
	ev := each(replaySamples, func(i int) {
		var err error
		if results[i], err = st.Evaluate(describe.KindSemantic, set[draws[i]], opts, time.Now()); err != nil {
			failed = err
		}
	})
	out["registry.evaluate_us_p50"] = quantile(ev, 0.50) / 1e3
	out["registry.evaluate_us_p99"] = quantile(ev, 0.99) / 1e3
	mr := each(replaySamples, func(i int) {
		if _, err := st.MergeRank(describe.KindSemantic, set[draws[i]], [][]wire.Advertisement{results[i]}, opts); err != nil {
			failed = err
		}
	})
	out["registry.mergerank_us_p50"] = quantile(mr, 0.5) / 1e3

	// Publish and renew go through the store's backend: on
	// churn-durable these include the log append and the fsync barrier.
	const writes = 200
	ids := uuid.NewGenerator(0x7772697465)
	fresh := make([]wire.Advertisement, writes)
	for i := range fresh {
		fresh[i] = s.in.freshAdvert(rng, ids, numClients, i)
	}
	pub := each(writes, func(i int) {
		if _, _, err := st.Publish(fresh[i], time.Now()); err != nil {
			failed = err
		}
	})
	ren := each(writes, func(i int) {
		if _, ok := st.Renew(fresh[i].ID, time.Now()); !ok {
			failed = fmt.Errorf("renew of %s refused", fresh[i].ID)
		}
	})
	for _, a := range fresh {
		st.Remove(a.ID)
	}
	out["registry.publish_us_p50"] = quantile(pub, 0.5) / 1e3
	out["registry.renew_us_p50"] = quantile(ren, 0.5) / 1e3
	if failed != nil {
		return fmt.Errorf("direct store replay: %w", failed)
	}
	return nil
}

// replayMatching times the description model, the profile codec and
// the matcher on sampled templates and adverts.
func replayMatching(s *session, out map[string]float64) {
	set := s.in.templates(s.wl)
	model := describe.NewSemanticModel(s.in.onto)
	adverts := s.in.adverts
	out["describe.decode_query_ns"] = perCall(func(i int) { model.DecodeQuery(set[i%len(set)]) })
	out["describe.decode_description_ns"] = perCall(func(i int) { model.DecodeDescription(adverts[i%len(adverts)].Payload) })
	out["profile.decode_ns"] = perCall(func(i int) { profile.Decode(adverts[i%len(adverts)].Payload) })

	templates := make([]*profile.Template, 0, 256)
	for i := 0; i < len(set) && len(templates) < cap(templates); i += len(set)/cap(templates) + 1 {
		q, err := model.DecodeQuery(set[i])
		if err != nil {
			continue
		}
		templates = append(templates, q.(*describe.SemanticQuery).Template)
	}
	profiles := s.in.profiles
	for _, p := range profiles {
		p.Intern(s.in.onto)
	}
	m := match.New(s.in.onto)
	out["match.match_ns_per_call"] = perCall(func(i int) {
		m.Match(templates[i%len(templates)], profiles[(i*7919)%len(profiles)])
	})
}
