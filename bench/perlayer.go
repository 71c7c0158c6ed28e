package main

import (
	"fmt"
	"io"

	"semdisco/internal/obs"
)

// always computes the per-layer metrics that need no tracing: the
// clients' own view, diffs of the program's obs counters across the
// window, and process statistics.
func (m *measurement) always(s *session) map[string]float64 {
	out := make(map[string]float64)
	byKind := map[opKind][]int64{}
	var all []int64
	var gen, results, queries float64
	ops := 0.0
	writes := 0.0 // mutations the clients sent: a replace is a remove and a publish
	m.inWindow(-1, func(r *opRecord) {
		if !r.ok {
			return
		}
		ops++
		gen += float64(r.gen)
		all = append(all, r.lat)
		byKind[r.kind] = append(byKind[r.kind], r.lat)
		switch r.kind {
		case opQuery:
			queries++
			results += float64(r.nres)
		case opRenew:
			writes++
		case opReplace:
			writes += 2
		}
	})
	out["client.query.lat_p50_us"] = quantile(byKind[opQuery], 0.50) / 1e3
	out["client.query.lat_p99_us"] = quantile(byKind[opQuery], 0.99) / 1e3
	out["client.renew.lat_p50_us"] = quantile(byKind[opRenew], 0.50) / 1e3
	out["client.replace.lat_p50_us"] = quantile(byKind[opReplace], 0.50) / 1e3
	out["client.lat_p999_us"] = quantile(all, 0.999) / 1e3
	out["client.results_per_query"] = ratio(results, queries)
	out["client.gen_ns_per_op"] = ratio(gen, ops)

	d := func(names ...string) float64 { return m.delta(-1, names...) }
	share := func(hit, miss string) float64 { return ratio(d(hit), d(hit, miss)) }
	out["udpnet.datagrams_per_op"] = ratio(d("transport.udp.sent.packets", "transport.udp.recv.packets"), ops)
	out["udpnet.drops"] = d("transport.udp.drops")
	out["runtime.pool.async_share"] = share("federation.readpool.async", "federation.readpool.inline")
	out["federation.forwards_per_op"] = ratio(d("federation.queries.forwarded"), queries)
	out["federation.directory.hit_ratio"] = share("federation.directory.lookups.hit", "federation.directory.lookups.miss")
	out["federation.root_fallback_per_op"] = ratio(d("federation.directory.root.fallback"), queries)
	out["registry.qcache.hit_ratio"] = share("registry.qcache.hits", "registry.qcache.misses")
	out["registry.plancache.hit_ratio"] = share("registry.plancache.hits", "registry.plancache.misses")
	out["registry.qcache.invalidations_per_write"] = ratio(d("registry.qcache.invalidations"), writes)
	out["registry.wal.fsyncs_per_write"] = ratio(d("registry.wal.fsyncs"), writes)
	out["registry.wal.shared_sync_ratio"] = ratio(d("registry.wal.sync.shared"), d("registry.wal.appends"))
	out["registry.wal.bytes_per_write"] = ratio(d("registry.wal.bytes"), d("registry.wal.appends"))
	out["registry.wal.fsync_us_p50"] = m.histogramMedian("registry.wal.fsync.latency_us")
	out["registry.wal.recover_ms"] = float64(s.cluster.recovery.Elapsed.Microseconds()) / 1e3
	out["registry.wal.replayed_records"] = float64(s.cluster.recovery.Replayed)
	out["match.memo.hit_ratio"] = share("match.cache.hits", "match.cache.misses")

	out["process.allocs_per_op"] = ratio(float64(m.memEnd.Mallocs-m.memStart.Mallocs), ops)
	out["process.gc_pause_us_p99"] = quantile(m.gcPauses, 0.99) / 1e3
	out["process.heap_mb"] = float64(m.memEnd.HeapAlloc) / (1 << 20)
	return out
}

// histogramMedian estimates the median of an obs histogram over the
// window, interpolating linearly inside the bucket it falls in (the
// buckets are coarse: 100, 250, 500 us ...).
func (m *measurement) histogramMedian(name string) float64 {
	last, _ := m.bounds[len(m.bounds)-1].obs.Get(name)
	first, _ := m.bounds[0].obs.Get(name)
	h := obs.Snapshot{Metrics: []obs.MetricValue{last}}.Diff(obs.Snapshot{Metrics: []obs.MetricValue{first}})
	if len(h.Metrics) == 0 {
		return 0
	}
	mv := h.Metrics[0]
	target := float64(mv.Count) / 2
	var lo, below float64
	for _, b := range mv.Buckets {
		if float64(b.N) >= target {
			if b.LE < 0 {
				return lo // overflow bucket: no upper edge to interpolate to
			}
			return lo + (float64(b.LE)-lo)*ratio(target-below, float64(b.N)-below)
		}
		lo, below = float64(b.LE), float64(b.N)
	}
	return lo
}

// traced adds the metrics only a traced session has.
func (m *measurement) traced(s *session, table *stageTable, out map[string]float64) {
	tr := s.tr
	out["udpnet.queue_wait_us_p50"] = quantile(table.queueWait, 0.50) / 1e3
	out["udpnet.queue_wait_us_p99"] = quantile(table.queueWait, 0.99) / 1e3
	out["udpnet.send_us_p50"] = quantile(tr.send.take(), 0.50) / 1e3
	out["udpnet.return_wait_us_p50"] = quantile(table.returnWait, 0.50) / 1e3
	out["runtime.dispatch_us_p50"] = quantile(table.dispatch, 0.50) / 1e3
	out["runtime.dispatch_us_p99"] = quantile(table.dispatch, 0.99) / 1e3
	out["runtime.residence_us_p50"] = quantile(table.residence, 0.50) / 1e3
	out["trace.unexplained_us_p50"] = table.Unexplained

	queries := 0.0
	m.inWindow(-1, func(r *opRecord) {
		if r.ok && r.kind == opQuery {
			queries++
		}
	})
	perQuery := ratio(float64(m.evalCalls), queries)
	out["registry.candidates_per_query"] = perQuery
	out["registry.candidates_per_result"] = ratio(perQuery, out["client.results_per_query"])
	out["describe.evaluate_ns_per_candidate"] = ratio(float64(tr.evalNanos.Load()), float64(tr.evalTimed.Load()))
	out["registry.heap_bytes_per_advert"] = s.cluster.heapPerAdvert
}

// windowSpans returns the clients' spans whose reply arrived inside the
// measured window.
func (m *measurement) windowSpans(s *session) []span {
	lo, hi := m.bounds[0].at, m.bounds[len(m.bounds)-1].at
	var out []span
	for _, c := range s.clients {
		for _, sp := range c.spans {
			if sp.Recv >= lo && sp.Recv < hi {
				out = append(out, sp)
			}
		}
	}
	return out
}

func describeShape(w io.Writer, vals map[string]float64) {
	fmt.Fprintf(w, "shape: qcache hit ratio %.3f, evaluate p50 %.1f us vs client query p50 %.1f us, fsyncs/write %.3f, forwards/op %.3f, drops %.0f\n",
		vals["registry.qcache.hit_ratio"], vals["registry.evaluate_us_p50"], vals["client.query.lat_p50_us"],
		vals["registry.wal.fsyncs_per_write"], vals["federation.forwards_per_op"], vals["udpnet.drops"])
}
