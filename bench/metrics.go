package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is what a user of the discovery network sees. Printed by
// every untraced run; BENCHMARK.json repeats the table and the test
// keeps the two equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us/op", "lower", 0.25},
	{"wire_bytes_per_op", "B/op", "lower", 0.04},
}

// perLayer is what one package does, printed by a traced run. A metric
// that does not apply to a workload (WAL figures on a memory-backed
// registry, renew latency on a query-only mix) reads 0 there.
var perLayer = []metricDef{
	{"client.query.lat_p50_us", "us", "lower", 0},
	{"client.query.lat_p99_us", "us", "lower", 0},
	{"client.renew.lat_p50_us", "us", "lower", 0},
	{"client.replace.lat_p50_us", "us", "lower", 0},
	{"client.lat_p999_us", "us", "lower", 0},
	{"client.results_per_query", "count", "higher", 0},
	{"client.gen_ns_per_op", "ns/op", "lower", 0},

	{"udpnet.queue_wait_us_p50", "us", "lower", 0},
	{"udpnet.queue_wait_us_p99", "us", "lower", 0},
	{"udpnet.send_us_p50", "us", "lower", 0},
	{"udpnet.return_wait_us_p50", "us", "lower", 0},
	{"udpnet.datagrams_per_op", "count", "lower", 0},
	{"udpnet.drops", "count", "lower", 0},

	{"runtime.dispatch_us_p50", "us", "lower", 0},
	{"runtime.dispatch_us_p99", "us", "lower", 0},
	{"runtime.residence_us_p50", "us", "lower", 0},
	{"runtime.pool.async_share", "ratio", "higher", 0},

	{"wire.decode_ns_per_msg", "ns", "lower", 0},
	{"wire.marshal_ns_per_msg", "ns", "lower", 0},
	{"wire.allocs_per_msg", "count", "lower", 0},
	{"wire.request_bytes", "B", "lower", 0},
	{"wire.reply_bytes", "B", "lower", 0},

	{"federation.handle_us_p50", "us", "lower", 0},
	{"federation.forwards_per_op", "count", "lower", 0},
	{"federation.directory.hit_ratio", "ratio", "higher", 0},
	{"federation.root_fallback_per_op", "count", "lower", 0},

	{"registry.evaluate_us_p50", "us", "lower", 0},
	{"registry.evaluate_us_p99", "us", "lower", 0},
	{"registry.mergerank_us_p50", "us", "lower", 0},
	{"registry.publish_us_p50", "us", "lower", 0},
	{"registry.renew_us_p50", "us", "lower", 0},
	{"registry.candidates_per_query", "count", "lower", 0},
	{"registry.candidates_per_result", "count", "lower", 0},
	{"registry.qcache.hit_ratio", "ratio", "higher", 0},
	{"registry.plancache.hit_ratio", "ratio", "higher", 0},
	{"registry.qcache.invalidations_per_write", "count", "lower", 0},
	{"registry.heap_bytes_per_advert", "B", "lower", 0},

	{"registry.wal.fsync_us_p50", "us", "lower", 0},
	{"registry.wal.fsyncs_per_write", "count", "lower", 0},
	{"registry.wal.shared_sync_ratio", "ratio", "higher", 0},
	{"registry.wal.bytes_per_write", "B", "lower", 0},
	{"registry.wal.recover_ms", "ms", "lower", 0},
	{"registry.wal.replayed_records", "count", "lower", 0},

	{"describe.decode_query_ns", "ns", "lower", 0},
	{"describe.decode_description_ns", "ns", "lower", 0},
	{"describe.evaluate_ns_per_candidate", "ns", "lower", 0},
	{"match.match_ns_per_call", "ns", "lower", 0},
	{"match.memo.hit_ratio", "ratio", "higher", 0},
	{"profile.decode_ns", "ns", "lower", 0},

	{"process.allocs_per_op", "count", "lower", 0},
	{"process.gc_pause_us_p99", "us", "lower", 0},
	{"process.heap_mb", "MiB", "lower", 0},

	{"trace.overhead_ratio", "ratio", "higher", 0},
	{"trace.unexplained_us_p50", "us", "lower", 0},
}

// quantile returns the nearest-rank q-quantile of vs (0 when empty).
// It sorts vs in place.
func quantile(vs []int64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return float64(vs[rank(len(vs), q)])
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, 0 when b is 0: a counter that never moved makes its
// ratio "not applicable", which per-layer metrics report as 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
