package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json and the tables
// the program prints from equal: workloads, metric names, units,
// directions and bounds.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), program has %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, file []benchmarkMetric, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(defs))
		}
		for i, m := range file {
			if want := (benchmarkMetric{defs[i].name, defs[i].unit, defs[i].better, defs[i].bound}); m != want {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, program has %+v", kind, i, m, want)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

func testConfig(t *testing.T, workload string, trace bool) runConfig {
	return runConfig{
		workload:    workload,
		seed:        7,
		window:      time.Second,
		trace:       trace,
		adverts:     4000,
		setupRounds: 1,
		outDir:      t.TempDir(),
		log:         io.Discard,
	}
}

// checkResult requires exactly the metrics of defs, all finite, no
// failed op and passing output checks.
func checkResult(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct {
		t.Error("output checks failed")
	}
	if res.Attempted == 0 || res.Failed != 0 {
		t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s missing", d.name)
			continue
		}
		if v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s = %v %q, want a finite value in %q", d.name, v.Value, v.Unit, d.unit)
		}
	}
}

// TestWorkloads runs every workload for one second, untraced, end to
// end over loopback, with all output checks.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(testConfig(t, wl.name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}
		})
	}
}

// TestTracedQueryHot runs the traced path once and requires every
// per-layer metric, non-zero where query-hot exercises the layer.
func TestTracedQueryHot(t *testing.T) {
	cfg := testConfig(t, "query-hot", true)
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, perLayer)
	for _, name := range []string{
		"client.query.lat_p50_us", "client.results_per_query", "client.gen_ns_per_op",
		"udpnet.return_wait_us_p50", "udpnet.send_us_p50", "udpnet.datagrams_per_op",
		"runtime.dispatch_us_p50", "runtime.residence_us_p50", "runtime.pool.async_share",
		"wire.decode_ns_per_msg", "wire.marshal_ns_per_msg", "wire.request_bytes", "wire.reply_bytes",
		"federation.handle_us_p50",
		"registry.evaluate_us_p50", "registry.mergerank_us_p50", "registry.publish_us_p50",
		"registry.candidates_per_query", "registry.qcache.hit_ratio", "registry.plancache.hit_ratio",
		"registry.heap_bytes_per_advert",
		"describe.decode_query_ns", "describe.decode_description_ns", "describe.evaluate_ns_per_candidate",
		"match.match_ns_per_call", "profile.decode_ns",
		"process.allocs_per_op", "process.heap_mb", "trace.overhead_ratio",
	} {
		if res.Metrics[name].Value == 0 {
			t.Errorf("per-layer metric %s is 0 on query-hot", name)
		}
	}
	if _, err := os.Stat(cfg.outDir + "/trace-query-hot.json"); err != nil {
		t.Errorf("trace file: %v", err)
	}
}
