// Command bench is the repository's benchmark: it assembles registries
// in-process exactly as cmd/registryd does, drives them over loopback
// UDP from raw sockets speaking the wire protocol, checks every reply
// against a reference evaluation, and prints the end-to-end metrics (or,
// traced, the per-layer metrics) named in BENCHMARK.json. See README.md.
//
//	go run ./bench -workload query-hot -seed 1 [-seconds 15] [-trace 1]
//	go run ./bench -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"syscall"
	"time"
)

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	window   time.Duration
	trace    bool
	adverts  int
	// setupRounds times the set-up this many times in an untraced run
	// and reports the median; all but the last round are torn down at
	// once.
	setupRounds int
	outDir      string
	log         io.Writer // the human-readable report
}

const (
	defaultSeconds     = 15
	defaultAdverts     = 20000
	defaultSetupRounds = 5
)

// warmup is 3 s for the standard 15 s window and shrinks with it.
func warmup(window time.Duration) time.Duration { return window / 5 }

// result is what a run reports: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload  = flag.String("workload", "", "query-hot, query-cold, churn-durable or xdomain")
		seed      = flag.Int64("seed", 1, "every input of the run derives from it")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the measured window")
		trace     = flag.Int("trace", 0, "1: report per-layer metrics from a traced window and write out/trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice with one seed and once with another, compare against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	if findWorkload(*workload) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q; want one of:\n", *workload)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	cfg := runConfig{
		workload:    *workload,
		seed:        *seed,
		window:      time.Duration(*seconds * float64(time.Second)),
		trace:       *trace != 0,
		adverts:     defaultAdverts,
		setupRounds: defaultSetupRounds,
		outDir:      "bench/out",
		log:         os.Stdout,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// environment names where the numbers come from; part of every output.
func environment() string {
	kernel := "unknown"
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		b := make([]byte, 0, len(u.Release))
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, kernel %s, loopback, fsync on sandbox storage; %s",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), kernel, deviations)
}

// run executes one workload once. An error means the run could not be
// measured; a failed output check comes back as Correct == false.
func run(cfg runConfig) (*result, error) {
	wl := findWorkload(cfg.workload)
	if cfg.adverts < numClients*ownPerClient+1 {
		return nil, fmt.Errorf("need more than %d adverts", numClients*ownPerClient)
	}
	prog := &progress{phase: "set-up"}
	// The PR 12 harness hung; this one cannot. Expected wall time is
	// set-up rounds + warm-up + window + checks.
	expected := 20*time.Second + 2*(cfg.window+warmup(cfg.window))
	watchdog := time.AfterFunc(3*expected, func() {
		fmt.Fprintf(os.Stderr, "bench: watchdog: still running after %v (%s); giving up\n", 3*expected, prog)
		os.Exit(3)
	})
	defer watchdog.Stop()

	fmt.Fprintf(cfg.log, "workload %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(cfg.log, "seed %d, %d adverts, %d closed-loop clients, warm-up %v, window %v in %d slices, op timeout %v\n",
		cfg.seed, cfg.adverts, numClients, warmup(cfg.window), cfg.window, slices, opTimeout)
	fmt.Fprintf(cfg.log, "environment: %s\n", environment())
	if cfg.trace {
		return runTraced(cfg, wl, prog)
	}

	var setups []float64
	var s *session
	for round := 0; round < cfg.setupRounds; round++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		var err error
		if s, took, err = openSession(cfg, wl, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	defer s.close()
	m := s.measure(warmup(cfg.window), cfg.window, prog)
	prog.set("checking", nil)
	checkErr := s.check(m)

	vals, err := m.endToEnd(cfg.log)
	if err != nil {
		return nil, err
	}
	vals["setup_s"] = median(setups)
	res := report(cfg.log, endToEnd, vals, m, checkErr)
	fmt.Fprintf(cfg.log, "set-up rounds: %.3f s\n", setups)
	always := m.always(s)
	for _, name := range []string{"udpnet.drops", "federation.root_fallback_per_op", "registry.qcache.hit_ratio", "process.heap_mb"} {
		fmt.Fprintf(cfg.log, "  %-34s %12.4f\n", name, always[name])
	}
	return res, nil
}

// check runs the workload's output checks on a finished measurement.
// On churn-durable it stops the registries.
func (s *session) check(m *measurement) error {
	if s.wl.topology == topoDurable {
		if err := checkWellFormed(m.recs); err != nil {
			return err
		}
		st, wal, err := checkDurable(s)
		if err != nil {
			return err
		}
		s.recovered = st
		s.recoveredLog = wal
		return nil
	}
	ref, err := newReference(s.in, s.in.adverts, s.in.templates(s.wl))
	if err != nil {
		return err
	}
	if err := ref.checkReplies(m.recs); err != nil {
		return err
	}
	if s.wl.topology == topoXDomain {
		// Every advert lives in domB, so equality with the reference
		// already shows no other domain's advert leaked in.
		if n := m.delta(-1, "federation.directory.root.fallback"); n != 0 {
			return fmt.Errorf("%v queries fell back to the root; the directory should resolve domB", n)
		}
	}
	return nil
}

// report prints the metrics table and builds the result line.
func report(w io.Writer, defs []metricDef, vals map[string]float64, m *measurement, checkErr error) *result {
	attempted, failed := m.counts()
	res := &result{Correct: checkErr == nil, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v, res.Correct = 0, false
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
		if d.bound > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s better %-6s bound %.0f%%\n", d.name, v, d.unit, d.better, 100*d.bound)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s\n", d.name, v, d.unit)
		}
	}
	samples := attempted - failed
	fmt.Fprintf(w, "ops_attempted %d, ops_failed %d, latency samples %d\n", attempted, failed, samples)
	if checkErr != nil {
		fmt.Fprintf(w, "output check FAILED: %v\n", checkErr)
	} else {
		fmt.Fprintf(w, "output checks passed\n")
	}
	return res
}

// runTraced measures a third of the window untraced for reference, then
// two thirds with the tracer's decorators installed, and reports the
// per-layer metrics.
func runTraced(cfg runConfig, wl *workloadDef, prog *progress) (*result, error) {
	plain, _, err := openSession(cfg, wl, nil)
	if err != nil {
		return nil, err
	}
	m0 := plain.measure(warmup(cfg.window), cfg.window/3, prog)
	if err := plain.close(); err != nil {
		return nil, err
	}
	attempted0, failed0 := m0.counts()
	untraced := float64(attempted0-failed0) / m0.seconds()

	prog.set("traced set-up", nil)
	s, _, err := openSession(cfg, wl, newTracer())
	if err != nil {
		return nil, err
	}
	defer s.close()
	m := s.measure(warmup(cfg.window), cfg.window*2/3, prog)
	prog.set("checking", nil)
	checkErr := s.check(m)

	prog.set("layer replay", nil)
	vals := m.always(s)
	spans := m.windowSpans(s)
	table := buildStageTable(spans, s.tr.requeue.take())
	m.traced(s, table, vals)
	attempted, failed := m.counts()
	vals["trace.overhead_ratio"] = ratio(float64(attempted-failed)/m.seconds(), untraced)

	st := s.recovered
	if st == nil {
		st = s.cluster.data.store
	}
	var reqs, reps [][]byte
	for _, c := range s.clients {
		reqs, reps = append(reqs, c.reqs...), append(reps, c.reps...)
	}
	if checkErr == nil {
		replayWire(reqs, reps, vals)
		replayFederation(wl, st, reqs, vals)
		if err := replayRegistry(s, st, vals); err != nil {
			return nil, err
		}
		replayMatching(s, vals)
	}

	res := report(cfg.log, perLayer, vals, m, checkErr)
	table.print(cfg.log)
	describeShape(cfg.log, vals)
	if err := writeTrace(cfg.outDir, cfg, table, spans); err != nil {
		return nil, err
	}
	return res, nil
}
