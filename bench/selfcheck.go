package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck runs the full set of workloads twice with one seed and once
// with the next, each run a fresh process, and prints for every
// end-to-end metric the same-seed pair, their relative difference and
// the bound. It returns the exit code: non-zero if a run failed its
// output checks or a same-seed pair differs by more than its bound.
func selfCheck(seed int64, seconds float64) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("selfcheck: %d workloads x (seed %d twice, seed %d once), window %v s\n", len(workloads), seed, seed+1, seconds)
	fmt.Printf("environment: %s\n", environment())
	runOne := func(workload string, seed int64) (*result, error) {
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res result
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
		}
		return &res, nil
	}
	code := 0
	for _, wl := range workloads {
		var runs []*result
		for _, sd := range []int64{seed, seed, seed + 1} {
			res, err := runOne(wl.name, sd)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if !res.Correct || float64(res.Failed) >= 0.001*float64(res.Attempted) {
				fmt.Printf("%s seed %d: correct %v, %d of %d ops failed\n", wl.name, sd, res.Correct, res.Failed, res.Attempted)
				code = 1
			}
			runs = append(runs, res)
		}
		fmt.Printf("%s\n  %-20s %14s %14s %8s %7s   %14s\n", wl.name, "metric", "run 1", "run 2", "diff", "bound", "other seed")
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.name].Value, runs[1].Metrics[d.name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.bound {
				verdict, code = "  EXCEEDS BOUND", 1
			}
			fmt.Printf("  %-20s %14.4f %14.4f %7.2f%% %6.0f%%   %14.4f%s\n",
				d.name, a, b, 100*diff, 100*d.bound, runs[2].Metrics[d.name].Value, verdict)
		}
	}
	return code
}
