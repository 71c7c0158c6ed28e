package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/seed7 from the tables the catalog prints now")

// wallClock names the catalog experiments whose tables report measured
// wall-clock time, so they differ from run to run and have no golden.
var wallClock = map[string]bool{"E14": true, "E19": true, "E20": true}

// TestGoldenTables regenerates the seed-7 table of every deterministic
// experiment in the catalog, with exactly simdisco's parameters, and
// compares it byte for byte with testdata/seed7/<id>.txt: the table as
// `simdisco -run <id> -seed 7` prints it, without the "finished in"
// line that follows. A simulated figure changes only with a golden
// diff; `go test ./cmd/simdisco -update` rewrites the files.
func TestGoldenTables(t *testing.T) {
	const seed = 7
	dir := filepath.Join("testdata", "seed7")
	if *update {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	golden := map[string]bool{}
	for _, e := range catalog() {
		if wallClock[e.id] {
			continue
		}
		golden[e.id+".txt"] = true
		t.Run(e.id, func(t *testing.T) {
			got := fmt.Sprintln(e.run(seed))
			path := filepath.Join(dir, e.id+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s table differs from %s (run with -update if the change is intended)\n--- got\n%s--- want\n%s",
					e.id, path, got, want)
			}
		})
	}
	// A golden left behind by a renamed or removed experiment fails too.
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !golden[f.Name()] {
			t.Errorf("%s: no deterministic catalog experiment %s", filepath.Join(dir, f.Name()), strings.TrimSuffix(f.Name(), ".txt"))
		}
	}
}
