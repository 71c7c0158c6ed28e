package registry

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

// TestNaNQoSFailsEveryFloor: a QoS floor holds only when the value is
// at least the floor. A NaN value or floor never is, and neither
// reaches the matcher: the decoders reject non-finite numbers, so an
// advert holding one is refused at publish and a query holding one
// fails to decode. (A NaN value used to pass every floor, and its NaN
// score broke the ranking order.)
func TestNaNQoSFailsEveryFloor(t *testing.T) {
	s := newStore(t)
	for iri, acc := range map[string]float64{"urn:svc:nan": math.NaN(), "urn:svc:good": 0.95, "urn:svc:poor": 0.2} {
		p := &profile.Profile{ServiceIRI: iri, Category: c("Radar"), Grounding: "urn:g", QoS: map[string]float64{"accuracy": acc}}
		adv := wire.Advertisement{ID: gen.New(), Kind: describe.KindSemantic, Payload: p.Encode(), LeaseMillis: 60_000, Version: 1}
		_, _, err := s.Publish(adv, t0)
		if wantErr := math.IsNaN(acc); (err != nil) != wantErr || (wantErr && !errors.Is(err, ErrBadPayload)) {
			t.Fatalf("publish %s: %v", iri, err)
		}
	}
	query := func(floor float64) ([]string, error) {
		q := &describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor"), MinQoS: map[string]float64{"accuracy": floor}}, MinDegree: match.Subsumed}
		out, err := s.Evaluate(describe.KindSemantic, q.Encode(), QueryOptions{NoCache: true}, t0)
		var keys []string
		for _, a := range out {
			d, err := s.Models().DecodeDescription(a.Kind, a.Payload)
			if err != nil {
				t.Fatal(err)
			}
			keys = append(keys, d.ServiceKey())
		}
		return keys, err
	}
	if got, err := query(0.9); err != nil || len(got) != 1 || got[0] != "urn:svc:good" {
		t.Fatalf("MinQoS accuracy 0.9 returned %v, %v, want only urn:svc:good", got, err)
	}
	if got, err := query(math.NaN()); err == nil || len(got) != 0 {
		t.Fatalf("a NaN floor returned %v, %v, want a decode error", got, err)
	}
}

// coldEvaluateBytes is what one uncached Evaluate allocates on
// TestColdEvaluateBytes's population since adverts are held as match
// records, the top-K is preallocated, the query's token closure is
// built from class IDs and computed once per plan (go1.24,
// linux/amd64).
const coldEvaluateBytes = 4306

// TestColdEvaluateBytes gates the bytes one Evaluate allocates with the
// plan and result caches off, on the population and template grid of
// the end-to-end benchmark's query-cold workload: 20 000 adverts over
// the leaves of a depth-6, branching-3 taxonomy with one or two outputs
// and an accuracy value, queried by category (levels 1–4) × required
// output × accuracy floor. The gate is 1.05 × coldEvaluateBytes.
func TestColdEvaluateBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	s := New(Options{
		Models:         describe.NewRegistry(describe.NewSemanticModel(onto)),
		Leases:         lease.Policy{Max: time.Hour},
		PlanCacheSize:  -1,
		QueryCacheSize: -1,
	})
	pop := workload.GenProfiles(workload.PopulationSpec{N: 20000, Classes: levels[5], DataClasses: levels[3], OntologyIRI: onto.IRI, Seed: 1})
	for _, p := range pop {
		adv := wire.Advertisement{ID: gen.New(), Kind: describe.KindSemantic, Payload: p.Encode(), LeaseMillis: 600_000, Version: 1}
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	var payloads [][]byte
	for _, cat := range slices.Concat(levels[1:5]...) {
		for _, out := range levels[3] {
			for _, acc := range []float64{.5, .6, .7, .8} {
				q := &describe.SemanticQuery{Template: &profile.Template{
					Category: cat, RequiredOutputs: []ontology.Class{out}, MinQoS: map[string]float64{"accuracy": acc},
				}, MinDegree: match.Subsumed}
				payloads = append(payloads, q.Encode())
			}
		}
	}
	const runs = 2000
	results := 0
	evaluate := func(i int) {
		out, err := s.Evaluate(describe.KindSemantic, payloads[i*7919%len(payloads)], QueryOptions{MaxResults: 10}, t0)
		if err != nil {
			t.Fatal(err)
		}
		results += len(out)
	}
	for i := range 100 {
		evaluate(i)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range runs {
		evaluate(i)
	}
	runtime.ReadMemStats(&after)
	if results == 0 {
		t.Fatal("degenerate grid: no template matched")
	}
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	t.Logf("cold Evaluate: %.0f B and %.1f allocs per call, %.1f results", bytes, allocs, float64(results)/(runs+100))
	if limit := 1.05 * coldEvaluateBytes; bytes > limit {
		t.Fatalf("cold Evaluate allocates %.0f B per call, over the gate of %.0f B (1.05 × %d B)", bytes, limit, coldEvaluateBytes)
	}
}
