package semdisco

// One benchmark per experiment in DESIGN.md's index (the paper has no
// tables of its own; these regenerate the claim-reproduction tables
// EXPERIMENTS.md records), plus micro-benchmarks for the load-bearing
// substrates. Run:
//
//	go test -bench=. -benchmem
//
// Scenario benchmarks print their result table once (-v to see it) and
// report a headline metric via b.ReportMetric so regressions in the
// *shape* show up in benchmark diffs.

import (
	"fmt"
	"os"
	stdruntime "runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/experiments"
	"semdisco/internal/lease"
	"semdisco/internal/match"
	"semdisco/internal/metrics"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/memnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
	"semdisco/internal/workload"
)

const benchSeed = 42

func reportTable(b *testing.B, tab *metrics.Table) {
	b.Helper()
	b.Logf("\n%s", tab)
}

func cell(tab *metrics.Table, row, col int) float64 {
	s := tab.Row(row)[col]
	s = strings.TrimSuffix(s, "kB")
	s = strings.TrimSuffix(s, "×")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return -1
	}
	return v
}

// cellDur parses a duration-rendered cell (e.g. "44ms") into
// milliseconds for ReportMetric.
func cellDur(tab *metrics.Table, row, col int) float64 {
	d, err := time.ParseDuration(tab.Row(row)[col])
	if err != nil {
		return -1
	}
	return float64(d) / float64(time.Millisecond)
}

func BenchmarkE1TopologyBandwidth(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E1TopologyBandwidth([]int{20, 40}, 10, benchSeed)
	}
	reportTable(b, tab)
	// Headline: decentralized / centralized query-bytes ratio at N=40.
	b.ReportMetric(cell(tab, 3, 7)/cell(tab, 4, 7), "dec/cen-query-cost")
}

func BenchmarkE2ResponseControl(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E2ResponseControl(50, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 1), "uncontrolled-responses")
	b.ReportMetric(cell(tab, 3, 1), "bestonly-responses")
}

func BenchmarkE3Robustness(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E3Robustness([]float64{0, 0.5, 1}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 4, 2), "distributed-success-at-50pct")
}

func BenchmarkE4Staleness(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E4Staleness([]time.Duration{2 * time.Second, 10 * time.Second}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 2), "uddi-stale-fraction")
	b.ReportMetric(cell(tab, 1, 2), "leased-2s-stale-fraction")
}

func BenchmarkE5Matchmaking(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E5Matchmaking(4, 3, 200, 60, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 2), "semantic-recall")
	b.ReportMetric(cell(tab, 2, 2), "uri-recall") // row 1 is the subsumed-floor ablation
}

func BenchmarkE6Bootstrap(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E6Bootstrap([]time.Duration{time.Second, 5 * time.Second}, benchSeed)
	}
	reportTable(b, tab)
}

func BenchmarkE6Fallback(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E6Fallback(10, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 1, 2), "fallback-services-found")
}

func BenchmarkE7Forwarding(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E7Forwarding(6, benchSeed)
	}
	reportTable(b, tab)
}

func BenchmarkE8PayloadSize(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E8PayloadSize(200, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 3, 1)/cell(tab, 0, 1), "rdf/uri-size-ratio")
}

func BenchmarkE9Coherence(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E9Coherence(4, 3, benchSeed)
	}
	reportTable(b, tab)
	last := tab.NumRows() - 1
	b.ReportMetric(cell(tab, last, 1)/cell(tab, last, 2), "wan-coverage")
}

func BenchmarkE10Gateway(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E10Gateway(3, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 1), "wan-queries-uncoordinated")
	b.ReportMetric(cell(tab, 1, 1), "wan-queries-coordinated")
}

func BenchmarkE11Republish(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E11Republish(benchSeed)
	}
	reportTable(b, tab)
}

func BenchmarkE12PushPull(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E12PushPull([]int{2, 20}, benchSeed)
	}
	reportTable(b, tab)
}

func BenchmarkE13Artifacts(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E13Artifacts(benchSeed)
	}
	reportTable(b, tab)
}

// E14 (query evaluation cost) cannot nest testing.Benchmark inside a
// benchmark; its table is produced by `cmd/simdisco -run E14`, and the
// same comparison is exposed here as three plain benchmarks:
// BenchmarkE14MatchCostURI / KV / Semantic.

func BenchmarkE14MatchCostURI(b *testing.B) {
	m := describe.URIModel{}
	d := &describe.URIDescription{TypeURI: "urn:type:radar", ServiceURI: "urn:svc:1"}
	q := &describe.URIQuery{TypeURI: "urn:type:radar"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(q, d)
	}
}

func BenchmarkE14MatchCostKV(b *testing.B) {
	m := describe.KVModel{}
	d := &describe.KVDescription{ServiceURI: "urn:svc:1", Name: "Weather feed", TypeURI: "urn:type:weather",
		Attrs: map[string]string{"region": "north"}}
	q := &describe.KVQuery{NamePrefix: "Wea", TypeURI: "urn:type:weather", Attrs: map[string]string{"region": "north"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(q, d)
	}
}

func BenchmarkE14MatchCostSemantic(b *testing.B) {
	onto, levels := benchOntology()
	m := describe.NewSemanticModel(onto)
	pop := workload.GenProfiles(workload.PopulationSpec{N: 64, Classes: levels[4], Seed: benchSeed})
	q := &describe.SemanticQuery{Template: &profile.Template{Category: levels[1][0]}}
	descs := make([]describe.Description, len(pop))
	for i, p := range pop {
		descs[i] = &describe.SemanticDescription{Profile: p}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Evaluate(q, descs[i%len(descs)])
	}
}

// --- substrate micro-benchmarks ---

func benchOntology() (*ontology.Ontology, [][]ontology.Class) {
	return workload.GenOntology(workload.OntologySpec{Depth: 5, Branching: 3})
}

func BenchmarkMatcherSemantic(b *testing.B) {
	onto, levels := benchOntology()
	pop := workload.GenProfiles(workload.PopulationSpec{N: 256, Classes: levels[4], Seed: benchSeed})
	m := match.New(onto)
	tpl := &profile.Template{Category: levels[1][0], MinQoS: map[string]float64{"accuracy": 0.6}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Match(tpl, pop[i%len(pop)])
	}
}

// benchMatchWorkload builds the BENCH_match.json matchmaking fixture: a
// deeper taxonomy than benchOntology and a template exercising every
// match aspect (category, required outputs, provided inputs, QoS).
// intern pre-resolves the concept IDs the way registry decode does.
func benchMatchWorkload(intern bool) (*match.Matcher, *profile.Template, []*profile.Profile) {
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	pop := workload.GenProfiles(workload.PopulationSpec{
		N: 256, Classes: levels[3], DataClasses: levels[5], Seed: benchSeed,
	})
	tpl := &profile.Template{
		Category:        levels[1][0],
		RequiredOutputs: []ontology.Class{levels[4][0], levels[4][9]},
		ProvidedInputs:  []ontology.Class{levels[4][3], levels[3][2]},
		MinQoS:          map[string]float64{"accuracy": 0.5},
	}
	if intern {
		tpl.Intern(onto)
		for _, p := range pop {
			p.Intern(onto)
		}
	}
	return match.New(onto), tpl, pop
}

// BenchmarkMatcherMatch times one match: compiled (interned IDs over
// the bitset closures, the registry evaluate path), compiled-raw (same
// ontology, concepts resolved per call — the direct-API path), and
// parallel (the compiled workload under b.RunParallel, so contention on
// the shared matcher shows).
func BenchmarkMatcherMatch(b *testing.B) {
	for _, v := range []struct {
		name   string
		intern bool
	}{
		{"compiled", true},
		{"compiled-raw", false},
	} {
		b.Run(v.name, func(b *testing.B) {
			m, tpl, pop := benchMatchWorkload(v.intern)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Match(tpl, pop[i%len(pop)])
			}
		})
	}
	b.Run("parallel", func(b *testing.B) {
		m, tpl, pop := benchMatchWorkload(true)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for i := 0; pb.Next(); i++ {
				m.Match(tpl, pop[i%len(pop)])
			}
		})
	})
}

// BenchmarkSubsumes compares one subsumption test in its two forms:
// pre-resolved interned IDs (one word test) and the string entry point
// (two map lookups + word test).
func BenchmarkSubsumes(b *testing.B) {
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
	top, leaves := levels[1][0], levels[5]
	b.Run("id", func(b *testing.B) {
		topID := onto.ClassID(top)
		leafIDs := make([]ontology.ClassID, len(leaves))
		for i, cl := range leaves {
			leafIDs[i] = onto.ClassID(cl)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			onto.SubsumesID(topID, leafIDs[i%len(leafIDs)])
		}
	})
	b.Run("compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			onto.Subsumes(top, leaves[i%len(leaves)])
		}
	})
}

// BenchmarkSimilarity times Wu–Palmer similarity on the depth arrays
// and the bitset LCS.
func BenchmarkSimilarity(b *testing.B) {
	b.Run("compiled", func(b *testing.B) {
		onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 6, Branching: 3})
		leaves := classIDs(onto, levels[5])
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			onto.SimilarityID(leaves[i%len(leaves)], leaves[(i+7)%len(leaves)])
		}
	})
}

// classIDs interns classes, as a decoded query or description holds them.
func classIDs(onto *ontology.Ontology, classes []ontology.Class) []ontology.ClassID {
	ids := make([]ontology.ClassID, len(classes))
	for i, c := range classes {
		ids[i] = onto.ClassID(c)
	}
	return ids
}

func BenchmarkOntologySubsumes(b *testing.B) {
	onto, levels := benchOntology()
	leaves := levels[4]
	top := levels[1][0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onto.Subsumes(top, leaves[i%len(leaves)])
	}
}

func BenchmarkOntologySimilarity(b *testing.B) {
	onto, levels := benchOntology()
	leaves := classIDs(onto, levels[4])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		onto.SimilarityID(leaves[i%len(leaves)], leaves[(i+7)%len(leaves)])
	}
}

func BenchmarkProfileEncode(b *testing.B) {
	_, levels := benchOntology()
	pop := workload.GenProfiles(workload.PopulationSpec{N: 64, Classes: levels[4], Seed: benchSeed})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pop[i%len(pop)].Encode()
	}
}

func BenchmarkProfileDecode(b *testing.B) {
	_, levels := benchOntology()
	pop := workload.GenProfiles(workload.PopulationSpec{N: 64, Classes: levels[4], Seed: benchSeed})
	encs := make([][]byte, len(pop))
	for i, p := range pop {
		encs[i] = p.Encode()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := profile.Decode(encs[i%len(encs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireMarshalQuery(b *testing.B) {
	gen := uuid.NewGenerator(benchSeed)
	env := wire.NewEnvelope(gen.New(), "lan0/c", wire.Query{
		QueryID: gen.New(), Kind: describe.KindSemantic,
		Payload: make([]byte, 120), TTL: 4, ReplyAddr: "lan0/c",
	}, gen)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Marshal(env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUnmarshalQuery(b *testing.B) {
	gen := uuid.NewGenerator(benchSeed)
	env := wire.NewEnvelope(gen.New(), "lan0/c", wire.Query{
		QueryID: gen.New(), Kind: describe.KindSemantic,
		Payload: make([]byte, 120), TTL: 4, ReplyAddr: "lan0/c",
	}, gen)
	data, err := wire.Marshal(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUUIDGenerator(b *testing.B) {
	g := uuid.NewGenerator(benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.New()
	}
}

var sinkStr string

func BenchmarkTableRender(b *testing.B) {
	tab := metrics.NewTable("bench", "a", "b", "c")
	for i := 0; i < 50; i++ {
		tab.AddRow(fmt.Sprintf("row-%d", i), i, float64(i)*1.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr = tab.String()
	}
}

// The registry's token index: a narrow (leaf-category) query touches
// only its candidate buckets while a broad (root) query still has to
// evaluate most of the store. Compare ns/op across the two.
func registryWithPopulation(b *testing.B, n int) (*registry.Store, []ontology.Class, []ontology.Class) {
	return registryWithPopulationQC(b, n, 0)
}

// registryWithPopulationQC lets qcache benchmarks pick the query-cache
// size (0 default-on, negative off).
func registryWithPopulationQC(b *testing.B, n, qcacheSize int) (*registry.Store, []ontology.Class, []ontology.Class) {
	b.Helper()
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 5, Branching: 3})
	leaves := levels[4]
	models := describe.NewRegistry(describe.NewSemanticModel(onto))
	s := registry.New(registry.Options{Models: models, Leases: lease.Policy{Max: time.Hour}, QueryCacheSize: qcacheSize})
	pop := workload.GenProfiles(workload.PopulationSpec{N: n, Classes: leaves, Seed: benchSeed})
	gen := uuid.NewGenerator(benchSeed)
	t0 := time.Unix(0, 0)
	for _, p := range pop {
		adv := wire.Advertisement{
			ID: gen.New(), Provider: gen.New(), Kind: describe.KindSemantic,
			Payload: p.Encode(), LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
		}
		if _, _, err := s.Publish(adv, t0); err != nil {
			b.Fatal(err)
		}
	}
	return s, leaves, levels[1]
}

// The Narrow/Broad/Parallel evaluate benchmarks measure *live*
// matchmaking cost (NoCache), so their numbers stay comparable across
// the introduction of the query result cache; BenchmarkQCache* below
// measures the cached path explicitly.

func BenchmarkRegistryEvaluateNarrow(b *testing.B) {
	s, leaves, _ := registryWithPopulation(b, 2000)
	payload := (&describe.SemanticQuery{Template: &profile.Template{Category: leaves[0]}}).Encode()
	t0 := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{NoCache: true}, t0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRegistryEvaluateBroad(b *testing.B) {
	s, _, tops := registryWithPopulation(b, 2000)
	payload := (&describe.SemanticQuery{Template: &profile.Template{Category: tops[0]}}).Encode()
	t0 := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{NoCache: true}, t0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQCacheRepeatedQuery is the tentpole headline: the same broad
// query issued repeatedly against a stable store, cached vs cache-off.
// The acceptance target is ≥10× throughput for the cached variant.
func BenchmarkQCacheRepeatedQuery(b *testing.B) {
	for _, v := range []struct {
		name   string
		qcache int
	}{
		{"cached", 0},
		{"cache-off", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, _, tops := registryWithPopulationQC(b, 2000, v.qcache)
			payload := (&describe.SemanticQuery{Template: &profile.Template{Category: tops[0]}}).Encode()
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{}, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQCacheRepeatedQueryParallel is the federation fan-in shape:
// many goroutines issuing the same query concurrently. Cached, they
// share one resident entry (and any concurrent fill through the
// singleflight group) instead of each paying a full scan.
func BenchmarkQCacheRepeatedQueryParallel(b *testing.B) {
	for _, v := range []struct {
		name   string
		qcache int
	}{
		{"cached", 0},
		{"cache-off", -1},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, _, tops := registryWithPopulationQC(b, 2000, v.qcache)
			payload := (&describe.SemanticQuery{Template: &profile.Template{Category: tops[0]}}).Encode()
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{}, t0); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkQCacheChurn interleaves each query with a publish. In the
// cached and cache-off cases the query is a top category every publish
// can enter, so every lookup finds a freshly invalidated entry — the
// worst case for the cache; the gap to cache-off is the validation +
// refill overhead. The disjoint case queries one leaf while the
// publishes land in the other leaves: token-keyed generations leave its
// entry valid, so it runs at hit speed.
func BenchmarkQCacheChurn(b *testing.B) {
	for _, v := range []struct {
		name     string
		qcache   int
		disjoint bool
	}{
		{"cached", 0, false},
		{"cache-off", -1, false},
		{"disjoint", 0, true},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, leaves, tops := registryWithPopulationQC(b, 2000, v.qcache)
			query, classes := tops[0], leaves
			if v.disjoint {
				query, classes = leaves[0], leaves[1:]
			}
			payload := (&describe.SemanticQuery{Template: &profile.Template{Category: query}}).Encode()
			pop := workload.GenProfiles(workload.PopulationSpec{N: 64, Classes: classes, Seed: benchSeed + 1})
			gen := uuid.NewGenerator(benchSeed + 1)
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				adv := wire.Advertisement{
					ID: gen.New(), Provider: gen.New(), Kind: describe.KindSemantic,
					Payload: pop[i%len(pop)].Encode(), LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
				}
				if _, _, err := s.Publish(adv, t0); err != nil {
					b.Fatal(err)
				}
				if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{}, t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistryNextExpiry measures the purge scheduler's deadline
// probe over a populated store: with the per-shard cached deadlines it
// is one atomic load per shard, no locks.
func BenchmarkRegistryNextExpiry(b *testing.B) {
	s, _, _ := registryWithPopulation(b, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.NextExpiry(); !ok {
			b.Fatal("expected a deadline")
		}
	}
}

// BenchmarkRegistryExpireIdleTick measures a purge sweep that purges
// nothing — the common steady-state tick. Cached deadlines let it skip
// every shard without locking.
func BenchmarkRegistryExpireIdleTick(b *testing.B) {
	s, _, _ := registryWithPopulation(b, 10_000)
	t0 := time.Unix(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := s.ExpireThrough(t0); len(out) != 0 {
			b.Fatal("unexpected purge")
		}
	}
}

// BenchmarkRegistryEvaluateParallel measures read-path scaling: many
// goroutines issue mixed narrow/broad queries against one store. With
// the lock-striped shards throughput should grow with GOMAXPROCS
// instead of serializing on one store lock.
func BenchmarkRegistryEvaluateParallel(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("adverts=%d", n), func(b *testing.B) {
			s, leaves, tops := registryWithPopulation(b, n)
			narrow := (&describe.SemanticQuery{Template: &profile.Template{Category: leaves[0]}}).Encode()
			broad := (&describe.SemanticQuery{Template: &profile.Template{Category: tops[0]}}).Encode()
			t0 := time.Unix(0, 0)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					payload := narrow
					if i%4 == 0 {
						payload = broad
					}
					if _, err := s.Evaluate(describe.KindSemantic, payload, registry.QueryOptions{}, t0); err != nil {
						b.Error(err)
						return
					}
					i++
				}
			})
		})
	}
}

func BenchmarkRegistryPublish(b *testing.B) {
	onto, levels := workload.GenOntology(workload.OntologySpec{Depth: 4, Branching: 3})
	models := describe.NewRegistry(describe.NewSemanticModel(onto))
	s := registry.New(registry.Options{Models: models, Leases: lease.Policy{Max: time.Hour}})
	pop := workload.GenProfiles(workload.PopulationSpec{N: 256, Classes: levels[3], Seed: benchSeed})
	gen := uuid.NewGenerator(benchSeed)
	t0 := time.Unix(0, 0)
	payloads := make([][]byte, len(pop))
	for i, p := range pop {
		payloads[i] = p.Encode()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		adv := wire.Advertisement{
			ID: gen.New(), Provider: gen.New(), Kind: describe.KindSemantic,
			Payload: payloads[i%len(payloads)], LeaseMillis: 60_000, Version: 1,
		}
		if _, _, err := s.Publish(adv, t0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- scale suite (scripts/bench.sh scale → BENCH_scale.json) -----------

// scaleStore builds a URI-model store, optionally on the linear-scan
// notification baseline.
func scaleStore(scanBaseline bool) *registry.Store {
	models := describe.NewRegistry(describe.URIModel{})
	return registry.New(registry.Options{
		Models:          models,
		Leases:          lease.Policy{Max: time.Hour, Default: time.Hour},
		DisableSubIndex: scanBaseline,
	})
}

const scaleTypes = 256

func scaleAdvert(i int, gen *uuid.Generator) wire.Advertisement {
	d := &describe.URIDescription{
		TypeURI:    fmt.Sprintf("urn:scale:type:%d", i%scaleTypes),
		ServiceURI: fmt.Sprintf("urn:scale:svc:%d", i),
		Name:       "svc", Addr: "lan0/p",
	}
	return wire.Advertisement{
		ID: gen.New(), Provider: gen.New(), ProviderAddr: "lan0/p",
		Kind: describe.KindURI, Payload: d.Encode(),
		LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
	}
}

// BenchmarkPublishWithSubs is the tentpole headline: publish against
// 10^4 standing queries spread over 256 service types, so ~0.4% match
// any one advert. The indexed store probes one posting bucket per
// publish; the scan baseline evaluates every subscription. Acceptance
// is ≥10x between the two variants.
func BenchmarkPublishWithSubs(b *testing.B) {
	for _, v := range []struct {
		name string
		scan bool
	}{
		{"indexed", false},
		{"scan", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			s := scaleStore(v.scan)
			gen := uuid.NewGenerator(benchSeed)
			t0 := time.Unix(0, 0)
			const subs = 10_000
			for i := 0; i < subs; i++ {
				payload := (&describe.URIQuery{TypeURI: fmt.Sprintf("urn:scale:type:%d", i%scaleTypes)}).Encode()
				if _, err := s.Subscribe(describe.KindURI, payload, "lan0/sub", gen.New(), time.Time{}); err != nil {
					b.Fatal(err)
				}
			}
			notes := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, n, err := s.Publish(scaleAdvert(i, gen), t0)
				if err != nil {
					b.Fatal(err)
				}
				notes += len(n)
			}
			b.ReportMetric(float64(notes)/float64(b.N), "notifications/op")
		})
	}
}

// scaleSizes returns the advert-count sweep: 10^5 and 10^6 always, 10^7
// only when SEMDISCO_SCALE_HUGE is set (it needs several GB and
// minutes).
func scaleSizes() []int {
	sizes := []int{100_000, 1_000_000}
	if os.Getenv("SEMDISCO_SCALE_HUGE") != "" {
		sizes = append(sizes, 10_000_000)
	}
	return sizes
}

// populateScaleStore publishes n adverts and returns the GC-settled
// heap bytes the store retains per advert. The caller reports it via
// ReportMetric *after* ResetTimer — ResetTimer clears custom metrics.
func populateScaleStore(b *testing.B, s *registry.Store, n int, gen *uuid.Generator) float64 {
	b.Helper()
	t0 := time.Unix(0, 0)
	var before, after stdruntime.MemStats
	stdruntime.GC()
	stdruntime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if _, _, err := s.Publish(scaleAdvert(i, gen), t0); err != nil {
			b.Fatal(err)
		}
	}
	stdruntime.GC()
	stdruntime.ReadMemStats(&after)
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
}

// BenchmarkScalePublish measures steady-state publish cost (and the
// compact representation's bytes/advert) at 10^5..10^7 resident
// adverts. Publishes update existing service keys, so the store size
// stays fixed while the arena recycles slots.
func BenchmarkScalePublish(b *testing.B) {
	for _, n := range scaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := scaleStore(false)
			gen := uuid.NewGenerator(benchSeed)
			bytesPerAdv := populateScaleStore(b, s, n, gen)
			t0 := time.Unix(0, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Publish(scaleAdvert(i%n, gen), t0); err != nil {
					b.Fatal(err)
				}
			}
			if bytesPerAdv > 0 {
				b.ReportMetric(bytesPerAdv, "bytes/advert")
			}
		})
	}
}

// BenchmarkScaleRenew measures lease renewal over a large resident
// population — the dominant steady-state write at scale (every live
// service renews every lease period).
func BenchmarkScaleRenew(b *testing.B) {
	for _, n := range scaleSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := scaleStore(false)
			gen := uuid.NewGenerator(benchSeed)
			ids := make([]uuid.UUID, n)
			t0 := time.Unix(0, 0)
			for i := 0; i < n; i++ {
				adv := scaleAdvert(i, gen)
				ids[i] = adv.ID
				if _, _, err := s.Publish(adv, t0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Renew(ids[i%n], t0); !ok {
					b.Fatal("renew lost an advert")
				}
			}
		})
	}
}

// BenchmarkE19Scale regenerates the E19 table at a bench-sized sweep;
// the headline is the notify-path speedup at 10^4 standing queries.
func BenchmarkE19Scale(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E19Scale([]int{100_000}, []int{10_000}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 1), "bytes/advert")
	b.ReportMetric(cell(tab, 0, 7), "notify-speedup")
}

// --- durability suite (scripts/bench.sh wal → BENCH_wal.json) -----------

// walBenchConfig builds a WALConfig over a per-benchmark temp dir with
// the scale-suite store factory. Snapshots are triggered explicitly so
// background compaction never races the timed section.
func walBenchConfig(b *testing.B, fsync bool) registry.WALConfig {
	b.Helper()
	return registry.WALConfig{
		Dir:           b.TempDir(),
		Fsync:         fsync,
		SnapshotEvery: -1,
		NewStore:      func() *registry.Store { return scaleStore(false) },
		Now:           func() time.Time { return time.Unix(0, 0) },
	}
}

// BenchmarkWALPublish measures the durability tax on the publish path:
// the memory store, the WAL with flush-to-OS barriers, the WAL with a
// real fsync per sequential publish (the worst case — every caller pays
// a full disk barrier), and fsync under parallel publishers, where
// group commit lets one fsync acknowledge a whole batch.
func BenchmarkWALPublish(b *testing.B) {
	t0 := time.Unix(0, 0)
	b.Run("mem", func(b *testing.B) {
		s := scaleStore(false)
		gen := uuid.NewGenerator(benchSeed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := s.Publish(scaleAdvert(i, gen), t0); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, v := range []struct {
		name  string
		fsync bool
	}{
		{"wal-flush", false},
		{"wal-fsync", true},
	} {
		b.Run(v.name, func(b *testing.B) {
			s, w, _, err := registry.Recover(walBenchConfig(b, v.fsync))
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			gen := uuid.NewGenerator(benchSeed)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Publish(scaleAdvert(i, gen), t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("wal-fsync-parallel", func(b *testing.B) {
		s, w, _, err := registry.Recover(walBenchConfig(b, true))
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		var workers atomic.Uint64
		// 8×GOMAXPROCS publishers: while the commit leader blocks in
		// fsync, the others append and queue behind the barrier, so the
		// batching shows even on a single-core runner.
		b.SetParallelism(8)
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			// uuid.Generator is not goroutine-safe: one per publisher.
			gen := uuid.NewGenerator(benchSeed + workers.Add(1))
			for i := 0; pb.Next(); i++ {
				if _, _, err := s.Publish(scaleAdvert(i, gen), t0); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
}

// BenchmarkWALRecover measures cold-boot recovery at 10^4..10^6 resident
// adverts: replaying the raw log versus loading a compacted snapshot.
// Each timed iteration is one full boot — open the directory, rebuild
// the store, leases, indexes and interned tokens.
func BenchmarkWALRecover(b *testing.B) {
	t0 := time.Unix(0, 0)
	for _, v := range []struct {
		name string
		snap bool
	}{
		{"log", false},
		{"snapshot", true},
	} {
		for _, n := range []int{10_000, 100_000, 1_000_000} {
			b.Run(fmt.Sprintf("%s/n=%d", v.name, n), func(b *testing.B) {
				cfg := walBenchConfig(b, false)
				s, w, _, err := registry.Recover(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gen := uuid.NewGenerator(benchSeed)
				for i := 0; i < n; i++ {
					if _, _, err := s.Publish(scaleAdvert(i, gen), t0); err != nil {
						b.Fatal(err)
					}
				}
				if v.snap {
					if err := w.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rec, w2, _, err := registry.Recover(cfg)
					if err != nil {
						b.Fatal(err)
					}
					if rec.Len() != n {
						b.Fatalf("recovered %d adverts, want %d", rec.Len(), n)
					}
					b.StopTimer()
					if err := w2.Close(); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkE20Durability regenerates the E20 table at a bench-sized
// sweep; the headlines are the WAL publish overhead and both cold-boot
// paths at 10^5 adverts.
func BenchmarkE20Durability(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E20Durability([]int{100_000}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 0, 3), "wal-overhead")
	b.ReportMetric(cell(tab, 0, 5), "replay-ms")
	b.ReportMetric(cell(tab, 0, 7), "snap-load-ms")
}

func BenchmarkE15Scale(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E15Scale([]int{4, 8}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 1, 2), "recall-at-8-registries")
}

func BenchmarkE16Loss(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E16Loss([]float64{0, 0.05}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 1, 1), "success-at-5pct-loss")
}

func BenchmarkE17Chaos(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E17Chaos([]float64{0, 0.5, 1}, benchSeed)
	}
	reportTable(b, tab)
	// Availability at full chaos intensity: the fault-sweep headline —
	// backoff, probation and fallback must keep this from collapsing.
	b.ReportMetric(cell(tab, 2, 1), "availability-at-full-chaos")
}

func BenchmarkE18ResultCache(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E18ResultCache(10, benchSeed)
	}
	reportTable(b, tab)
	// WAN fan-outs with the gateway cache on vs off (10 repeats): the
	// §4.8 lease-bounded reuse headline.
	b.ReportMetric(cell(tab, 0, 2), "wan-forwards-rcache-off")
	b.ReportMetric(cell(tab, 1, 2), "wan-forwards-rcache-on")
}

// --- transport pipeline suite (scripts/bench.sh wire → BENCH_wire.json) --

// decodeBench measures the zero-alloc receive path: one reused Decoder
// over a fixed datagram, the way runtime.Dispatch decodes every message
// a node receives. The rate metric is the ISSUE-facing headline
// (queries/sec, renews/sec per core); allocs/op must stay at 0.
func decodeBench(b *testing.B, body wire.Body, unit string) {
	b.Helper()
	gen := uuid.NewGenerator(benchSeed)
	data, err := wire.Marshal(wire.NewEnvelope(gen.New(), "lan0/n", body, gen))
	if err != nil {
		b.Fatal(err)
	}
	d := wire.NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), unit)
}

func BenchmarkWireDecodeQuery(b *testing.B) {
	gen := uuid.NewGenerator(benchSeed)
	decodeBench(b, wire.Query{
		QueryID: gen.New(), Kind: describe.KindSemantic,
		Payload: make([]byte, 120), TTL: 4, ReplyAddr: "lan0/c",
	}, "queries/s")
}

func BenchmarkWireDecodePublish(b *testing.B) {
	gen := uuid.NewGenerator(benchSeed)
	decodeBench(b, wire.Publish{Advert: scaleAdvert(0, gen)}, "publishes/s")
}

func BenchmarkWireDecodeSummaryDelta(b *testing.B) {
	tokens := func(n, off int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("urn:scale:type:%d", off+i)
		}
		return out
	}
	decodeBench(b, wire.SummaryDelta{
		Version: 9, Base: 8,
		Entries: []wire.SummaryDeltaEntry{
			{Kind: describe.KindURI, Add: tokens(16, 0), Remove: tokens(4, 200)},
		},
	}, "deltas/s")
}

// envCount is a minimal runtime.Handler: it counts dispatched messages,
// standing in for the registry so the benchmark times the transport +
// decode pipeline rather than matchmaking.
type envCount struct{ n int }

func (c *envCount) HandleEnvelope(env *wire.Envelope, from transport.Addr) { c.n++ }

// BenchmarkBatchRenews drives the full receive pipeline — sender iface,
// (optional) datagram coalescing, simulated network delivery, batch
// split, zero-alloc decode, handler — with the renew storm that
// dominates steady-state registry traffic. The acceptance bar is ≥3×
// renews/s for the batched variants over unbatched: coalescing turns
// per-message delivery events into per-datagram ones.
func BenchmarkBatchRenews(b *testing.B) {
	for _, v := range []struct {
		name     string
		batch    int
		maxBytes int
	}{
		{"unbatched", 0, 0},
		{"batch8", 8, 0},
		{"batch32", 32, 0},
		{"batch64", 64, 0},
		// A renew envelope is ~65 bytes, so the Ethernet MTU caps a
		// batch near 21 messages; the jumbo variant (9000-byte frames)
		// lets the message cap actually bind.
		{"batch64-jumbo", 64, 8900},
	} {
		b.Run(v.name, func(b *testing.B) {
			net := memnet.New(memnet.Config{Seed: benchSeed})
			gen := uuid.NewGenerator(benchSeed)
			h := &envCount{}
			recvEnv := &runtime.Env{ID: gen.New(), Clock: net, Gen: gen}
			recvEnv.Iface = net.Attach("lan0/reg", "lan0", func(from transport.Addr, data []byte) {
				runtime.Dispatch(h, recvEnv, from, data)
			})
			var iface transport.Iface = net.Attach("lan0/svc", "lan0", func(transport.Addr, []byte) {})
			var batcher *transport.Batcher
			if v.batch > 0 {
				batcher = transport.NewBatcher(iface, net, transport.BatcherConfig{
					MaxMessages: v.batch, MaxBytes: v.maxBytes,
				})
				iface = batcher
			}
			data, err := wire.Marshal(wire.NewEnvelope(gen.New(), "lan0/svc", wire.Renew{AdvertID: gen.New()}, gen))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := iface.Unicast("lan0/reg", data); err != nil {
					b.Fatal(err)
				}
			}
			if batcher != nil {
				batcher.Flush()
			}
			net.RunFor(time.Second)
			b.StopTimer()
			if h.n != b.N {
				b.Fatalf("delivered %d renews, want %d", h.n, b.N)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "renews/s")
		})
	}
}

// BenchmarkE21Batching regenerates the datagram-coalescing table; the
// headline is messages per datagram and the datagram reduction at the
// default batch cap.
func BenchmarkE21Batching(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E21Batching([]int{1, 32}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 1, 3), "msgs/dgram")
	b.ReportMetric(cell(tab, 1, 5), "dgram-reduction")
}

// BenchmarkE21Deltas regenerates the incremental-summary table; the
// headline is the WAN maintenance-byte reduction at 10^3 adverts per
// domain (the ISSUE acceptance bar is ≥5×).
func BenchmarkE21Deltas(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E21Deltas([]int{100, 1000}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 1, 3), "delta-reduction-1e3")
}

// BenchmarkE22Federation regenerates the hierarchical multi-domain
// directory sweep (10 → 500 domains); the headlines are the WAN bytes
// directory convergence costs and the cross-domain query latency at the
// top of the sweep.
func BenchmarkE22Federation(b *testing.B) {
	var tab *metrics.Table
	for i := 0; i < b.N; i++ {
		tab = experiments.E22Federation([]int{10, 100, 500}, benchSeed)
	}
	reportTable(b, tab)
	b.ReportMetric(cell(tab, 2, 2), "conv-KB-500dom")
	b.ReportMetric(cellDur(tab, 2, 3), "xq-latency-ms-500dom")
}
