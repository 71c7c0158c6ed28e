package registry

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/match"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// candidateOntology is a taxonomy with service categories, a data
// hierarchy for inputs and outputs, and a top-level equivalence cluster
// (LoopA ⊑ LoopB ⊑ LoopA) whose closure rows carry no Thing bit.
func candidateOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(ns)
	for _, a := range [][2]string{
		{"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"}, {"CoastalRadar", "Radar"},
		{"Image", "Data"}, {"IRImage", "Image"}, {"Track", "Data"}, {"Plot", "Track"},
		{"Audio", "Data"}, {"LoopA", "LoopB"}, {"LoopB", "LoopA"},
	} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

// scanOracle is the linear reference for Store.Evaluate: every advert
// the store holds whose lease has not passed, decoded and matched by the
// model, ranked by rankCompare and capped. It reads the ID map
// (Adverts, LeaseDeadline), never a posting list.
func scanOracle(t *testing.T, s *Store, kind describe.Kind, payload []byte, opts QueryOptions, now time.Time) []uuid.UUID {
	t.Helper()
	model, _ := s.models.Model(kind)
	q, err := model.DecodeQuery(payload)
	if err != nil {
		t.Fatal(err)
	}
	var hits []hit
	for _, a := range s.Adverts() {
		if a.Kind != kind {
			continue
		}
		if dl, ok := s.LeaseDeadline(a.ID); !ok || dl.Before(now) {
			continue
		}
		d, err := model.DecodeDescription(a.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if ev := model.Evaluate(q, d); ev.Matched {
			hits = append(hits, hit{adv: a, key: d.ServiceKey(), ev: ev})
		}
	}
	slices.SortFunc(hits, func(a, b hit) int { return hitCompare(&a, &b) })
	ids := make([]uuid.UUID, 0, len(hits))
	for i := 0; i < len(hits) && i < s.EffectiveLimit(opts); i++ {
		ids = append(ids, hits[i].adv.ID)
	}
	return ids
}

func advertIDs(advs []wire.Advertisement) []uuid.UUID {
	ids := make([]uuid.UUID, len(advs))
	for i, a := range advs {
		ids[i] = a.ID
	}
	return ids
}

// TestIndexedEvaluateMatchesScan is the soundness property of candidate
// generation (postings.go): under interleaved publish, replace,
// supersede, remove and lease expiry, Evaluate — cached and uncached —
// returns exactly the linear oracle's list, element for element. The
// generator covers undeclared, Thing and empty categories; zero to four
// outputs with undeclared, Thing and duplicate ones; several required
// outputs including Thing and undeclared ones; every MinDegree; and
// BestOnly/MaxResults. It also checks both candidate paths ran: the
// category union filtered on outputs, and an output union filtered on
// category.
func TestIndexedEvaluateMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			onto := candidateOntology(t)
			models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto))
			s := setSlabSize(New(Options{
				Models: models, Leases: lease.Policy{Max: time.Hour},
				Shards: 4, DefaultMaxResults: 7,
			}), 16)
			rng := rand.New(rand.NewSource(seed))
			ids := uuid.NewGenerator(uint64(seed))

			cats := []string{"Device", "Sensor", "Radar", "Camera", "CoastalRadar", "LoopA", "Ghost"}
			data := []string{"Data", "Image", "IRImage", "Track", "Plot", "Audio", "LoopB", "Blob", "Smudge"}
			class := func(pool []string) ontology.Class {
				switch r := rng.Intn(12); {
				case r == 0:
					return ontology.Thing
				case r == 1:
					return ""
				default:
					return c(pool[rng.Intn(len(pool))])
				}
			}
			classes := func(pool []string, max int) []ontology.Class {
				var out []ontology.Class
				for n := rng.Intn(max + 1); len(out) < n; {
					if cl := class(pool); cl != "" {
						out = append(out, cl)
					}
				}
				return out
			}
			profileFor := func(key string) *profile.Profile {
				p := &profile.Profile{
					ServiceIRI: key, Category: class(cats), Grounding: "urn:g:" + key,
					Outputs: classes(data, 4), Inputs: classes(data, 1),
					QoS: map[string]float64{"accuracy": 0.5 + rng.Float64()/2},
				}
				if len(p.Outputs) > 1 && rng.Intn(4) == 0 {
					p.Outputs = append(p.Outputs, p.Outputs[0]) // a duplicate output
				}
				if rng.Intn(2) == 0 {
					p.QoS["latency"] = rng.Float64()
				}
				return p
			}
			query := func() []byte {
				tpl := &profile.Template{
					Category: class(cats), RequiredOutputs: classes(data, 3), ProvidedInputs: classes(data, 1),
				}
				if rng.Intn(2) == 0 {
					tpl.MinQoS = map[string]float64{"accuracy": 0.5 + rng.Float64()/2}
				}
				q := &describe.SemanticQuery{Template: tpl, MinDegree: match.Degree(rng.Intn(4))}
				return q.Encode()
			}
			options := func() QueryOptions {
				o := QueryOptions{BestOnly: rng.Intn(6) == 0}
				if rng.Intn(2) == 0 {
					o.MaxResults = []int{1, 3, 1000}[rng.Intn(3)]
				}
				return o
			}

			type held struct {
				adv wire.Advertisement
				key string
			}
			var live []held
			now := t0
			publish := func(adv wire.Advertisement) {
				if _, _, err := s.Publish(adv, now); err != nil {
					t.Fatal(err)
				}
			}
			outputPath, filteredCategoryPath := 0, 0
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(20); {
				case r < 9 || len(live) == 0: // publish a new service
					key := fmt.Sprintf("urn:svc:%d-%d", seed, step)
					adv := wire.Advertisement{
						ID: ids.New(), Provider: ids.New(), ProviderAddr: "a", Kind: describe.KindSemantic,
						Payload: profileFor(key).Encode(), LeaseMillis: uint64(1+rng.Intn(120)) * 1000, Version: 1,
					}
					publish(adv)
					live = append(live, held{adv, key})
				case r < 12: // replace: same ID, next version, new content
					h := &live[rng.Intn(len(live))]
					h.adv.Version++
					h.adv.Payload = profileFor(h.key).Encode()
					publish(h.adv)
				case r < 13: // supersede: same service key under a fresh ID
					h := &live[rng.Intn(len(live))]
					h.adv.ID = ids.New()
					h.adv.Version++
					h.adv.Payload = profileFor(h.key).Encode()
					publish(h.adv)
				case r < 15: // remove
					i := rng.Intn(len(live))
					s.Remove(live[i].adv.ID)
					live = append(live[:i], live[i+1:]...)
				case r < 17: // time passes; sometimes the purge runs
					now = now.Add(time.Duration(rng.Intn(20)) * time.Second)
					if rng.Intn(2) == 0 {
						s.ExpireThrough(now)
					}
				default: // re-publish something that may have expired
					h := &live[rng.Intn(len(live))]
					h.adv.Version++
					publish(h.adv)
				}
				for k := 0; k < 3; k++ {
					payload, opts := query(), options()
					want := scanOracle(t, s, describe.KindSemantic, payload, opts, now)
					for _, noCache := range []bool{true, false} {
						opts.NoCache = noCache
						got, err := s.Evaluate(describe.KindSemantic, payload, opts, now)
						if err != nil {
							t.Fatal(err)
						}
						if g := advertIDs(got); !slices.Equal(g, want) {
							t.Fatalf("step %d (noCache=%v): indexed %v, scan %v", step, noCache, g, want)
						}
					}
					plan, err := s.plan(describe.KindSemantic, payload)
					if err != nil {
						t.Fatal(err)
					}
					qtoks := s.toks.lookupAll(plan.tokens)
					for _, sh := range s.shards {
						if ki := sh.kinds[describe.KindSemantic]; ki != nil && len(plan.groups) > 0 {
							if ki.smallestGroup(plan, qtoks) >= 0 {
								outputPath++
							} else {
								filteredCategoryPath++
							}
						}
					}
				}
			}
			if outputPath < 50 || filteredCategoryPath < 50 {
				t.Fatalf("degenerate run: %d output-union and %d filtered category-union shard scans", outputPath, filteredCategoryPath)
			}
		})
	}
}

// TestThingQueryFindsUndeclaredCategories pins the owl:Thing fix: Thing
// subsumes every category, undeclared and empty ones included, so the
// matcher accepts those adverts for a Thing query. The index must not
// narrow a Thing query to declared classes — neither in Evaluate nor in
// standing-query notification nor in summary pruning.
func TestThingQueryFindsUndeclaredCategories(t *testing.T) {
	onto := candidateOntology(t)
	mk := func(disableSubIndex bool) *Store {
		models := describe.NewRegistry(describe.NewSemanticModel(onto))
		return New(Options{Models: models, Leases: lease.Policy{Max: time.Hour}, DisableSubIndex: disableSubIndex})
	}
	thing := (&describe.SemanticQuery{Template: &profile.Template{Category: ontology.Thing}}).Encode()
	ghost := (&describe.SemanticQuery{Template: &profile.Template{Category: c("Ghost")}}).Encode()
	indexed, scan := mk(false), mk(true)
	for _, s := range []*Store{indexed, scan} {
		for i, q := range [][]byte{thing, ghost} {
			if _, err := s.Subscribe(describe.KindSemantic, q, fmt.Sprintf("sub-%d", i), gen.New(), time.Time{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	var notes [2][]string
	// A Thing advert matches the undeclared query as well: Thing
	// subsumes Ghost.
	for _, cat := range []ontology.Class{c("Radar"), c("Ghost"), ontology.Thing, ""} {
		p := &profile.Profile{ServiceIRI: "urn:svc:" + string(cat), Category: cat, Grounding: "urn:g"}
		adv := wire.Advertisement{ID: gen.New(), Provider: gen.New(), ProviderAddr: "a",
			Kind: describe.KindSemantic, Payload: p.Encode(), LeaseMillis: 60_000, Version: 1}
		for i, s := range []*Store{indexed, scan} {
			_, got, err := s.Publish(adv, t0)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range got {
				notes[i] = append(notes[i], n.NotifyAddr+"<-"+string(cat))
			}
		}
	}
	if len(notes[1]) != 6 {
		t.Fatalf("linear scan notified %v, want the Thing query 4 times and the Ghost query twice", notes[1])
	}
	if !slices.Equal(notes[0], notes[1]) {
		t.Fatalf("notifications: indexed %v, linear scan %v", notes[0], notes[1])
	}
	for _, q := range [][]byte{thing, ghost} {
		got, err := indexed.Evaluate(describe.KindSemantic, q, QueryOptions{NoCache: true}, t0)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanOracle(t, indexed, describe.KindSemantic, q, QueryOptions{}, t0); !slices.Equal(advertIDs(got), want) {
			t.Fatalf("Evaluate returned %d adverts, the scan %d", len(got), len(want))
		}
	}
	if _, _, prunable, _ := indexed.QueryPlan(describe.KindSemantic, thing); prunable {
		t.Fatal("a Thing query must reach every peer: summaries cannot name undeclared categories")
	}
}

// TestOutputPostingsMaintained checks replace and remove leave no
// output posting behind and keep the moved entries' positions right.
func TestOutputPostingsMaintained(t *testing.T) {
	onto := candidateOntology(t)
	s := New(Options{Models: describe.NewRegistry(describe.NewSemanticModel(onto)), Leases: lease.Policy{Max: time.Hour}, Shards: 1})
	outs := [][]string{{"Image", "Track"}, {"Track"}, {"Image", "Track", "Plot", "Audio"}, {"Track", "Image"}}
	var advs []wire.Advertisement
	for i, o := range outs {
		p := &profile.Profile{ServiceIRI: fmt.Sprintf("urn:svc:%d", i), Category: c("Radar"), Grounding: "g", Outputs: toClasses(prefixed(o))}
		adv := wire.Advertisement{ID: gen.New(), Provider: gen.New(), ProviderAddr: "a",
			Kind: describe.KindSemantic, Payload: p.Encode(), LeaseMillis: 60_000, Version: 1}
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
		advs = append(advs, adv)
	}
	ki := s.shards[0].kinds[describe.KindSemantic]
	check := func() {
		t.Helper()
		for id, list := range ki.byOut {
			for i, p := range list {
				j := slices.Index(p.st.outs, int32(id))
				if j < 0 || p.st.pos[len(p.st.toks)+j] != int32(i) {
					t.Fatalf("output %d entry %d points at the wrong record position", id, i)
				}
			}
		}
	}
	check()
	s.Remove(advs[0].ID)
	check()
	upd := advs[2]
	upd.Version = 2
	upd.Payload = (&profile.Profile{ServiceIRI: "urn:svc:2", Category: c("Radar"), Grounding: "g"}).Encode()
	if _, _, err := s.Publish(upd, t0); err != nil {
		t.Fatal(err)
	}
	check()
	s.Remove(advs[1].ID)
	s.Remove(advs[3].ID)
	s.Remove(upd.ID)
	for id, list := range ki.byOut {
		if list != nil {
			t.Fatalf("output %d keeps %d postings after every advert left", id, len(list))
		}
	}
}

func prefixed(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = ns + n
	}
	return out
}
