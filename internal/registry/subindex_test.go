package registry

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// --- indexed vs linear-scan baseline equivalence -----------------------

// subOp is one step of a generated pub/sub history, replayed against an
// indexed store and a DisableSubIndex baseline.
type subOp struct {
	kind    int // 0 publish, 1 subscribe, 2 unsubscribe, 3 prune+expire, 4 renewSub
	adv     wire.Advertisement
	subID   uuid.UUID
	subKind describe.Kind
	payload []byte
	expires time.Time
	advance time.Duration
}

// TestSubIndexMatchesLinearScan is the correctness property of the
// inverted notification index: under interleaved publishes, subscribes,
// unsubscribes, subscription renewals (with changed queries) and lease
// expiry, the indexed store must emit notification sequences identical
// to the linear-scan baseline.
func TestSubIndexMatchesLinearScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			onto := testOntology(t)
			mkStore := func(disable bool) *Store {
				models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto))
				// Tiny slabs: exercise slab growth too.
				return setSlabSize(New(Options{
					Models:          models,
					Leases:          lease.Policy{Min: time.Second, Max: time.Hour, Default: 30 * time.Second},
					DisableSubIndex: disable,
				}), 8)
			}
			indexed, scan := mkStore(false), mkStore(true)

			rng := rand.New(rand.NewSource(seed))
			idgen := uuid.NewGenerator(uint64(seed))
			cats := []string{"Device", "Sensor", "Radar", "Camera", "Observation", "Track"}
			// Undeclared categories exercise the string-token fallback on
			// both the advert and subscription side.
			undeclared := []string{"Ghost", "Phantom"}
			var liveSubs []uuid.UUID

			randQuery := func() (describe.Kind, []byte) {
				switch rng.Intn(6) {
				case 0, 1:
					return describe.KindSemantic, semQuery(cats[rng.Intn(len(cats))])
				case 2:
					return describe.KindSemantic, semQuery(undeclared[rng.Intn(len(undeclared))])
				case 3:
					return describe.KindURI, (&describe.URIQuery{TypeURI: fmt.Sprintf("urn:type:%d", rng.Intn(4))}).Encode()
				case 4:
					return describe.KindKV, (&describe.KVQuery{TypeURI: fmt.Sprintf("urn:type:%d", rng.Intn(4))}).Encode()
				default:
					// Attribute-only KV query: not prunable, a catch-all sub.
					return describe.KindKV, (&describe.KVQuery{Attrs: map[string]string{"zone": fmt.Sprintf("z%d", rng.Intn(3))}}).Encode()
				}
			}
			randAdvert := func(i int) wire.Advertisement {
				leaseDur := time.Duration(1+rng.Intn(90)) * time.Second
				switch rng.Intn(6) {
				case 0, 1, 2:
					cat := c(cats[rng.Intn(len(cats))])
					if rng.Intn(5) == 0 {
						cat = c(undeclared[rng.Intn(len(undeclared))])
					} else if rng.Intn(6) == 0 {
						// A Thing advert carries a concept ID and still
						// matches subscriptions on undeclared categories.
						cat = ontology.Thing
					}
					p := &profile.Profile{ServiceIRI: fmt.Sprintf("urn:svc:s%d", i), Category: cat, Grounding: "urn:g"}
					return wire.Advertisement{ID: idgen.New(), Provider: idgen.New(), ProviderAddr: "a",
						Kind: describe.KindSemantic, Payload: p.Encode(),
						LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1}
				case 3:
					d := &describe.URIDescription{TypeURI: fmt.Sprintf("urn:type:%d", rng.Intn(4)),
						ServiceURI: fmt.Sprintf("urn:svc:u%d", i), Name: "u", Addr: "a"}
					return wire.Advertisement{ID: idgen.New(), Provider: idgen.New(), ProviderAddr: "a",
						Kind: describe.KindURI, Payload: d.Encode(),
						LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1}
				case 4:
					d := &describe.KVDescription{ServiceURI: fmt.Sprintf("urn:svc:k%d", i), Name: "k",
						TypeURI: fmt.Sprintf("urn:type:%d", rng.Intn(4)),
						Attrs:   map[string]string{"zone": fmt.Sprintf("z%d", rng.Intn(3))}, Addr: "a"}
					return wire.Advertisement{ID: idgen.New(), Provider: idgen.New(), ProviderAddr: "a",
						Kind: describe.KindKV, Payload: d.Encode(),
						LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1}
				default:
					// Token-less KV advert: forces the full fallback scan.
					d := &describe.KVDescription{ServiceURI: fmt.Sprintf("urn:svc:k%d", i), Name: "free",
						Attrs: map[string]string{"zone": fmt.Sprintf("z%d", rng.Intn(3))}, Addr: "a"}
					return wire.Advertisement{ID: idgen.New(), Provider: idgen.New(), ProviderAddr: "a",
						Kind: describe.KindKV, Payload: d.Encode(),
						LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1}
				}
			}

			// Generate the op stream once so both stores replay the exact
			// same history (IDs included).
			ops := make([]subOp, 0, 400)
			for i := 0; i < 400; i++ {
				switch r := rng.Intn(10); {
				case r < 4: // publish
					ops = append(ops, subOp{kind: 0, adv: randAdvert(i)})
				case r < 7: // subscribe
					k, payload := randQuery()
					var exp time.Time
					if rng.Intn(3) == 0 {
						exp = t0.Add(time.Duration(1+rng.Intn(120)) * time.Second)
					}
					id := idgen.New()
					liveSubs = append(liveSubs, id)
					ops = append(ops, subOp{kind: 1, subID: id, subKind: k, payload: payload, expires: exp})
				case r < 8 && len(liveSubs) > 0: // unsubscribe
					j := rng.Intn(len(liveSubs))
					ops = append(ops, subOp{kind: 2, subID: liveSubs[j]})
					liveSubs = append(liveSubs[:j], liveSubs[j+1:]...)
				case r < 9: // advance time, prune subs, expire adverts
					ops = append(ops, subOp{kind: 3, advance: time.Duration(rng.Intn(20)) * time.Second})
				case len(liveSubs) > 0: // renew an existing sub with a fresh query
					k, payload := randQuery()
					ops = append(ops, subOp{kind: 4, subID: liveSubs[rng.Intn(len(liveSubs))],
						subKind: k, payload: payload, expires: t0.Add(time.Duration(1+rng.Intn(300)) * time.Second)})
				}
			}

			replay := func(s *Store) []string {
				var trace []string
				now := t0
				for _, op := range ops {
					switch op.kind {
					case 0:
						_, notes, err := s.Publish(op.adv, now)
						if err != nil {
							t.Fatal(err)
						}
						for _, n := range notes {
							trace = append(trace, fmt.Sprintf("%v->%v@%s", op.adv.ID, n.SubID, n.NotifyAddr))
						}
					case 1:
						if _, err := s.Subscribe(op.subKind, op.payload, "addr/"+op.subID.String(), op.subID, op.expires); err != nil {
							t.Fatal(err)
						}
					case 2:
						s.Unsubscribe(op.subID)
					case 3:
						now = now.Add(op.advance)
						s.PruneSubscriptions(now)
						s.ExpireThrough(now)
					case 4:
						if _, err := s.Subscribe(op.subKind, op.payload, "addr/"+op.subID.String(), op.subID, op.expires); err != nil {
							t.Fatal(err)
						}
					}
				}
				return trace
			}

			got, want := replay(indexed), replay(scan)
			if len(got) != len(want) {
				t.Fatalf("indexed emitted %d notifications, baseline %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("notification %d: indexed %q, baseline %q", i, got[i], want[i])
				}
			}
			if len(want) == 0 {
				t.Fatal("degenerate run: no notifications exercised")
			}
		})
	}
}

// --- slow match must not stall subscription mutation -------------------

type slowDesc struct{ key string }

func (d slowDesc) Kind() describe.Kind { return describe.Kind(9) }
func (d slowDesc) ServiceKey() string  { return d.key }
func (d slowDesc) Endpoint() string    { return "" }
func (d slowDesc) Encode() []byte      { return []byte(d.key) }

type slowQuery struct{}

func (slowQuery) Kind() describe.Kind { return describe.Kind(9) }
func (slowQuery) Encode() []byte      { return nil }

// slowModel blocks inside Evaluate until released — a stand-in for an
// expensive semantic match.
type slowModel struct {
	started chan struct{}
	release chan struct{}
}

func (m *slowModel) Kind() describe.Kind { return describe.Kind(9) }
func (m *slowModel) Name() string        { return "slow" }
func (m *slowModel) DecodeDescription(b []byte) (describe.Description, error) {
	return slowDesc{key: string(b)}, nil
}
func (m *slowModel) DecodeQuery(b []byte) (describe.Query, error) { return slowQuery{}, nil }
func (m *slowModel) Evaluate(q describe.Query, d describe.Description) describe.Evaluation {
	m.started <- struct{}{}
	<-m.release
	return describe.Evaluation{Matched: true, Degree: 1, Score: 1}
}
func (m *slowModel) SummaryTokens(d describe.Description) []string { return nil }
func (m *slowModel) QueryTokens(q describe.Query) ([]string, bool) { return nil, false }
func (m *slowModel) OutputConceptIDs(describe.Description) []int32 { return nil }
func (m *slowModel) OutputGroups(describe.Query) [][]int32         { return nil }

// TestSlowMatchDoesNotBlockSubscribe pins the satellite fix: Publish
// evaluates standing queries outside subMu, so a slow model match can
// no longer stall Subscribe/Unsubscribe/PruneSubscriptions. Run under
// -race via `make race`.
func TestSlowMatchDoesNotBlockSubscribe(t *testing.T) {
	sm := &slowModel{started: make(chan struct{}), release: make(chan struct{})}
	models := describe.NewRegistry(sm)
	s := New(Options{Models: models, Leases: lease.Policy{Max: time.Hour}})

	if _, err := s.Subscribe(describe.Kind(9), nil, "blockee", gen.New(), time.Time{}); err != nil {
		t.Fatal(err)
	}
	adv := wire.Advertisement{ID: gen.New(), Provider: gen.New(), ProviderAddr: "a",
		Kind: describe.Kind(9), Payload: []byte("svc"), LeaseMillis: 60_000, Version: 1}
	published := make(chan []Notification, 1)
	go func() {
		_, notes, _ := s.Publish(adv, t0)
		published <- notes
	}()
	<-sm.started // Publish is now blocked inside the match

	done := make(chan struct{})
	extra := gen.New()
	go func() {
		if _, err := s.Subscribe(describe.Kind(9), nil, "late", extra, time.Time{}); err != nil {
			t.Error(err)
		}
		s.PruneSubscriptions(t0)
		s.Unsubscribe(extra)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Subscribe/PruneSubscriptions/Unsubscribe stalled behind a slow match")
	}
	close(sm.release)
	if notes := <-published; len(notes) != 1 {
		t.Fatalf("blocked publish lost its notification: %+v", notes)
	}
}

// --- unsubscribe ordering and compaction -------------------------------

// TestUnsubscribeKeepsNotificationOrder removes subscriptions from the
// middle of a large set (enough to trip amortized compaction and the
// posting-list rebuild) and checks the survivors are still notified in
// insertion order.
func TestUnsubscribeKeepsNotificationOrder(t *testing.T) {
	s := newStore(t)
	const n = 200
	ids := make([]uuid.UUID, n)
	for i := range ids {
		ids[i] = gen.New()
		if _, err := s.Subscribe(describe.KindSemantic, semQuery("Sensor"), fmt.Sprintf("sub-%03d", i), ids[i], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	// Drop 150 of 200 — past both the compaction and rebuild thresholds.
	for i := 0; i < n; i++ {
		if i%4 != 0 {
			if !s.Unsubscribe(ids[i]) {
				t.Fatalf("Unsubscribe(%d) failed", i)
			}
		}
	}
	if got := s.NumSubscriptions(); got != n/4 {
		t.Fatalf("NumSubscriptions = %d, want %d", got, n/4)
	}
	_, notes, err := s.Publish(semAdvert("urn:svc:r", "Radar", time.Minute), t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != n/4 {
		t.Fatalf("got %d notifications, want %d", len(notes), n/4)
	}
	for i := 1; i < len(notes); i++ {
		if notes[i-1].NotifyAddr >= notes[i].NotifyAddr {
			t.Fatalf("notification order broken: %s before %s", notes[i-1].NotifyAddr, notes[i].NotifyAddr)
		}
	}
}

// TestSubscriptionRenewalChangesQuery re-subscribes under the same ID
// with a different category and checks the posting lists follow: only
// the new query fires, and the subscription keeps its notify slot.
func TestSubscriptionRenewalChangesQuery(t *testing.T) {
	s := newStore(t)
	id := gen.New()
	if _, err := s.Subscribe(describe.KindSemantic, semQuery("Radar"), "cli", id, time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Subscribe(describe.KindSemantic, semQuery("Track"), "cli", id, time.Time{}); err != nil {
		t.Fatal(err)
	}
	_, notes, _ := s.Publish(semAdvert("urn:svc:r", "Radar", time.Minute), t0)
	if len(notes) != 0 {
		t.Fatalf("renewed-away query still fired: %+v", notes)
	}
	_, notes, _ = s.Publish(semAdvert("urn:svc:t", "Track", time.Minute), t0)
	if len(notes) != 1 || notes[0].SubID != id {
		t.Fatalf("renewed query did not fire: %+v", notes)
	}
	if got := s.NumSubscriptions(); got != 1 {
		t.Fatalf("NumSubscriptions = %d after renewal, want 1", got)
	}
}

// TestSubscriptionExpiry checks an expired standing query stops firing
// even before PruneSubscriptions sweeps it.
func TestSubscriptionExpiry(t *testing.T) {
	s := newStore(t)
	id := gen.New()
	if _, err := s.Subscribe(describe.KindSemantic, semQuery("Sensor"), "cli", id, t0.Add(10*time.Second)); err != nil {
		t.Fatal(err)
	}
	later := t0.Add(time.Minute)
	_, notes, _ := s.Publish(semAdvert("urn:svc:r", "Radar", time.Minute), later)
	if len(notes) != 0 {
		t.Fatalf("expired subscription fired: %+v", notes)
	}
	if n := s.PruneSubscriptions(later); n != 1 {
		t.Fatalf("PruneSubscriptions = %d, want 1", n)
	}
	if s.NumSubscriptions() != 0 {
		t.Fatal("pruned subscription still counted")
	}
}

// --- arena and interner ------------------------------------------------

// setSlabSize shrinks an empty store's arena slabs so a test reaches
// slab growth with a handful of adverts instead of thousands.
func setSlabSize(s *Store, n int) *Store {
	for _, sh := range s.shards {
		sh.slabSize = n
	}
	return s
}

// TestArenaRecyclesSlots publishes and removes adverts through several
// slab generations and checks slots are recycled (no slab growth after
// steady state) while lookups stay correct.
func TestArenaRecyclesSlots(t *testing.T) {
	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(testOntology(t)))
	s := setSlabSize(New(Options{Models: models, Leases: lease.Policy{Max: time.Hour}, Shards: 1}), 4)
	sh := s.shards[0]

	var ids []uuid.UUID
	for i := 0; i < 16; i++ {
		adv := semAdvert(fmt.Sprintf("urn:svc:%d", i), "Radar", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, adv.ID)
	}
	slabsAfterFill := len(sh.slabs)
	if slabsAfterFill != 4 {
		t.Fatalf("16 adverts over slab=4 allocated %d slabs, want 4", slabsAfterFill)
	}
	for _, id := range ids {
		if !s.Remove(id) {
			t.Fatal("Remove failed")
		}
	}
	if len(sh.free) != 16 {
		t.Fatalf("free list holds %d slots, want 16", len(sh.free))
	}
	// Refill: every slot must come from the free list, no new slabs.
	for i := 0; i < 16; i++ {
		adv := semAdvert(fmt.Sprintf("urn:svc:again-%d", i), "Camera", time.Hour)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	if len(sh.slabs) != slabsAfterFill {
		t.Fatalf("refill grew the arena to %d slabs, want %d", len(sh.slabs), slabsAfterFill)
	}
	if len(sh.free) != 0 {
		t.Fatalf("free list not drained: %d", len(sh.free))
	}
	res, err := s.Evaluate(describe.KindSemantic, semQuery("Camera"), QueryOptions{MaxResults: 100}, t0)
	if err != nil || len(res) != 16 {
		t.Fatalf("post-recycle evaluate = (%d, %v), want 16", len(res), err)
	}
	res, _ = s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{MaxResults: 100}, t0)
	// Camera and Radar are sibling leaves: a Radar query reaches Camera
	// adverts only through their shared Sensor ancestor — not at all —
	// so recycled slots must not leak the old Radar categorization.
	if len(res) != 0 {
		t.Fatalf("recycled slots leaked stale descriptions: %d hits", len(res))
	}
}

func TestTokenInterner(t *testing.T) {
	ti := newTokenInterner()
	a := ti.intern("alpha")
	b := ti.intern("beta")
	if a == b {
		t.Fatal("distinct tokens share an ID")
	}
	if got := ti.intern("alpha"); got != a {
		t.Fatal("re-intern changed the ID")
	}
	all := ti.internAll([]string{"alpha", "beta", "alpha", "gamma", "beta"})
	if len(all) != 3 {
		t.Fatalf("internAll kept duplicates: %v", all)
	}
	lk := ti.lookupAll([]string{"alpha", "never-seen", "gamma"})
	if len(lk) != 2 {
		t.Fatalf("lookupAll = %v, want two known tokens", lk)
	}
	if ti.str(a) != "alpha" || ti.str(tok(999)) != "" {
		t.Fatal("str round-trip broken")
	}
	if ti.size() != 3 {
		t.Fatalf("size = %d, want 3", ti.size())
	}
}
