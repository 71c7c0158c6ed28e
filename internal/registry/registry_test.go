package registry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

const ns = "http://semdisco.example/onto#"

var (
	t0  = time.Unix(0, 0).UTC()
	gen = uuid.NewGenerator(99)
)

func c(name string) ontology.Class { return ontology.Class(ns + name) }

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(ns)
	for _, a := range [][2]string{
		{"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"},
		{"Track", "Observation"},
	} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

func newStore(t testing.TB) *Store { return newStoreWith(t, Options{}) }

// newStoreWith is newStore with further options; it fills in the test
// models and lease policy.
func newStoreWith(t testing.TB, opts Options) *Store {
	t.Helper()
	opts.Models = describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(testOntology(t)))
	opts.Leases = lease.Policy{Min: time.Second, Max: time.Hour, Default: 30 * time.Second}
	return New(opts)
}

func semAdvert(serviceIRI, category string, lease time.Duration) wire.Advertisement {
	p := &profile.Profile{
		ServiceIRI: serviceIRI,
		Category:   c(category),
		Grounding:  "urn:g:" + serviceIRI,
	}
	return wire.Advertisement{
		ID:           gen.New(),
		Provider:     gen.New(),
		ProviderAddr: "lan0/svc",
		Kind:         describe.KindSemantic,
		Payload:      p.Encode(),
		LeaseMillis:  uint64(lease / time.Millisecond),
		Version:      1,
	}
}

func semQuery(category string) []byte {
	q := &describe.SemanticQuery{Template: &profile.Template{Category: c(category)}}
	return q.Encode()
}

// publishErr returns nil when Publish's err is nil or an
// ErrStaleVersion that a resident advert justifies: adv's own ID, or
// another advert under adv's service key, at a higher version. Models
// that do not track service keys accept staleness through it without
// letting a wrong rejection through.
func publishErr(s *Store, adv wire.Advertisement, err error) error {
	if err == nil || !errors.Is(err, ErrStaleVersion) {
		return err
	}
	d, derr := s.Models().DecodeDescription(adv.Kind, adv.Payload)
	if derr != nil {
		return derr
	}
	for _, r := range s.Adverts() {
		if r.Version <= adv.Version {
			continue
		}
		if r.ID == adv.ID {
			return nil
		}
		if rd, _ := s.Models().DecodeDescription(r.Kind, r.Payload); rd != nil && rd.ServiceKey() == d.ServiceKey() {
			return nil
		}
	}
	return fmt.Errorf("Publish(%v v%d): %w, but no resident advert has a higher version", adv.ID, adv.Version, err)
}

func TestPublishAndEvaluate(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", 30*time.Second)
	granted, notes, err := s.Publish(adv, t0)
	if err != nil {
		t.Fatal(err)
	}
	if granted != 30*time.Second {
		t.Fatalf("granted = %v", granted)
	}
	if len(notes) != 0 {
		t.Fatalf("unexpected notifications: %v", notes)
	}
	// Semantic query for Sensor finds the Radar.
	res, err := s.Evaluate(describe.KindSemantic, semQuery("Sensor"), QueryOptions{}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].ID != adv.ID {
		t.Fatalf("Evaluate = %v", res)
	}
	// Unrelated query finds nothing.
	res, err = s.Evaluate(describe.KindSemantic, semQuery("Camera"), QueryOptions{}, t0)
	if err != nil || len(res) != 0 {
		t.Fatalf("Camera query = (%v, %v)", res, err)
	}
}

func TestPublishErrors(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", time.Minute)

	bad := adv
	bad.Kind = describe.Kind(77)
	if _, _, err := s.Publish(bad, t0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind error = %v", err)
	}
	bad = adv
	bad.Payload = []byte{1, 2}
	if _, _, err := s.Publish(bad, t0); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("bad payload error = %v", err)
	}
	bad = adv
	bad.ID = uuid.Nil
	if _, _, err := s.Publish(bad, t0); err == nil {
		t.Fatal("nil advert ID accepted")
	}
}

func TestVersionedUpdate(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", time.Minute)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	// Newer version replaces.
	upd := adv
	upd.Version = 2
	upd.Payload = (&profile.Profile{ServiceIRI: "urn:svc:r1", Category: c("Camera"), Grounding: "urn:g"}).Encode()
	if _, _, err := s.Publish(upd, t0); err != nil {
		t.Fatal(err)
	}
	res, _ := s.Evaluate(describe.KindSemantic, semQuery("Camera"), QueryOptions{}, t0)
	if len(res) != 1 || res[0].Version != 2 {
		t.Fatalf("update not applied: %v", res)
	}
	// Stale version rejected.
	stale := adv
	stale.Version = 1
	if _, _, err := s.Publish(stale, t0); !errors.Is(err, ErrStaleVersion) {
		t.Fatalf("stale publish error = %v", err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestRepublishUnderNewIDSupersedes(t *testing.T) {
	s := newStore(t)
	// A service republishing after its registry crashed gets a new
	// advertisement ID; the old advert for the same ServiceIRI must go.
	first := semAdvert("urn:svc:r1", "Radar", time.Minute)
	if _, _, err := s.Publish(first, t0); err != nil {
		t.Fatal(err)
	}
	second := semAdvert("urn:svc:r1", "Radar", time.Minute)
	if _, _, err := s.Publish(second, t0); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (superseded)", s.Len())
	}
	if s.Has(first.ID) || !s.Has(second.ID) {
		t.Fatal("wrong advert survived")
	}
}

func TestLeaseExpiryPurges(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", 10*time.Second)
	if _, _, err := s.Publish(adv, t0); err != nil {
		t.Fatal(err)
	}
	// Still alive at 9s.
	if res, _ := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0.Add(9*time.Second)); len(res) != 1 {
		t.Fatal("advert gone before lease expiry")
	}
	// Not served at 11s even before purge runs (freshness invariant).
	if res, _ := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0.Add(11*time.Second)); len(res) != 0 {
		t.Fatal("stale advert served after lease expiry")
	}
	purged := s.ExpireThrough(t0.Add(11 * time.Second))
	if len(purged) != 1 || purged[0].ID != adv.ID {
		t.Fatalf("purged = %v", purged)
	}
	if s.Len() != 0 {
		t.Fatal("store not empty after purge")
	}
}

func TestRenew(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", 10*time.Second)
	s.Publish(adv, t0)
	granted, ok := s.Renew(adv.ID, t0.Add(8*time.Second))
	if !ok || granted != 10*time.Second {
		t.Fatalf("Renew = (%v, %v)", granted, ok)
	}
	if res, _ := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0.Add(15*time.Second)); len(res) != 1 {
		t.Fatal("renewed advert expired early")
	}
	if _, ok := s.Renew(gen.New(), t0); ok {
		t.Fatal("renewed unknown advert")
	}
}

func TestRemove(t *testing.T) {
	s := newStore(t)
	adv := semAdvert("urn:svc:r1", "Radar", time.Minute)
	s.Publish(adv, t0)
	if !s.Remove(adv.ID) {
		t.Fatal("Remove = false")
	}
	if s.Remove(adv.ID) {
		t.Fatal("double remove = true")
	}
	if res, _ := s.Evaluate(describe.KindSemantic, semQuery("Radar"), QueryOptions{}, t0); len(res) != 0 {
		t.Fatal("removed advert still served")
	}
}

func TestResponseControl(t *testing.T) {
	s := newStoreWith(t, Options{DefaultMaxResults: 5})
	for i := 0; i < 10; i++ {
		adv := semAdvert("urn:svc:"+string(rune('a'+i)), "Radar", time.Minute)
		if _, _, err := s.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	res, _ := s.Evaluate(describe.KindSemantic, semQuery("Sensor"), QueryOptions{MaxResults: 3}, t0)
	if len(res) != 3 {
		t.Fatalf("MaxResults=3 returned %d", len(res))
	}
	res, _ = s.Evaluate(describe.KindSemantic, semQuery("Sensor"), QueryOptions{BestOnly: true}, t0)
	if len(res) != 1 {
		t.Fatalf("BestOnly returned %d", len(res))
	}
	res, _ = s.Evaluate(describe.KindSemantic, semQuery("Sensor"), QueryOptions{}, t0)
	if len(res) != 5 {
		t.Fatalf("default cap returned %d", len(res))
	}
}

func TestRankingPrefersExact(t *testing.T) {
	s := newStore(t)
	radar := semAdvert("urn:svc:radar", "Radar", time.Minute)
	sensor := semAdvert("urn:svc:sensor", "Sensor", time.Minute)
	s.Publish(radar, t0)
	s.Publish(sensor, t0)
	res, _ := s.Evaluate(describe.KindSemantic, semQuery("Sensor"), QueryOptions{}, t0)
	if len(res) != 2 || res[0].ID != sensor.ID {
		t.Fatalf("exact match not ranked first: %v", res)
	}
}

func TestEvaluateMixedKindsIsolated(t *testing.T) {
	s := newStore(t)
	s.Publish(semAdvert("urn:svc:r1", "Radar", time.Minute), t0)
	uriAdv := wire.Advertisement{
		ID: gen.New(), Provider: gen.New(), Kind: describe.KindURI,
		Payload:     (&describe.URIDescription{TypeURI: "urn:type:radar", ServiceURI: "urn:svc:u1", Addr: "a"}).Encode(),
		LeaseMillis: 60000, Version: 1,
	}
	if _, _, err := s.Publish(uriAdv, t0); err != nil {
		t.Fatal(err)
	}
	res, err := s.Evaluate(describe.KindURI, (&describe.URIQuery{TypeURI: "urn:type:radar"}).Encode(), QueryOptions{}, t0)
	if err != nil || len(res) != 1 || res[0].Kind != describe.KindURI {
		t.Fatalf("URI query = (%v, %v)", res, err)
	}
	if _, err := s.Evaluate(describe.Kind(42), nil, QueryOptions{}, t0); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("unknown kind query error = %v", err)
	}
	if _, err := s.Evaluate(describe.KindSemantic, []byte{1}, QueryOptions{}, t0); err == nil {
		t.Fatal("bad query payload accepted")
	}
}

func TestMergeRank(t *testing.T) {
	s := newStore(t)
	a := semAdvert("urn:svc:a", "Sensor", time.Minute)
	b := semAdvert("urn:svc:b", "Radar", time.Minute)
	dupA := a // same advert seen via two registries
	aOld := a
	aOld.Version = 0
	pools := [][]wire.Advertisement{{a, b}, {dupA, aOld}}
	res, err := s.MergeRank(describe.KindSemantic, semQuery("Sensor"), pools, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("merged %d results, want 2 (dedup)", len(res))
	}
	if res[0].ID != a.ID || res[0].Version != 1 {
		t.Fatalf("merge ranking/version selection wrong: %+v", res)
	}
	// BestOnly after merge.
	res, _ = s.MergeRank(describe.KindSemantic, semQuery("Sensor"), pools, QueryOptions{BestOnly: true})
	if len(res) != 1 {
		t.Fatalf("BestOnly merge returned %d", len(res))
	}
	// One service under two IDs in two pools: the higher version stands
	// for it, as in the store, even when its ID is the higher one.
	newer, older := a, a
	newer.ID, newer.Version = uuid.UUID{15: 2}, 3
	older.ID, older.Version = uuid.UUID{15: 1}, 1
	res, _ = s.MergeRank(describe.KindSemantic, semQuery("Sensor"), [][]wire.Advertisement{{older}, {newer}}, QueryOptions{})
	if len(res) != 1 || res[0].ID != newer.ID || res[0].Version != 3 {
		t.Fatalf("merge of one service at v1 and v3 returned %+v, want only v3", res)
	}
}

func TestSummary(t *testing.T) {
	s := newStore(t)
	s.Publish(semAdvert("urn:svc:r1", "Radar", time.Minute), t0)
	s.Publish(semAdvert("urn:svc:r2", "Radar", time.Minute), t0)
	s.Publish(semAdvert("urn:svc:c1", "Camera", time.Minute), t0)
	sum := s.Summary()
	if len(sum) != 1 || sum[0].Kind != describe.KindSemantic {
		t.Fatalf("Summary = %+v", sum)
	}
	if len(sum[0].Tokens) != 2 {
		t.Fatalf("tokens = %v, want Radar+Camera deduped", sum[0].Tokens)
	}
}

func TestSubscriptions(t *testing.T) {
	s := newStore(t)
	subID, err := s.Subscribe(describe.KindSemantic, semQuery("Sensor"), "lan0/client", gen.New(), time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	adv := semAdvert("urn:svc:r1", "Radar", time.Minute)
	_, notes, err := s.Publish(adv, t0)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].SubID != subID || notes[0].NotifyAddr != "lan0/client" {
		t.Fatalf("notifications = %+v", notes)
	}
	// Non-matching publish notifies nobody.
	_, notes, _ = s.Publish(semAdvert("urn:svc:t1", "Track", time.Minute), t0)
	if len(notes) != 0 {
		t.Fatalf("unexpected notifications: %+v", notes)
	}
	if !s.Unsubscribe(subID) || s.Unsubscribe(subID) {
		t.Fatal("Unsubscribe bookkeeping wrong")
	}
	_, notes, _ = s.Publish(semAdvert("urn:svc:r9", "Radar", time.Minute), t0)
	if len(notes) != 0 {
		t.Fatal("unsubscribed subscription fired")
	}
	if _, err := s.Subscribe(describe.Kind(42), nil, "x", gen.New(), time.Time{}); err == nil {
		t.Fatal("subscribe with unknown kind accepted")
	}
}

func TestArtifacts(t *testing.T) {
	s := newStore(t)
	data := []byte("@prefix ex: <http://e/> .")
	s.PutArtifact(ns, data)
	got, ok := s.Artifact(ns)
	if !ok || string(got) != string(data) {
		t.Fatalf("Artifact = (%q, %v)", got, ok)
	}
	data[0] = 'X' // caller mutation must not affect the store
	got, _ = s.Artifact(ns)
	if got[0] == 'X' {
		t.Fatal("artifact store aliases caller buffer")
	}
	if _, ok := s.Artifact("urn:missing"); ok {
		t.Fatal("missing artifact found")
	}
}

func TestAdvertsDeterministic(t *testing.T) {
	s := newStore(t)
	for i := 0; i < 5; i++ {
		s.Publish(semAdvert("urn:svc:"+string(rune('a'+i)), "Radar", time.Minute), t0)
	}
	first := s.Adverts()
	for i := 0; i < 5; i++ {
		again := s.Adverts()
		for j := range first {
			if again[j].ID != first[j].ID {
				t.Fatal("Adverts order not deterministic")
			}
		}
	}
}
