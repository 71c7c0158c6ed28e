package registry

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/wire"
)

// cachedValid reports whether the default-options cache entry for a
// semantic query is resident and would be served at now.
func cachedValid(s *Store, q []byte, now time.Time) bool {
	key := qkey{hash: describe.PayloadHash(describe.KindSemantic, q), kind: describe.KindSemantic, limit: s.EffectiveLimit(QueryOptions{})}
	s.qcache.mu.Lock()
	defer s.qcache.mu.Unlock()
	e, ok := s.qcache.lru.Get(key)
	return ok && e.valid(s, now)
}

// TestTokenKeyedInvalidation pins the width of result-cache
// invalidation: each result-affecting write invalidates exactly the
// cached entries whose queries can see one of the tokens the written
// advert carries (before or after the write), every prunable entry when
// the advert carries no token, and nothing else. The Thing query is not
// prunable and depends on every write. After every row, each query must
// still answer exactly what a cache-off evaluation returns.
func TestTokenKeyedInvalidation(t *testing.T) {
	queries := map[string][]byte{
		"Radar":   semQuery("Radar"),   // Radar, Sensor, Device, Thing
		"Camera":  semQuery("Camera"),  // Camera, Sensor, Device, Thing
		"Track":   semQuery("Track"),   // Track, Observation, Thing
		"Unknown": semQuery("Unknown"), // not in the ontology: Unknown, Thing
		"Thing":   (&describe.SemanticQuery{Template: &profile.Template{Category: ontology.Thing}}).Encode(),
	}
	// The assertions below assume the leaf tokens land in distinct
	// buckets; a collision would only over-invalidate.
	seen := map[uint32]string{}
	for _, name := range []string{"Radar", "Camera", "Track", "Observation", "Sensor", "Device", "Unknown"} {
		b := genBucket(string(c(name)))
		if other, dup := seen[b]; dup {
			t.Fatalf("test tokens %s and %s share bucket %d", name, other, b)
		}
		seen[b] = name
	}
	if b := genBucket(string(ontology.Thing)); seen[b] != "" {
		t.Fatalf("Thing shares a bucket with %s", seen[b])
	}

	type fixture struct {
		s   *Store
		ids map[string]wire.Advertisement
	}
	rows := []struct {
		name  string
		write func(t *testing.T, f *fixture)
		stale []string // entries the write must invalidate; the rest stay hits
	}{
		{"publish Radar", func(t *testing.T, f *fixture) {
			mustPublish(t, f.s, semAdvert("urn:svc:r9", "Radar", time.Hour), t0)
		}, []string{"Radar", "Thing"}},
		{"publish Track (disjoint from Radar and Camera)", func(t *testing.T, f *fixture) {
			mustPublish(t, f.s, semAdvert("urn:svc:t9", "Track", time.Hour), t0)
		}, []string{"Track", "Thing"}},
		{"update Radar→Track bumps the old tokens too", func(t *testing.T, f *fixture) {
			adv := f.ids["radar"]
			adv.Version = 2
			adv.Payload = semAdvertPayload("urn:svc:radar", "Track")
			mustPublish(t, f.s, adv, t0)
		}, []string{"Radar", "Track", "Thing"}},
		{"supersede a Radar advert by a Camera one", func(t *testing.T, f *fixture) {
			adv := semAdvert("urn:svc:radar", "Camera", time.Hour) // same service key, new ID
			mustPublish(t, f.s, adv, t0)
			if f.s.Has(f.ids["radar"].ID) {
				t.Fatal("setup: the Radar advert was not superseded")
			}
		}, []string{"Radar", "Camera", "Thing"}},
		{"remove Radar", func(t *testing.T, f *fixture) {
			if !f.s.Remove(f.ids["radar"].ID) {
				t.Fatal("remove failed")
			}
		}, []string{"Radar", "Thing"}},
		{"expiry purge of a lapsed Radar", func(t *testing.T, f *fixture) {
			if n := len(f.s.ExpireThrough(t0.Add(10 * time.Second))); n != 1 {
				t.Fatalf("purged %d adverts, want 1", n)
			}
		}, []string{"Radar", "Thing"}},
		{"resurrecting renew of a lapsed Radar", func(t *testing.T, f *fixture) {
			if _, ok := f.s.Renew(f.ids["lapsed"].ID, t0.Add(10*time.Second)); !ok {
				t.Fatal("renew failed")
			}
		}, []string{"Radar", "Thing"}},
		{"ordinary renew", func(t *testing.T, f *fixture) {
			if _, ok := f.s.Renew(f.ids["radar"].ID, t0); !ok {
				t.Fatal("renew failed")
			}
		}, nil},
		{"identical re-publish of a live advert", func(t *testing.T, f *fixture) {
			mustPublish(t, f.s, f.ids["radar"], t0)
		}, nil},
		{"token-less advert", func(t *testing.T, f *fixture) {
			bare := semAdvert("urn:svc:bare", "Radar", time.Hour)
			bare.Payload = (&profile.Profile{ServiceIRI: "urn:svc:bare", Grounding: "urn:g"}).Encode()
			mustPublish(t, f.s, bare, t0)
		}, []string{"Radar", "Camera", "Track", "Unknown", "Thing"}},
		{"first publish interning a query token", func(t *testing.T, f *fixture) {
			mustPublish(t, f.s, semAdvert("urn:svc:odd", "Unknown", time.Hour), t0)
		}, []string{"Unknown", "Thing"}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := &fixture{s: newStore(t), ids: map[string]wire.Advertisement{}}
			for _, a := range []struct {
				name, cat string
				lease     time.Duration
			}{{"radar", "Radar", time.Hour}, {"lapsed", "Radar", 2 * time.Second}, {"camera", "Camera", time.Hour}, {"track", "Track", time.Hour}} {
				adv := semAdvert("urn:svc:"+a.name, a.cat, a.lease)
				mustPublish(t, f.s, adv, t0.Add(-time.Second))
				f.ids[a.name] = adv
			}
			// Fill at t0, when "lapsed" is still alive, and validate at t0
			// too: only counters decide validity below.
			for _, q := range queries {
				evalMust(t, f.s, q, QueryOptions{}, t0)
			}
			for name, q := range queries {
				if !cachedValid(f.s, q, t0) {
					t.Fatalf("setup: %s entry not cached", name)
				}
			}
			row.write(t, f)
			stale := map[string]bool{}
			for _, name := range row.stale {
				stale[name] = true
			}
			for name, q := range queries {
				if got := cachedValid(f.s, q, t0); got == stale[name] {
					t.Errorf("%s entry: valid=%v after the write, want %v", name, got, !stale[name])
				}
			}
			// Whatever stayed valid must still be exact.
			for name, q := range queries {
				for _, now := range []time.Time{t0, t0.Add(10 * time.Second)} {
					got := evalMust(t, f.s, q, QueryOptions{}, now)
					want := evalMust(t, f.s, q, QueryOptions{NoCache: true}, now)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s at %v: cached %v, live %v", name, now.Sub(t0), ids(got), ids(want))
					}
				}
			}
		})
	}
}

func mustPublish(t *testing.T, s *Store, adv wire.Advertisement, now time.Time) {
	t.Helper()
	if _, _, err := s.Publish(adv, now); err != nil {
		t.Fatal(err)
	}
}

func semAdvertPayload(serviceIRI, category string) []byte {
	return semAdvert(serviceIRI, category, time.Hour).Payload
}

func ids(adverts []wire.Advertisement) []string {
	out := make([]string, len(adverts))
	for i, a := range adverts {
		out[i] = fmt.Sprint(a.ID)
	}
	return out
}
