package registry

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/uuid"
)

// update rewrites the current WAL corpus by replaying the script:
// go test ./internal/registry -run TestGolden -update
var update = flag.Bool("update", false, "rewrite testdata/wal-v2 from the scripted history")

// goldenWAL names the fixed identities of the scripted history behind
// testdata/wal-v1 and testdata/wal-v2. Between them the script appends
// every record type the log has. The two corpora hold the same history;
// wal-v1 was written while Profile.Encode wrote payload version 1 and
// is kept as it was, so recovery must keep reading those payloads.
type goldenWAL struct {
	prov, a, b, c, d, e, f uuid.UUID
	s1, s2, s3, s4, s5     uuid.UUID
}

func newGoldenWAL() goldenWAL {
	gen := uuid.NewGenerator(20261015)
	var g goldenWAL
	for _, id := range []*uuid.UUID{&g.prov, &g.a, &g.b, &g.c, &g.d, &g.e, &g.f, &g.s1, &g.s2, &g.s3, &g.s4, &g.s5} {
		*id = gen.New()
	}
	return g
}

// sec is the script's clock: every instant is a whole second after t0.
func sec(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }

func (g goldenWAL) publish(t *testing.T, st *Store, id uuid.UUID, svc, cat string, version uint64, lease time.Duration, now int) {
	t.Helper()
	adv := walAdvert(id, svc, cat, version, lease)
	adv.Provider = g.prov
	if _, _, err := st.Publish(adv, sec(now)); err != nil {
		t.Fatal(err)
	}
}

func subscribe(t *testing.T, st *Store, id uuid.UUID, cat string, expires time.Time) {
	t.Helper()
	if _, err := st.Subscribe(describe.KindSemantic, semQuery(cat), "lan0/notify", id, expires); err != nil {
		t.Fatal(err)
	}
}

// history appends records 1–17: publish ×4, renew, a version update, a
// supersede (publish + remove), remove, subscribe ×4, unsubscribe, a
// purging expiry sweep, a pruning subscription sweep, and a re-publish
// that is legal only because the sweep came first.
func (g goldenWAL) history(t *testing.T, st *Store) {
	t.Helper()
	g.publish(t, st, g.a, "urn:svc:a", "Radar", 1, 5*time.Minute, 0)
	g.publish(t, st, g.b, "urn:svc:b", "Camera", 1, 2*time.Second, 1)
	g.publish(t, st, g.c, "urn:svc:c", "Sensor", 1, 10*time.Minute, 2)
	g.publish(t, st, g.e, "urn:svc:e", "Track", 1, time.Minute, 3)
	if _, ok := st.Renew(g.a, sec(30)); !ok {
		t.Fatal("renew failed")
	}
	g.publish(t, st, g.a, "urn:svc:a", "Track", 2, 2*time.Minute, 40)
	g.publish(t, st, g.d, "urn:svc:c", "Radar", 2, 10*time.Minute, 45)
	if !st.Remove(g.e) {
		t.Fatal("remove failed")
	}
	subscribe(t, st, g.s1, "Sensor", sec(60))
	subscribe(t, st, g.s2, "Device", time.Time{})
	subscribe(t, st, g.s3, "Radar", sec(3600))
	subscribe(t, st, g.s4, "Camera", sec(3600))
	if !st.Unsubscribe(g.s3) {
		t.Fatal("unsubscribe failed")
	}
	if n := len(st.ExpireThrough(sec(50))); n != 1 {
		t.Fatalf("expiry sweep purged %d adverts, want 1", n)
	}
	if n := st.PruneSubscriptions(sec(90)); n != 1 {
		t.Fatalf("subscription sweep pruned %d, want 1", n)
	}
	g.publish(t, st, g.b, "urn:svc:b", "Camera", 1, 5*time.Minute, 100)
}

// tail appends records 18–21 after the snapshot.
func (g goldenWAL) tail(t *testing.T, st *Store) {
	t.Helper()
	if _, ok := st.Renew(g.d, sec(150)); !ok {
		t.Fatal("renew failed")
	}
	g.publish(t, st, g.f, "urn:svc:f", "Sensor", 1, 3*time.Minute, 160)
	if !st.Remove(g.b) {
		t.Fatal("remove failed")
	}
	subscribe(t, st, g.s5, "Track", sec(7200))
}

// build writes one corpus directory from the script. "log" is the
// history plus a publish whose frame is then cut 3 bytes short (a torn
// tail); "snap" is the history compacted into a snapFormatV1 snapshot,
// then the tail in a fresh segment.
func (g goldenWAL) build(t *testing.T, name, dir string) {
	t.Helper()
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	g.history(t, st)
	if name == "log" {
		g.publish(t, st, g.f, "urn:svc:f", "Sensor", 1, 3*time.Minute, 110)
	} else {
		if err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
		g.tail(t, st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if name == "log" {
		seg := filepath.Join(dir, segName(1))
		info, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(seg, info.Size()-3); err != nil {
			t.Fatal(err)
		}
	}
}

func readDirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = b
	}
	return files
}

type goldenAdvert struct {
	version  uint64
	deadline time.Time
}

// TestGoldenWAL pins the on-disk formats — log records, the torn-tail
// rule and the snapFormatV1 snapshot — to committed directories. The
// script must regenerate every file of testdata/wal-v2 byte for byte,
// and recovering each committed directory of wal-v2 and of the frozen
// wal-v1 (from a copy: recovery appends) must rebuild exactly the state
// written down here.
func TestGoldenWAL(t *testing.T) {
	g := newGoldenWAL()
	for _, tc := range []struct {
		name    string
		now     time.Time
		stats   RecoveryStats
		adverts map[uuid.UUID]goldenAdvert
		subs    map[uuid.UUID]time.Time
	}{
		{
			name:  "log",
			now:   sec(120),
			stats: RecoveryStats{Replayed: 17, TornFrames: 1, Adverts: 3, Subs: 2},
			adverts: map[uuid.UUID]goldenAdvert{
				g.a: {2, sec(40).Add(2 * time.Minute)},
				g.b: {1, sec(100).Add(5 * time.Minute)},
				g.d: {2, sec(45).Add(10 * time.Minute)},
			},
			subs: map[uuid.UUID]time.Time{g.s2: {}, g.s4: sec(3600)},
		},
		{
			// The boot sweep at 200 s purges a (deadline 160 s).
			name: "snap",
			now:  sec(200),
			stats: RecoveryStats{SnapshotLSN: 17, SnapshotAdverts: 3, SnapshotSubs: 2,
				Replayed: 4, Adverts: 2, Subs: 3},
			adverts: map[uuid.UUID]goldenAdvert{
				g.d: {2, sec(150).Add(10 * time.Minute)},
				g.f: {1, sec(160).Add(3 * time.Minute)},
			},
			subs: map[uuid.UUID]time.Time{g.s2: {}, g.s4: sec(3600), g.s5: sec(7200)},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			current := filepath.Join("testdata", "wal-v2", tc.name)
			if *update {
				if err := os.RemoveAll(current); err != nil {
					t.Fatal(err)
				}
				g.build(t, tc.name, current)
			}
			want := readDirFiles(t, current)

			regen := t.TempDir()
			g.build(t, tc.name, regen)
			got := readDirFiles(t, regen)
			if len(got) != len(want) {
				t.Fatalf("script writes %d files, corpus holds %d", len(got), len(want))
			}
			for name, b := range want {
				if !bytes.Equal(got[name], b) {
					t.Fatalf("%s: script no longer writes the committed bytes (%d vs %d bytes)", name, len(got[name]), len(b))
				}
			}

			for _, corpus := range []string{filepath.Join("testdata", "wal-v1", tc.name), current} {
				st, stats := recoverCopy(t, readDirFiles(t, corpus), tc.now)
				if stats != tc.stats {
					t.Fatalf("%s: RecoveryStats = %+v, want %+v", corpus, stats, tc.stats)
				}
				advs := st.Adverts()
				if len(advs) != len(tc.adverts) {
					t.Fatalf("%s: recovered %d adverts, want %d", corpus, len(advs), len(tc.adverts))
				}
				for _, a := range advs {
					wa, ok := tc.adverts[a.ID]
					deadline, _ := st.LeaseDeadline(a.ID)
					if !ok || a.Version != wa.version || !deadline.Equal(wa.deadline) {
						t.Fatalf("%s: advert %v: v%d until %v, want %+v (held: %v)", corpus, a.ID, a.Version, deadline, wa, ok)
					}
				}
				subs := st.durableSubs()
				if len(subs) != len(tc.subs) {
					t.Fatalf("%s: recovered %d subscriptions, want %d", corpus, len(subs), len(tc.subs))
				}
				for _, s := range subs {
					exp, ok := tc.subs[s.id]
					if !ok || !s.expires.Equal(exp) || s.notify != "lan0/notify" {
						t.Fatalf("%s: subscription %v: expires %v notify %q, want %v (held: %v)", corpus, s.id, s.expires, s.notify, exp, ok)
					}
				}
			}
		})
	}
}

// recoverCopy recovers a store from a copy of a corpus directory's
// files (recovery appends) with the boot clock at now.
func recoverCopy(t *testing.T, files map[string][]byte, now time.Time) (*Store, RecoveryStats) {
	t.Helper()
	dir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, w, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	stats.Elapsed = 0
	return st, stats
}

// TestRecoverSkipsRejectedAdvert: testdata/wal-inf was written while
// the decoders still accepted non-finite QoS values (payload version
// 1). Both directories hold publishes of a (Radar), inf (Camera,
// accuracy +Inf), a renew of inf and c (Sensor); "snap" has them in a
// snapshot, then d (Track) and a second renew of inf in the log. The
// store now rejects inf's payload, so recovery must skip that advert —
// logged and counted in registry.wal.recover_rejected — and boot with
// the rest, which also shows version 1 logs and snapshots still load.
func TestRecoverSkipsRejectedAdvert(t *testing.T) {
	gen := uuid.NewGenerator(20261019)
	gen.New() // provider
	a, inf, c, d := gen.New(), gen.New(), gen.New(), gen.New()
	for _, tc := range []struct {
		name  string
		stats RecoveryStats
		live  []uuid.UUID
	}{
		{"log", RecoveryStats{Replayed: 4, Adverts: 2}, []uuid.UUID{a, c}},
		{"snap", RecoveryStats{SnapshotLSN: 4, SnapshotAdverts: 3, Replayed: 2, Adverts: 3}, []uuid.UUID{a, c, d}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := mWALRecoverRejected.Load()
			st, stats := recoverCopy(t, readDirFiles(t, filepath.Join("testdata", "wal-inf", tc.name)), sec(10))
			if n := mWALRecoverRejected.Load() - before; n != 1 {
				t.Fatalf("registry.wal.recover_rejected moved by %d, want 1", n)
			}
			if stats != tc.stats {
				t.Fatalf("RecoveryStats = %+v, want %+v", stats, tc.stats)
			}
			var got []uuid.UUID
			for _, adv := range st.Adverts() {
				got = append(got, adv.ID)
			}
			if _, ok := st.LeaseDeadline(inf); ok || len(got) != len(tc.live) {
				t.Fatalf("recovered %v, want exactly %v", got, tc.live)
			}
			for _, id := range tc.live {
				if _, ok := st.LeaseDeadline(id); !ok {
					t.Fatalf("recovered %v, want exactly %v", got, tc.live)
				}
			}
		})
	}
}
