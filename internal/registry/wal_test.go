package registry

// Crash-recovery tests for the WAL backend: clean round trips, torn and
// truncated log tails, snapshot+tail equivalence under randomized
// histories, a simulated kill -9 during a publish storm, and
// publish-during-snapshot races (run under -race in CI).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/profile"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// walGen is not safe for concurrent use; tests with concurrent
// publishers give each worker its own seeded generator.
var (
	walGen      = uuid.NewGenerator(7701)
	walProvider = walGen.New()
)

// walFactory builds the store factory recovery and compaction share.
// One model registry backs every store it makes: the ontology is
// immutable after Freeze, exactly like a registryd restart reloading
// the same taxonomy file.
func walFactory(t testing.TB) func() *Store {
	t.Helper()
	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(testOntology(t)))
	return func() *Store {
		return New(Options{
			Models: models,
			Leases: lease.Policy{Min: time.Second, Max: time.Hour, Default: 30 * time.Second},
		})
	}
}

func walAdvert(id uuid.UUID, serviceIRI, category string, version uint64, leaseDur time.Duration) wire.Advertisement {
	p := &profile.Profile{
		ServiceIRI: serviceIRI,
		Category:   c(category),
		Grounding:  "urn:g:" + serviceIRI,
	}
	return wire.Advertisement{
		ID:           id,
		Provider:     walProvider,
		ProviderAddr: "lan0/svc",
		Kind:         describe.KindSemantic,
		Payload:      p.Encode(),
		LeaseMillis:  uint64(leaseDur / time.Millisecond),
		Version:      version,
	}
}

// assertStoresEqual checks that two stores are observationally
// identical: same adverts, same absolute lease deadlines, same standing
// queries, and bit-identical Evaluate results for every query.
func assertStoresEqual(t *testing.T, want, got *Store, now time.Time, queries [][]byte) {
	t.Helper()
	wa, ga := want.Adverts(), got.Adverts()
	if !reflect.DeepEqual(wa, ga) {
		t.Fatalf("adverts diverge: want %d, got %d", len(wa), len(ga))
	}
	for _, a := range wa {
		wd, wok := want.LeaseDeadline(a.ID)
		gd, gok := got.LeaseDeadline(a.ID)
		if wok != gok || !wd.Equal(gd) {
			t.Fatalf("lease deadline for %v diverges: want %v (%v), got %v (%v)", a.ID, wd, wok, gd, gok)
		}
	}
	if w, g := want.NumSubscriptions(), got.NumSubscriptions(); w != g {
		t.Fatalf("subscriptions diverge: want %d, got %d", w, g)
	}
	for i, q := range queries {
		opts := QueryOptions{MaxResults: 1000}
		wr, werr := want.Evaluate(describe.KindSemantic, q, opts, now)
		gr, gerr := got.Evaluate(describe.KindSemantic, q, opts, now)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("query %d errors diverge: %v vs %v", i, werr, gerr)
		}
		if !reflect.DeepEqual(wr, gr) {
			t.Fatalf("query %d results diverge: want %d adverts, got %d", i, len(wr), len(gr))
		}
	}
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	now := t0
	st, w, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Adverts != 0 || stats.Replayed != 0 {
		t.Fatalf("fresh dir recovered state: %+v", stats)
	}

	cats := []string{"Radar", "Camera", "Sensor", "Track"}
	ids := make([]uuid.UUID, 20)
	for i := range ids {
		ids[i] = walGen.New()
		adv := walAdvert(ids[i], fmt.Sprintf("urn:svc:%d", i), cats[i%len(cats)], 1, 5*time.Minute)
		if _, _, err := st.Publish(adv, now.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	// A renewal, an update, a removal, a subscription, and an expiry
	// sweep — one of every record type.
	if _, ok := st.Renew(ids[3], now.Add(30*time.Second)); !ok {
		t.Fatal("renew failed")
	}
	upd := walAdvert(ids[5], "urn:svc:5", "Camera", 2, 2*time.Minute)
	if _, _, err := st.Publish(upd, now.Add(40*time.Second)); err != nil {
		t.Fatal(err)
	}
	if !st.Remove(ids[7]) {
		t.Fatal("remove failed")
	}
	subID := walGen.New()
	if _, err := st.Subscribe(describe.KindSemantic, semQuery("Sensor"), "lan0/notify", subID, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	st.ExpireThrough(now.Add(50 * time.Second)) // purges nothing, logs nothing
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	now = now.Add(time.Minute)
	rec, w2, rstats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rstats.Replayed == 0 || rstats.TornFrames != 0 {
		t.Fatalf("unexpected recovery stats: %+v", rstats)
	}
	queries := [][]byte{semQuery("Device"), semQuery("Sensor"), semQuery("Radar"), semQuery("Camera")}
	assertStoresEqual(t, st, rec, now, queries)

	// The recovered subscription must still notify — including its
	// payload, which only survives through the log.
	adv := walAdvert(walGen.New(), "urn:svc:fresh", "Radar", 1, time.Minute)
	_, notes, err := rec.Publish(adv, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(notes) != 1 || notes[0].SubID != subID || notes[0].NotifyAddr != "lan0/notify" {
		t.Fatalf("recovered subscription did not notify: %v", notes)
	}
}

func TestWALTornAndTruncatedTail(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mangle  func(t *testing.T, seg string)
		wantLen int
	}{
		{
			name: "truncated-mid-frame",
			mangle: func(t *testing.T, seg string) {
				info, err := os.Stat(seg)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.Truncate(seg, info.Size()-3); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: 9, // the last record's frame is cut short
		},
		{
			name: "garbage-appended",
			mangle: func(t *testing.T, seg string) {
				f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.Write([]byte("\xde\xad\xbe\xef torn tail garbage")); err != nil {
					t.Fatal(err)
				}
			},
			wantLen: 10, // every real record survives, the garbage is dropped
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			mk := walFactory(t)
			clock := func() time.Time { return t0 }
			st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				adv := walAdvert(walGen.New(), fmt.Sprintf("urn:svc:%d", i), "Radar", 1, time.Hour)
				if _, _, err := st.Publish(adv, t0); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
			if err != nil || len(segs) == 0 {
				t.Fatalf("no segments: %v", err)
			}
			tc.mangle(t, segs[len(segs)-1])

			rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if stats.TornFrames != 1 {
				t.Fatalf("TornFrames = %d, want 1", stats.TornFrames)
			}
			if rec.Len() != tc.wantLen {
				t.Fatalf("recovered %d adverts, want %d", rec.Len(), tc.wantLen)
			}
			// The log stays appendable after a torn tail: new mutations
			// land in a fresh segment past the damage.
			adv := walAdvert(walGen.New(), "urn:svc:post", "Camera", 1, time.Hour)
			if _, _, err := rec.Publish(adv, t0); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			rec2, w3, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer w3.Close()
			if rec2.Len() != tc.wantLen+1 {
				t.Fatalf("after post-tear publish: %d adverts, want %d", rec2.Len(), tc.wantLen+1)
			}
		})
	}
}

// TestWALSnapshotTailEquivalence is the property test: a randomized
// mutation history with automatic and forced compactions must recover
// to a store observationally identical to the live one — same adverts,
// deadlines, subscriptions, and bit-identical Evaluate results.
func TestWALSnapshotTailEquivalence(t *testing.T) {
	cats := []string{"Radar", "Camera", "Sensor", "Device", "Track"}
	queries := make([][]byte, len(cats))
	for i, cat := range cats {
		queries[i] = semQuery(cat)
	}
	for _, seed := range []int64{1, 7, 42, 20260808} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ids := uuid.NewGenerator(uint64(seed)) // a seed names one history
			dir := t.TempDir()
			mk := walFactory(t)
			clock := t0
			nowFn := func() time.Time { return clock }
			st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 64, NewStore: mk, Now: nowFn})
			if err != nil {
				t.Fatal(err)
			}

			type liveAdv struct {
				id      uuid.UUID
				svc     string
				version uint64
			}
			var advs []liveAdv
			var subIDs []uuid.UUID
			for i := 0; i < 1200; i++ {
				clock = clock.Add(time.Duration(rng.Intn(400)) * time.Millisecond)
				switch op := rng.Intn(12); {
				case op < 5: // fresh publish
					a := liveAdv{id: ids.New(), svc: fmt.Sprintf("urn:svc:%d-%d", seed, i), version: 1}
					adv := walAdvert(a.id, a.svc, cats[rng.Intn(len(cats))], 1, time.Duration(1+rng.Intn(20))*time.Second)
					if _, _, err := st.Publish(adv, clock); err != nil {
						t.Fatal(err)
					}
					advs = append(advs, a)
				case op < 7 && len(advs) > 0: // version update of a known ID
					a := &advs[rng.Intn(len(advs))]
					a.version++
					adv := walAdvert(a.id, a.svc, cats[rng.Intn(len(cats))], a.version, time.Duration(1+rng.Intn(20))*time.Second)
					// Stale when the service key's holder has a higher version.
					_, _, err := st.Publish(adv, clock)
					if err := publishErr(st, adv, err); err != nil {
						t.Fatal(err)
					}
				case op == 7 && len(advs) > 0: // supersede: same service, new ID
					old := advs[rng.Intn(len(advs))]
					a := liveAdv{id: ids.New(), svc: old.svc, version: old.version + 1}
					adv := walAdvert(a.id, a.svc, cats[rng.Intn(len(cats))], a.version, time.Duration(1+rng.Intn(20))*time.Second)
					_, _, err := st.Publish(adv, clock)
					if err := publishErr(st, adv, err); err != nil {
						t.Fatal(err)
					}
					advs = append(advs, a)
				case op == 8 && len(advs) > 0:
					st.Renew(advs[rng.Intn(len(advs))].id, clock)
				case op == 9 && len(advs) > 0:
					st.Remove(advs[rng.Intn(len(advs))].id)
				case op == 10:
					if rng.Intn(3) == 0 && len(subIDs) > 0 {
						st.Unsubscribe(subIDs[rng.Intn(len(subIDs))])
					} else {
						id := ids.New()
						var exp time.Time
						if rng.Intn(2) == 0 {
							exp = clock.Add(time.Duration(1+rng.Intn(30)) * time.Second)
						}
						if _, err := st.Subscribe(describe.KindSemantic, queries[rng.Intn(len(queries))], "lan0/n", id, exp); err != nil {
							t.Fatal(err)
						}
						subIDs = append(subIDs, id)
					}
				default:
					st.ExpireThrough(clock)
					st.PruneSubscriptions(clock)
				}
				if rng.Intn(200) == 0 {
					if err := w.Snapshot(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Purge through the final clock on the live side too, so the
			// boot sweep at recovery has nothing left to diverge on.
			st.ExpireThrough(clock)
			st.PruneSubscriptions(clock)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 64, NewStore: mk, Now: nowFn})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if stats.SnapshotLSN == 0 {
				t.Fatal("history never compacted; SnapshotEvery not exercised")
			}
			assertStoresEqual(t, st, rec, clock, queries)
		})
	}
}

// TestWALCrashDuringPublishStorm simulates kill -9 mid-storm: the WAL
// descriptor is closed with buffered frames unflushed while concurrent
// publishers are mid-flight. Every publish that was acknowledged before
// the crash must recover with its exact remaining lease; unacknowledged
// ones may or may not survive, and the log holds at most the one torn
// tail a single kill can leave.
func TestWALCrashDuringPublishStorm(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 256, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}

	type acked struct {
		id       uuid.UUID
		deadline time.Time
	}
	var mu sync.Mutex
	var ok []acked
	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			gen := uuid.NewGenerator(uint64(9000 + worker))
			for i := 0; ; i++ {
				id := gen.New()
				now := t0.Add(time.Duration(worker*10000+i) * time.Millisecond)
				adv := walAdvert(id, fmt.Sprintf("urn:svc:%d-%d", worker, i), "Radar", 1, 5*time.Minute)
				granted, _, err := st.Publish(adv, now)
				if err != nil {
					return // the crash hit; everything before was acked
				}
				mu.Lock()
				ok = append(ok, acked{id: id, deadline: now.Add(granted)})
				mu.Unlock()
			}
		}(worker)
	}
	time.Sleep(5 * time.Millisecond)
	w.crash()
	wg.Wait()
	if len(ok) == 0 {
		t.Fatal("no publishes were acknowledged before the crash")
	}

	rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 256, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.TornFrames > 1 {
		t.Fatalf("TornFrames = %d after a single kill, want at most 1", stats.TornFrames)
	}
	t.Logf("acked %d publishes; recovered %d adverts (%d replayed, %d torn)",
		len(ok), stats.Adverts, stats.Replayed, stats.TornFrames)
	for _, a := range ok {
		deadline, has := rec.LeaseDeadline(a.id)
		if !has {
			t.Fatalf("acked advert %v lost in the crash", a.id)
		}
		if !deadline.Equal(a.deadline) {
			t.Fatalf("advert %v recovered with deadline %v, want %v", a.id, deadline, a.deadline)
		}
	}
}

// TestWALPublishDuringSnapshot races live publishes against forced
// compactions; run under -race in CI. Compaction must neither block nor
// corrupt the writers, and the final recovery must match the live
// store exactly.
func TestWALPublishDuringSnapshot(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			gen := uuid.NewGenerator(uint64(9100 + worker))
			for i := 0; i < 300; i++ {
				adv := walAdvert(gen.New(), fmt.Sprintf("urn:svc:%d-%d", worker, i), "Camera", 1, time.Hour)
				if _, _, err := st.Publish(adv, t0.Add(time.Duration(i)*time.Millisecond)); err != nil {
					t.Error(err)
					return
				}
			}
		}(worker)
	}
	for i := 0; i < 4; i++ {
		if err := w.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if rec.Len() != 1200 {
		t.Fatalf("recovered %d adverts, want 1200", rec.Len())
	}
	if stats.SnapshotAdverts == 0 {
		t.Fatal("final snapshot captured nothing")
	}
	assertStoresEqual(t, st, rec, t0, [][]byte{semQuery("Camera"), semQuery("Device")})
}

// TestWALSnapshotCompaction checks that compaction retires sealed
// segments and old snapshots, and that recovery prefers the snapshot
// over a full log replay.
func TestWALSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		adv := walAdvert(walGen.New(), fmt.Sprintf("urn:svc:%d", i), "Radar", 1, time.Hour)
		if _, _, err := st.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot(); err != nil { // idempotent when nothing changed
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		adv := walAdvert(walGen.New(), fmt.Sprintf("urn:svc:tail%d", i), "Camera", 1, time.Hour)
		if _, _, err := st.Publish(adv, t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if len(snaps) != 1 {
		t.Fatalf("want exactly one snapshot, have %v", snaps)
	}
	rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.SnapshotAdverts != 100 {
		t.Fatalf("SnapshotAdverts = %d, want 100", stats.SnapshotAdverts)
	}
	if stats.Replayed != 50 {
		t.Fatalf("Replayed = %d, want 50 (the post-snapshot tail only)", stats.Replayed)
	}
	if rec.Len() != 150 {
		t.Fatalf("recovered %d adverts, want 150", rec.Len())
	}
}

// TestWALPurgeThenRepublishReplayOrder drives the append path through
// one of every record type — including an expiry sweep that actually
// purges, followed by a re-publish of one victim at the same version.
// The re-publish is legal only because the sweep came first, so replay
// must apply the sweep record and the publish records in exactly the
// order they were appended.
func TestWALPurgeThenRepublishReplayOrder(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	now := t0
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	cats := []string{"Radar", "Camera", "Sensor", "Track"}
	ids := make([]uuid.UUID, 24)
	for i := range ids {
		ids[i] = walGen.New()
		lease := 5 * time.Minute
		if i%3 == 0 {
			lease = 2 * time.Second // victims of the sweep below
		}
		adv := walAdvert(ids[i], fmt.Sprintf("urn:svc:sh%d", i), cats[i%len(cats)], 1, lease)
		if _, _, err := st.Publish(adv, now); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := st.Renew(ids[4], now.Add(time.Second)); !ok {
		t.Fatal("renew failed")
	}
	if !st.Remove(ids[7]) {
		t.Fatal("remove failed")
	}
	subID := walGen.New()
	if _, err := st.Subscribe(describe.KindSemantic, semQuery("Sensor"), "lan0/notify", subID, now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	// Purge the short leases, then re-publish one victim at the same
	// version: legal only because the sweep came first. A replay that
	// reordered the sweep would reject it as stale.
	st.ExpireThrough(now.Add(time.Minute))
	back := walAdvert(ids[0], "urn:svc:sh0", "Radar", 1, 5*time.Minute)
	if _, _, err := st.Publish(back, now.Add(2*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: func() time.Time { return now.Add(2 * time.Minute) }})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.Replayed == 0 || stats.TornFrames != 0 {
		t.Fatalf("unexpected recovery stats: %+v", stats)
	}
	queries := [][]byte{semQuery("Radar"), semQuery("Camera"), semQuery("Sensor"), semQuery("Track")}
	assertStoresEqual(t, st, rec, now.Add(2*time.Minute), queries)
}

// TestWALLSNOrderUnderRacingAppenders pins the log's one on-disk
// ordering invariant: frames are in strict LSN order even when eight
// appenders and a sweeper race on the append lock. An inverted pair
// would replay an expiry sweep ahead of a renewal it had observed and
// silently drop the renewed advert. Run under -race in CI.
func TestWALLSNOrderUnderRacingAppenders(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	_, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	// Hammer the append API directly — no store work between appends, so
	// appenders collide constantly; a sweeper interleaves expiry records.
	var pubs sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		pubs.Add(1)
		go func(worker int) {
			defer pubs.Done()
			gen := uuid.NewGenerator(uint64(9300 + worker))
			for i := 0; i < 50000; i++ {
				w.AppendRenew(gen.New(), t0.Add(time.Duration(i)*time.Millisecond))
			}
		}(worker)
	}
	stop := make(chan struct{})
	var sweep sync.WaitGroup
	sweep.Add(1)
	go func() {
		defer sweep.Done()
		for j := 0; ; j++ {
			select {
			case <-stop:
				return
			default:
			}
			w.AppendExpire(t0.Add(time.Duration(j) * time.Millisecond))
		}
	}()
	pubs.Wait()
	close(stop)
	sweep.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	_, segs, err := scanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	frames := 0
	for _, seg := range segs {
		f, err := os.Open(seg.path)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReaderSize(f, 1<<20)
		for {
			frame, torn, rerr := readFrame(br)
			if rerr == io.EOF {
				break
			}
			if torn {
				t.Fatalf("%s: torn frame after clean close", filepath.Base(seg.path))
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
			lsn, _ := binary.Uvarint(frame[1:])
			if lsn <= last {
				t.Fatalf("%s: LSN %d written after %d — log out of order", filepath.Base(seg.path), lsn, last)
			}
			last = lsn
			frames++
		}
		f.Close()
	}
	if frames == 0 {
		t.Fatal("no frames written")
	}
}

// TestWALRotationRacingPublishes races concurrent publishes against the
// automatic rotate-and-compact trigger (SnapshotEvery: 64, so several
// background compactions overlap the writers) and a forced compaction,
// then recovers from the snapshot plus tail. Run under -race in CI.
func TestWALRotationRacingPublishes(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 64, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for worker := 0; worker < 4; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			gen := uuid.NewGenerator(uint64(9200 + worker))
			for i := 0; i < 100; i++ {
				adv := walAdvert(gen.New(), fmt.Sprintf("urn:svc:n%d-%d", worker, i), "Camera", 1, time.Hour)
				if _, _, err := st.Publish(adv, t0); err != nil {
					t.Error(err)
					return
				}
			}
		}(worker)
	}
	wg.Wait()
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 64, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.SnapshotLSN == 0 {
		t.Fatal("forced snapshot not used by recovery")
	}
	if rec.Len() != 400 {
		t.Fatalf("recovered %d adverts, want 400", rec.Len())
	}
	assertStoresEqual(t, st, rec, t0, [][]byte{semQuery("Camera")})
}

// TestWALBarrierCompletions pins the asynchronous half of group commit:
// completions registered without waiting all run, in LSN order, and no
// later than Close; after Close a new record's barrier fails.
func TestWALBarrierCompletions(t *testing.T) {
	st, w, _, err := Recover(WALConfig{Dir: t.TempDir(), SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var order []uint64
	const n = 200
	for i := 0; i < n; i++ {
		adv := walAdvert(walGen.New(), fmt.Sprintf("urn:svc:b%d", i), "Radar", 1, time.Hour)
		_, _, lsn, err := st.PublishAsync(adv, t0)
		if err != nil {
			t.Fatal(err)
		}
		st.WhenDurable(lsn, func(err error) {
			if err != nil {
				t.Errorf("lsn %d: %v", lsn, err)
			}
			mu.Lock()
			order = append(order, lsn)
			mu.Unlock()
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(order) != n || !slices.IsSorted(order) {
		t.Fatalf("%d of %d completions ran by Close, sorted=%v", len(order), n, slices.IsSorted(order))
	}
	mu.Unlock()
	_, _, lsn, err := st.PublishAsync(walAdvert(walGen.New(), "urn:svc:late", "Radar", 1, time.Hour), t0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	st.WhenDurable(lsn, func(err error) { done <- err })
	if err := <-done; !errors.Is(err, ErrDurability) {
		t.Fatalf("barrier after Close: %v, want ErrDurability", err)
	}
}

// TestWALSyncSettledWhileLeading: a Sync whose LSN is already durable
// returns at once even while the commit leader is busy (here, stuck in
// a completion), and a Sync for a newer record waits for that leader.
func TestWALSyncSettledWhileLeading(t *testing.T) {
	st, w, _, err := Recover(WALConfig{Dir: t.TempDir(), SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	publish := func(name string) uint64 {
		_, _, lsn, err := st.PublishAsync(walAdvert(walGen.New(), name, "Radar", 1, time.Hour), t0)
		if err != nil {
			t.Fatal(err)
		}
		return lsn
	}
	lsn1 := publish("urn:svc:s1")
	if err := w.Sync(lsn1); err != nil {
		t.Fatal(err)
	}
	lsn2 := publish("urn:svc:s2")
	entered, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unstick := func() { releaseOnce.Do(func() { close(release) }) }
	defer unstick() // runs before Close, which waits for the leader
	w.Barrier(lsn2, func(error) { close(entered); <-release })
	<-entered // the leader is now running lsn2's completion
	for _, lsn := range []uint64{lsn1, lsn2} {
		done := make(chan error, 1)
		go func() { done <- w.Sync(lsn) }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Sync(%d) of a durable LSN waited for the leader", lsn)
		}
	}
	lsn3 := publish("urn:svc:s3")
	done := make(chan error, 1)
	go func() { done <- w.Sync(lsn3) }()
	select {
	case err := <-done:
		t.Fatalf("Sync of an unflushed LSN returned %v while the leader was stuck", err)
	case <-time.After(20 * time.Millisecond):
	}
	unstick()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWALSyncAndBarrierMixed runs blocking Syncs, which lead inline when
// no leader is running, beside asynchronous barriers, which start a
// leader goroutine: every record settles durable, every completion runs
// exactly once, and Close leaves nothing pending.
func TestWALSyncAndBarrierMixed(t *testing.T) {
	st, w, _, err := Recover(WALConfig{Dir: t.TempDir(), SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return t0 }})
	if err != nil {
		t.Fatal(err)
	}
	const writers, each = 4, 50
	ids := make([]uuid.UUID, writers*each) // the generator is not safe for concurrent use
	for i := range ids {
		ids[i] = walGen.New()
	}
	var ran sync.WaitGroup
	ran.Add(writers * each)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				adv := walAdvert(ids[g*each+i], fmt.Sprintf("urn:svc:m%d-%d", g, i), "Radar", 1, time.Hour)
				if g%2 == 0 {
					if _, _, err := st.Publish(adv, t0); err != nil {
						t.Error(err)
					}
					ran.Done()
					continue
				}
				_, _, lsn, err := st.PublishAsync(adv, t0)
				if err != nil {
					t.Error(err)
				}
				st.WhenDurable(lsn, func(err error) {
					if err != nil {
						t.Errorf("lsn %d: %v", lsn, err)
					}
					ran.Done()
				})
			}
		}()
	}
	wg.Wait()
	ran.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if n := st.Len(); n != writers*each {
		t.Fatalf("store holds %d adverts, want %d", n, writers*each)
	}
}

// TestRenewAckEarlySurvivesCrash: a renewal acked early survives a
// crash after its commit round with exactly its renewed deadline, and a
// crash before that round with its renewed or its previous durable
// deadline — never a later one, and the advert itself is never lost.
func TestRenewAckEarlySurvivesCrash(t *testing.T) {
	for _, afterRound := range []bool{false, true} {
		name := "before-round"
		if afterRound {
			name = "after-round"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			mk := walFactory(t)
			clock := func() time.Time { return t0 }
			st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			adv := walAdvert(walGen.New(), "urn:svc:renewed", "Radar", 1, time.Minute)
			granted, _, err := st.Publish(adv, t0)
			if err != nil {
				t.Fatal(err)
			}
			prev := t0.Add(granted)
			at := t0.Add(10 * time.Second)
			granted, ok, lsn := st.RenewAsync(adv.ID, at)
			if !ok || lsn != 0 {
				t.Fatalf("renewal of a durable live advert: ok=%v lsn=%d, want an early ack", ok, lsn)
			}
			renewed := at.Add(granted)
			if afterRound {
				awaitAllDurable(t, w)
			}
			w.crash()

			rec, w2, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			got, has := rec.LeaseDeadline(adv.ID)
			switch {
			case !has:
				t.Fatal("the renewed advert was lost in the crash")
			case got.Equal(renewed):
			case got.Equal(prev) && !afterRound:
				t.Log("the crash beat the commit round: previous deadline recovered")
			default:
				t.Fatalf("recovered deadline %v, want %v (renewed) or %v (previous, only before the round)", got, renewed, prev)
			}
		})
	}
}

// awaitAllDurable waits until every record appended to w is durable —
// without registering a barrier of its own, so only barriers someone
// else handed to the group commit can get it there.
func awaitAllDurable(t *testing.T, w *WAL) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		last := w.lsn
		w.mu.Unlock()
		w.cmu.Lock()
		durable := w.durable
		w.cmu.Unlock()
		if durable >= last {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("records up to LSN %d never reached a commit round (durable: %d)", last, durable)
		}
	}
}

// TestKeyMoveFreesOldServiceKey updates advert A (v5, service key K1)
// under its own ID to v6 with K2's payload, which must free K1: a
// fresh-ID publish under K1 at a lower version is then accepted, by the
// live store and by one recovered from a snapshot taken after the move
// alike, and the two stores stay equal.
func TestKeyMoveFreesOldServiceKey(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	nowFn := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, NewStore: mk, Now: nowFn})
	if err != nil {
		t.Fatal(err)
	}
	live := mk() // the same history, kept running without a log
	a, b := uuid.UUID{15: 1}, uuid.UUID{15: 2}
	const k1, k2 = "urn:svc:k1", "urn:svc:k2"
	for _, adv := range []wire.Advertisement{walAdvert(a, k1, "Radar", 5, time.Hour), walAdvert(a, k2, "Radar", 6, time.Hour)} {
		for _, s := range []*Store{st, live} {
			if _, _, err := s.Publish(adv, t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rec, w2, _, err := Recover(WALConfig{Dir: dir, NewStore: mk, Now: nowFn})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	for name, s := range map[string]*Store{"live": live, "recovered": rec} {
		if _, _, err := s.Publish(walAdvert(b, k1, "Radar", 1, time.Hour), t0); err != nil {
			t.Errorf("%s store: fresh-ID publish under the freed key %s at v1: %v", name, k1, err)
		}
	}
	assertStoresEqual(t, live, rec, t0, [][]byte{semQuery("Sensor")})
	if n := len(live.Adverts()); n != 2 {
		t.Errorf("store holds %d adverts, want A under %s and B under %s", n, k2, k1)
	}
}

// TestSnapshotKeepsOneAdvertPerServiceKey replays the history that lost
// a live advert on recovery: under one service key, A v1, B v2 and C v3
// are published (each superseding the last) and then A again at v2.
// The store keeps one advert per key — the highest version, so C v3 —
// and a snapshot taken then recovers to the same store whichever way A
// and C order by ID (the snapshot is written in ID order).
func TestSnapshotKeepsOneAdvertPerServiceKey(t *testing.T) {
	id := func(b byte) uuid.UUID { return uuid.UUID{15: b} }
	for _, order := range []struct {
		name    string
		a, b, c uuid.UUID
	}{
		{"A<B<C", id(1), id(2), id(3)},
		{"C<A<B", id(2), id(3), id(1)},
	} {
		t.Run(order.name, func(t *testing.T) {
			dir := t.TempDir()
			mk := walFactory(t)
			nowFn := func() time.Time { return t0 }
			st, w, _, err := Recover(WALConfig{Dir: dir, NewStore: mk, Now: nowFn})
			if err != nil {
				t.Fatal(err)
			}
			const svc = "urn:svc:history"
			for _, p := range []struct {
				id      uuid.UUID
				version uint64
			}{{order.a, 1}, {order.b, 2}, {order.c, 3}} {
				if _, _, err := st.Publish(walAdvert(p.id, svc, "Radar", p.version, time.Hour), t0); err != nil {
					t.Fatal(err)
				}
			}
			_, _, lastErr := st.Publish(walAdvert(order.a, svc, "Radar", 2, time.Hour), t0)
			if err := w.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rec, w2, _, err := Recover(WALConfig{Dir: dir, NewStore: mk, Now: nowFn})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			assertStoresEqual(t, st, rec, t0, [][]byte{semQuery("Sensor")})
			if !errors.Is(lastErr, ErrStaleVersion) {
				t.Errorf("republishing A at v2 under C v3's key: err = %v, want ErrStaleVersion", lastErr)
			}
			if live := st.Adverts(); len(live) != 1 || live[0].ID != order.c || live[0].Version != 3 {
				t.Errorf("store holds %d adverts for one service key, want only C v3", len(live))
			}
		})
	}
}
