package registry

// Crash states of a preallocated segment: a kill leaves the acked
// frames, at most one torn frame, then the zeros of the preallocated
// tail, and recovery must read that as the end of the log and cut the
// zeros off. Clean seals truncate the tail away. Every case also runs
// with fallocate forced to fail, which must recover the same state from
// segments that grow by appends. `make durable` runs these 20 times
// under -race.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"semdisco/internal/profile"
)

// preallocModes runs fn once with fallocate and once with it failing,
// as on a filesystem without it.
func preallocModes(t *testing.T, fn func(t *testing.T, prealloc bool)) {
	for _, prealloc := range []bool{true, false} {
		name := "fallocate"
		if !prealloc {
			name = "no-fallocate"
		}
		t.Run(name, func(t *testing.T) {
			if !prealloc {
				forceNoPrealloc(t)
			}
			fn(t, prealloc)
		})
	}
}

// forceNoPrealloc makes every preallocation fail until the test ends.
func forceNoPrealloc(t *testing.T) {
	saved := walPreallocate
	walPreallocate = func(*os.File, int64, int64) error { return errors.ErrUnsupported }
	t.Cleanup(func() { walPreallocate = saved })
}

// preallocSupported reports whether this platform and filesystem
// preallocate at all; the no-fallocate expectations hold everywhere.
func preallocSupported(t *testing.T) bool {
	f, err := os.Create(filepath.Join(t.TempDir(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return preallocate(f, 0, 1) == nil
}

// segSize is the on-disk size of the segment whose first LSN is first.
func segSize(t *testing.T, dir string, first uint64) int64 {
	t.Helper()
	info, err := os.Stat(filepath.Join(dir, segName(first)))
	if err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// openWritten is the byte count appended to the open segment so far.
func openWritten(w *WAL) int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// publishN publishes n acked adverts; a positive pad lengthens each
// grounding to pad bytes, so a few records fill a preallocation chunk.
func publishN(t *testing.T, st *Store, n, pad int, now time.Time) {
	t.Helper()
	for i := 0; i < n; i++ {
		svc := fmt.Sprintf("urn:svc:prealloc-%d", i)
		adv := walAdvert(walGen.New(), svc, "Radar", 1, time.Hour)
		if pad > 0 {
			p := &profile.Profile{ServiceIRI: svc, Category: c("Radar"), Grounding: strings.Repeat("g", pad)}
			adv.Payload = p.Encode()
		}
		if _, _, err := st.Publish(adv, now.Add(time.Duration(i)*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
}

var preallocQueries = [][]byte{semQuery("Device"), semQuery("Radar")}

// TestWALPreallocCrash: a kill on a frame boundary loses nothing and
// tears nothing; a kill that leaves half a frame before the zeros
// recovers every complete frame and counts the half as the one torn
// frame. Either way recovery leaves the crashed segment without its
// zeros: the frames, plus the torn half if there is one. On a frame
// boundary the barrier is a real fsync.
func TestWALPreallocCrash(t *testing.T) {
	for _, midFrame := range []bool{false, true} {
		name := "frame-boundary"
		if midFrame {
			name = "mid-frame"
		}
		t.Run(name, func(t *testing.T) {
			preallocModes(t, func(t *testing.T, prealloc bool) {
				dir := t.TempDir()
				mk := walFactory(t)
				clock := func() time.Time { return t0 }
				st, w, _, err := Recover(WALConfig{Dir: dir, Fsync: !midFrame, SnapshotEvery: -1, NewStore: mk, Now: clock})
				if err != nil {
					t.Fatal(err)
				}
				publishN(t, st, 6, 0, t0)
				written := openWritten(w)
				w.crash()

				size := segSize(t, dir, 1)
				switch {
				case prealloc && preallocSupported(t) && size != walPreallocChunk:
					t.Fatalf("crashed segment holds %d bytes, want the %d-byte chunk", size, walPreallocChunk)
				case !prealloc && size != written:
					t.Fatalf("unallocated segment holds %d bytes, want the %d appended", size, written)
				}
				wantTorn, maxSize := 0, written
				if midFrame {
					maxSize += tearAfter(t, filepath.Join(dir, segName(1)), written)
					wantTorn = 1
				}

				rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
				if err != nil {
					t.Fatal(err)
				}
				defer w2.Close()
				if stats.TornFrames != wantTorn || stats.Replayed != 6 {
					t.Fatalf("RecoveryStats = %+v, want 6 replayed and %d torn", stats, wantTorn)
				}
				// The torn half keeps its bytes up to its last non-zero one.
				if size := segSize(t, dir, 1); size < written+int64(wantTorn) || size > maxSize {
					t.Fatalf("recovered segment holds %d bytes, want %d..%d", size, written+int64(wantTorn), maxSize)
				}
				assertStoresEqual(t, st, rec, t0, preallocQueries)
			})
		})
	}
}

// tearAfter writes the first half of the segment's first frame at off,
// where the crash stopped the log: a frame the kill cut short, with
// the segment's zeros (or its end) after it. It returns the half's
// length.
func tearAfter(t *testing.T, seg string, off int64) int64 {
	t.Helper()
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := b[:walFrameHeader+int(leUint32(b))]
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(frame[:len(frame)/2], off); err != nil {
		t.Fatal(err)
	}
	return int64(len(frame) / 2)
}

func leUint32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// TestWALPreallocExtension: a history longer than one chunk extends the
// segment chunk by chunk — not per write — and survives a kill and
// recovery intact.
func TestWALPreallocExtension(t *testing.T) {
	preallocModes(t, func(t *testing.T, prealloc bool) {
		dir := t.TempDir()
		mk := walFactory(t)
		clock := func() time.Time { return t0 }
		before := mWALPreallocExtends.Load()
		st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		// Adverts of ~512 KiB, two more than one chunk holds.
		n := walPreallocChunk/(512<<10) + 2
		publishN(t, st, n, 512<<10, t0)
		written := openWritten(w)
		if written <= walPreallocChunk {
			t.Fatalf("history of %d bytes does not cross the %d-byte chunk", written, walPreallocChunk)
		}
		w.crash()

		extends := mWALPreallocExtends.Load() - before
		size := segSize(t, dir, 1)
		switch {
		case !prealloc:
			if extends != 0 || size != written {
				t.Fatalf("no-fallocate: %d extends, %d bytes on disk; want 0 and %d", extends, size, written)
			}
		case preallocSupported(t):
			chunks := (written + walPreallocChunk - 1) / walPreallocChunk
			if extends != uint64(chunks) || size != chunks*walPreallocChunk {
				t.Fatalf("%d bytes appended: %d extends, %d bytes on disk; want %d chunks", written, extends, size, chunks)
			}
		}

		rec, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		if stats.TornFrames != 0 || stats.Replayed != n {
			t.Fatalf("RecoveryStats = %+v, want %d replayed, none torn", stats, n)
		}
		if size := segSize(t, dir, 1); size != written {
			t.Fatalf("recovered segment holds %d bytes, want the %d appended", size, written)
		}
		assertStoresEqual(t, st, rec, t0, preallocQueries)
	})
}

// TestWALPreallocSealedSize: Close and rotation truncate a segment to
// exactly the bytes appended to it, so a sealed segment holds frames
// and no preallocated zeros.
func TestWALPreallocSealedSize(t *testing.T) {
	preallocModes(t, func(t *testing.T, prealloc bool) {
		t.Run("close", func(t *testing.T) {
			dir := t.TempDir()
			st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: walFactory(t), Now: func() time.Time { return t0 }})
			if err != nil {
				t.Fatal(err)
			}
			before := mWALBytes.Load()
			publishN(t, st, 10, 0, t0)
			appended := int64(mWALBytes.Load() - before)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if size := segSize(t, dir, 1); size != appended {
				t.Fatalf("closed segment holds %d bytes, want the %d appended", size, appended)
			}
		})
		t.Run("rotation", func(t *testing.T) {
			// Compaction's store factory blocks, so the sealed segment is
			// still on disk to measure after the rotation.
			dir := t.TempDir()
			mk := walFactory(t)
			var compacting atomic.Bool
			release := make(chan struct{})
			blocking := func() *Store {
				if compacting.Load() {
					<-release
				}
				return mk()
			}
			st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: 8, NewStore: blocking, Now: func() time.Time { return t0 }})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				close(release) // before Close, which waits for the compaction
				w.Close()
			}()
			compacting.Store(true)
			before := mWALBytes.Load()
			publishN(t, st, 8, 0, t0) // the 8th record seals segment 1
			appended := int64(mWALBytes.Load() - before)
			if size := segSize(t, dir, 1); size != appended {
				t.Fatalf("sealed segment holds %d bytes, want the %d appended", size, appended)
			}
			if size := segSize(t, dir, 9); prealloc && preallocSupported(t) && size != walPreallocChunk {
				t.Fatalf("segment opened by the rotation holds %d bytes, want the %d-byte chunk", size, walPreallocChunk)
			}
		})
	})
}

// TestWALPreallocCrashLoop: a restart loop in which every boot writes
// a little and is killed must not pile up a chunk of zeros per boot —
// each recovery cuts the zeros its predecessor left.
func TestWALPreallocCrashLoop(t *testing.T) {
	preallocModes(t, func(t *testing.T, prealloc bool) {
		dir := t.TempDir()
		mk := walFactory(t)
		clock := func() time.Time { return t0 }
		var appended int64
		for boot := 0; boot < 4; boot++ {
			st, w, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
			if err != nil {
				t.Fatal(err)
			}
			if stats.TornFrames != 0 || stats.Replayed != 3*boot {
				t.Fatalf("boot %d: RecoveryStats = %+v, want %d replayed, none torn", boot, stats, 3*boot)
			}
			for i := 0; i < 3; i++ {
				adv := walAdvert(walGen.New(), fmt.Sprintf("urn:svc:loop-%d-%d", boot, i), "Radar", 1, time.Hour)
				if _, _, err := st.Publish(adv, t0); err != nil {
					t.Fatal(err)
				}
			}
			appended += openWritten(w)
			w.crash()
		}
		_, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		// Four crashed segments of frames only, and the last boot's
		// empty one, closed.
		var total int64
		for boot := 0; boot <= 4; boot++ {
			total += segSize(t, dir, uint64(3*boot+1))
		}
		if total != appended {
			t.Fatalf("segments hold %d bytes after the loop, want the %d appended", total, appended)
		}
	})
}

// TestWALPreallocZeroHeaderMidSegment: zeros are the end of a segment only
// when nothing but zeros follows them. A zero frame header with frames
// after it — corruption, not a preallocated tail — is a torn frame, and
// the segment keeps its bytes.
func TestWALPreallocZeroHeaderMidSegment(t *testing.T) {
	dir := t.TempDir()
	mk := walFactory(t)
	clock := func() time.Time { return t0 }
	st, w, _, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	publishN(t, st, 6, 0, t0)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Zero the third frame's header.
	off := 0
	for i := 0; i < 2; i++ {
		off += walFrameHeader + int(leUint32(b[off:]))
	}
	copy(b[off:off+walFrameHeader], make([]byte, walFrameHeader))
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, w2, stats, err := Recover(WALConfig{Dir: dir, SnapshotEvery: -1, NewStore: mk, Now: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if stats.TornFrames != 1 || stats.Replayed != 2 {
		t.Fatalf("RecoveryStats = %+v, want 2 replayed and 1 torn", stats)
	}
	if size := segSize(t, dir, 1); size != int64(len(b)) {
		t.Fatalf("segment holds %d bytes after recovery, want its %d", size, len(b))
	}
}
