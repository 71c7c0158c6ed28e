package registry

// The WAL backend: an append-only, CRC32-framed log of registry
// mutations with periodic compacted snapshots, implementing the Backend
// boundary declared in store.go.
//
// On-disk layout (all files live in one directory):
//
//	wal-%016x.log    log segment; the hex is the LSN of its first record
//	snap-%016x.snap  compacted snapshot covering every LSN ≤ the hex
//
// Every frame — log record or snapshot entry — is
//
//	[4B LE payload length][4B LE CRC32(payload)][payload]
//
// and every payload starts with a record-type byte followed by the
// record's LSN as a uvarint (0 for snapshot entries). Advertisements
// inside records use wire.AppendAdvert, the exact encoding of the
// protocol messages, so the durable format can never drift from the
// wire format. A torn tail — a frame cut short or failing its CRC —
// marks the end of replayable history: recovery stops there, counts
// the frame in RecoveryStats.TornFrames, and opens a fresh segment
// rather than appending after garbage.
//
// Segments are preallocated in walPreallocChunk steps, so the open
// segment — and one a crash left behind — ends in zeros past its last
// frame. A segment whose frames stop where only zeros remain therefore
// ended cleanly; anything else after the last good frame is a tear.
// Close and rotation truncate a segment to the bytes appended, and
// recovery cuts a crashed segment's zeros off, so only the open
// segment ever carries them.
//
// Recovery is exact state-machine replay: records are re-applied
// through the real Store methods (Publish, Renew, Remove, Subscribe,
// ExpireThrough, ...) with the wall-clock instants recorded at append
// time, so lease deadlines, the byService map, the token interner and
// the subscription posting lists are all rebuilt by the same code that
// built them live. Because expiry sweeps are themselves logged
// (AppendExpire/AppendPruneSubs), purge timing — which decides whether
// a re-publish is a fresh insert or a stale-version reject, and whether
// a late renewal resurrects an advert — replays exactly too. For a
// sequential history the recovered store is bit-identical to the
// pre-crash store; under concurrency the log records one valid
// linearization of the racing operations (per-key order always matches,
// because records are appended under the same lock that ordered the
// mutation).
//
// Snapshots are offline compactions: the writer rotates to a fresh
// segment, then a background goroutine replays the previous snapshot
// plus the sealed segments into a throwaway store built by
// WALConfig.NewStore and dumps its durable state — never touching the
// live store, so publishes proceed at full speed during compaction.

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"semdisco/internal/codec"
	"semdisco/internal/describe"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Record types. recPublish/recSubscribe double as snapshot entry types
// (recSnapAdvert/recSnapSub share their payload layout), so replay and
// snapshot load run through one decoder.
const (
	recPublish byte = iota + 1
	recRenew
	recRemove
	recSubscribe
	recUnsubscribe
	recExpire
	recPruneSubs
	recSnapHeader
	recSnapAdvert
	recSnapSub
	recSnapTrailer
)

const (
	walFrameHeader = 8       // 4B length + 4B CRC32
	walMaxFrame    = 1 << 26 // frames beyond 64 MB are corruption
	snapFormatV1   = 1
	walPrefix      = "wal-"
	walSuffix      = ".log"
	snapPrefix     = "snap-"
	snapSuffix     = ".snap"

	// walPreallocChunk is the step by which a segment's file is
	// preallocated: at open, and again whenever an append would reach
	// past the allocated end. A barrier then never changes the file's
	// size or allocates blocks, so its sync commits the frames and
	// little else. The open segment's unused chunk is the disk cost.
	walPreallocChunk = 4 << 20

	// defaultSnapshotEvery is the record count between compactions when
	// WALConfig.SnapshotEvery is zero: large enough that compaction I/O
	// is rare, small enough that replay after a crash stays in the
	// hundreds of milliseconds.
	defaultSnapshotEvery = 100_000
)

// walPreallocate reserves segment space; a variable so tests can force
// the no-fallocate fallback.
var walPreallocate = preallocate

// ErrWALClosed is returned by appends and syncs after Close (or after a
// simulated crash in tests).
var ErrWALClosed = errors.New("registry: wal closed")

// WALConfig configures Recover.
type WALConfig struct {
	// Dir is the log directory; created if missing. Required.
	Dir string
	// Fsync makes the durability barrier a real fsync; false flushes to
	// the OS only (data survives a process crash but not a machine
	// crash). Group commit batches concurrent barriers either way, and
	// segments are preallocated either way.
	Fsync bool
	// SnapshotEvery is the appended-record count between compacted
	// snapshots; zero means 100k, negative disables snapshots (the log
	// grows without bound — tests only).
	SnapshotEvery int
	// NewStore builds an empty store with the production options
	// (models, lease policy, shard count, ...). Recovery replays into
	// one, and every snapshot compaction replays into a fresh one; the
	// factory must return a store with no backend attached. Required.
	NewStore func() *Store
	// Now supplies the boot wall clock for the post-replay expiry sweep;
	// nil means time.Now. Simulated-clock tests must set it, or the real
	// clock would purge every zero-epoch lease at boot.
	Now func() time.Time
}

// RecoveryStats reports what Recover found and rebuilt.
type RecoveryStats struct {
	SnapshotLSN     uint64        // highest LSN covered by the loaded snapshot (0 = none)
	SnapshotAdverts int           // adverts restored from the snapshot
	SnapshotSubs    int           // standing queries restored from the snapshot
	Replayed        int           // log records applied after the snapshot
	TornFrames      int           // torn/corrupt frames discarded at segment tails
	Adverts         int           // adverts live after replay and the boot expiry sweep
	Subs            int           // standing queries live after replay
	Elapsed         time.Duration // total recovery wall time
}

// WAL is the durable Backend: one instance owns a log directory.
// Construct via Recover; attach to a store only through it.
type WAL struct {
	dir       string
	fsyncOn   bool
	snapEvery int
	newStore  func() *Store

	// mu guards the file state. Append* calls hold it only long enough
	// for a buffered write (the callers hold store locks), so nothing
	// under mu may block on the disk except the group-commit flush and
	// the rare segment rotation.
	mu         sync.Mutex
	f          *os.File
	bw         *bufio.Writer
	written    int64    // bytes appended to the open segment, buffered ones included
	allocated  int64    // preallocated length of the open segment (0 = grows by appends)
	lsn        uint64   // last assigned LSN
	segStart   uint64   // first LSN of the open segment
	sealed     []string // closed segments awaiting compaction, oldest first
	snapPath   string   // current snapshot file ("" = none)
	snapLSN    uint64   // LSN covered by snapPath
	sinceSnap  int      // records appended since the last rotation
	compacting bool
	compactCh  chan struct{} // closed when the in-flight compaction finishes
	appendErr  error         // sticky: once a write fails, durability is gone
	closed     bool

	// Group commit. Barrier queues a completion for LSN n; if no leader
	// is running, one goroutine becomes the leader, flushes+fsyncs
	// everything appended so far and runs every completion that flush
	// covered, in LSN order, looping while completions are queued.
	// Completions queued during a flush ride the next one together —
	// that is the fsync batching. waiters is non-empty only while
	// leading is set.
	cmu     sync.Mutex
	durable uint64
	leading bool
	waiters []barrierWaiter
	batch   []barrierWaiter // the leader's scratch for one round's completions
	syncErr error           // sticky: a failed barrier poisons all later ones

	wg sync.WaitGroup // leaders and compactions; Close waits for both
}

// barrierWaiter is one queued Barrier completion.
type barrierWaiter struct {
	lsn  uint64
	done func(error)
}

// Recover opens (or initializes) a WAL directory, rebuilds a store from
// the newest loadable snapshot plus the log tail, attaches the WAL as
// the store's backend, and runs the boot expiry sweep for everything
// that lapsed while the process was down. The returned store is ready
// to serve; the caller owns Close.
func Recover(cfg WALConfig) (*Store, *WAL, RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	if cfg.Dir == "" {
		return nil, nil, stats, errors.New("registry: WALConfig.Dir is required")
	}
	if cfg.NewStore == nil {
		return nil, nil, stats, errors.New("registry: WALConfig.NewStore is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, stats, fmt.Errorf("registry: wal dir: %w", err)
	}
	snaps, segs, err := scanWALDir(cfg.Dir)
	if err != nil {
		return nil, nil, stats, err
	}

	// Newest snapshot that loads cleanly wins; a corrupt one falls back
	// to its predecessor (the extra log replay reproduces the gap).
	st := cfg.NewStore()
	if st == nil || st.backend != nil {
		return nil, nil, stats, errors.New("registry: NewStore must build a backend-less store")
	}
	var snapPath string
	var snapLSN uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		trial := cfg.NewStore()
		lsn, nAdv, nSub, err := loadSnapshot(trial, snaps[i].path)
		if err != nil {
			trial.discardOffline()
			continue
		}
		st.discardOffline()
		st, snapPath, snapLSN = trial, snaps[i].path, lsn
		stats.SnapshotLSN = lsn
		stats.SnapshotAdverts = nAdv
		stats.SnapshotSubs = nSub
		break
	}

	// Replay the log tail in LSN order: segments are named by their
	// first LSN, so directory order is log order. A torn frame ends one
	// segment's replayable records (nothing valid ever follows a torn
	// frame within a segment — writes are sequential), but later
	// segments still replay: a restart after a crash leaves the torn
	// segment behind and appends to a fresh one after it.
	last := snapLSN
	for _, seg := range segs {
		segLast, applied, torn, err := replaySegment(st, seg.path, snapLSN)
		if err != nil {
			st.discardOffline()
			return nil, nil, stats, fmt.Errorf("registry: replay %s: %w", filepath.Base(seg.path), err)
		}
		stats.Replayed += applied
		stats.TornFrames += torn
		if segLast > last {
			last = segLast
		}
	}
	mWALReplayed.Add(uint64(stats.Replayed))
	mWALTorn.Add(uint64(stats.TornFrames))

	w := &WAL{
		dir:       cfg.Dir,
		fsyncOn:   cfg.Fsync,
		snapEvery: cfg.SnapshotEvery,
		newStore:  cfg.NewStore,
		snapPath:  snapPath,
		snapLSN:   snapLSN,
		lsn:       last,
		durable:   last,
	}
	if w.snapEvery == 0 {
		w.snapEvery = defaultSnapshotEvery
	}
	for _, seg := range segs {
		w.sealed = append(w.sealed, seg.path)
	}
	// Replayed-but-uncompacted records count against the snapshot
	// budget, so a crash loop can't grow the log without bound.
	w.sinceSnap = stats.Replayed
	if err := w.openSegmentLocked(last + 1); err != nil {
		st.discardOffline()
		return nil, nil, stats, err
	}

	// The store is current as of the crash; everything that lapsed while
	// the process was down is purged now — through the log, so a later
	// re-publish replays as the fresh insert it was.
	st.backend = w
	now := time.Now()
	if cfg.Now != nil {
		now = cfg.Now()
	}
	st.ExpireThrough(now)
	st.PruneSubscriptions(now)

	stats.Adverts = st.Len()
	stats.Subs = st.NumSubscriptions()
	stats.Elapsed = time.Since(start)
	return st, w, stats, nil
}

// namedLSN is one directory entry parsed from its hex-LSN file name.
type namedLSN struct {
	path string
	lsn  uint64
}

// scanWALDir lists snapshots and segments sorted by LSN, ignoring
// temp files and anything it did not name itself.
func scanWALDir(dir string) (snaps, segs []namedLSN, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("registry: wal dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if hex, ok := cutAffixes(name, walPrefix, walSuffix); ok {
			if lsn, err := strconv.ParseUint(hex, 16, 64); err == nil {
				segs = append(segs, namedLSN{path: filepath.Join(dir, name), lsn: lsn})
			}
		} else if hex, ok := cutAffixes(name, snapPrefix, snapSuffix); ok {
			if lsn, err := strconv.ParseUint(hex, 16, 64); err == nil {
				snaps = append(snaps, namedLSN{path: filepath.Join(dir, name), lsn: lsn})
			}
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lsn < snaps[j].lsn })
	sort.Slice(segs, func(i, j int) bool { return segs[i].lsn < segs[j].lsn })
	return snaps, segs, nil
}

func cutAffixes(s, prefix, suffix string) (string, bool) {
	rest, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return "", false
	}
	return strings.CutSuffix(rest, suffix)
}

func segName(firstLSN uint64) string { return fmt.Sprintf("%s%016x%s", walPrefix, firstLSN, walSuffix) }
func snapName(upTo uint64) string    { return fmt.Sprintf("%s%016x%s", snapPrefix, upTo, snapSuffix) }

// openSegmentLocked starts a fresh segment whose first record will be
// firstLSN. O_TRUNC handles the one legal collision: a segment created
// by a previous run that crashed before writing any complete frame.
// The first chunk is preallocated before the directory is synced:
// POSIX does not promise that fsyncing a file persists its directory
// entry, so without it the acked records of a fresh segment could
// vanish with the segment's name after a power loss.
func (w *WAL) openSegmentLocked(firstLSN uint64) error {
	f, err := os.OpenFile(filepath.Join(w.dir, segName(firstLSN)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("registry: wal segment: %w", err)
	}
	w.f = f
	w.written, w.allocated = 0, 0
	w.extendLocked(walPreallocChunk)
	syncDir(w.dir)
	w.bw = bufio.NewWriterSize(f, 1<<16)
	w.segStart = firstLSN
	mWALSegments.Set(int64(len(w.sealed) + 1))
	return nil
}

// extendLocked preallocates whole chunks until the open segment holds
// need bytes. Where fallocate is missing or fails, the segment grows by
// appends from there on, as an unallocated one does (a full disk is
// then the writes' error to report). The caller holds w.mu.
func (w *WAL) extendLocked(need int64) {
	for w.allocated < need {
		if err := walPreallocate(w.f, w.allocated, walPreallocChunk); err != nil {
			w.allocated = 0
			return
		}
		w.allocated += walPreallocChunk
		mWALPreallocExtends.Inc()
	}
}

// append assigns the next LSN and buffers one framed record; build
// writes the payload (type byte, LSN, fields). The caller holds the
// store lock that ordered the mutation, so log order equals apply
// order per key; nothing here may touch the disk beyond bufio, save
// the fallocate that extends the segment once per walPreallocChunk
// bytes (and a rotation once per snapshot interval).
func (w *WAL) append(build func(lsn uint64, b *codec.Buffer)) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.lsn++
	lsn := w.lsn
	if w.closed {
		if w.appendErr == nil {
			w.appendErr = ErrWALClosed
		}
		return lsn
	}
	b := walBufPool.Get().(*codec.Buffer)
	b.Reset()
	build(lsn, b)
	payload := b.Bytes()
	var hdr [walFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	n := int64(walFrameHeader + len(payload))
	// Extending here, before the frame enters the buffer, keeps every
	// byte bufio may write — on a barrier's flush or when the buffer
	// fills — inside the allocation.
	if w.allocated > 0 && w.written+n > w.allocated {
		w.extendLocked(w.written + n)
	}
	w.written += n
	if w.appendErr == nil {
		if _, err := w.bw.Write(hdr[:]); err != nil {
			w.appendErr = err
		}
	}
	if w.appendErr == nil {
		if _, err := w.bw.Write(payload); err != nil {
			w.appendErr = err
		}
	}
	mWALAppends.Inc()
	mWALBytes.Add(uint64(n))
	walBufPool.Put(b)
	w.sinceSnap++
	if w.snapEvery > 0 && w.sinceSnap >= w.snapEvery && !w.compacting && w.appendErr == nil {
		w.rotateAndCompactLocked()
	}
	return lsn
}

var walBufPool = sync.Pool{New: func() any { return new(codec.Buffer) }}

// AppendPublish implements Backend.
func (w *WAL) AppendPublish(adv wire.Advertisement, granted time.Duration, now time.Time) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		putAdvertRecord(b, recPublish, lsn, adv, granted, now)
	})
}

// AppendRenew implements Backend.
func (w *WAL) AppendRenew(id uuid.UUID, now time.Time) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		b.Byte(recRenew)
		b.Uvarint(lsn)
		b.Bytes16(id)
		b.Varint(now.UnixNano())
	})
}

// AppendRemove implements Backend.
func (w *WAL) AppendRemove(id uuid.UUID) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		b.Byte(recRemove)
		b.Uvarint(lsn)
		b.Bytes16(id)
	})
}

// AppendSubscribe implements Backend.
func (w *WAL) AppendSubscribe(id uuid.UUID, kind describe.Kind, payload []byte, notifyAddr string, expires time.Time) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		putSubRecord(b, recSubscribe, lsn, id, kind, payload, notifyAddr, expires)
	})
}

// AppendUnsubscribe implements Backend.
func (w *WAL) AppendUnsubscribe(id uuid.UUID) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		b.Byte(recUnsubscribe)
		b.Uvarint(lsn)
		b.Bytes16(id)
	})
}

// AppendExpire implements Backend.
func (w *WAL) AppendExpire(through time.Time) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		b.Byte(recExpire)
		b.Uvarint(lsn)
		b.Varint(through.UnixNano())
	})
}

// AppendPruneSubs implements Backend.
func (w *WAL) AppendPruneSubs(now time.Time) uint64 {
	return w.append(func(lsn uint64, b *codec.Buffer) {
		b.Byte(recPruneSubs)
		b.Uvarint(lsn)
		b.Varint(now.UnixNano())
	})
}

// putAdvertRecord encodes a publish-shaped record (also the snapshot
// advert entry). The granted duration and instant let replay re-grant
// the exact absolute lease deadline.
func putAdvertRecord(b *codec.Buffer, typ byte, lsn uint64, adv wire.Advertisement, granted time.Duration, now time.Time) {
	b.Byte(typ)
	b.Uvarint(lsn)
	wire.AppendAdvert(b, adv)
	b.Uvarint(uint64(granted / time.Millisecond))
	b.Varint(now.UnixNano())
}

// putSubRecord encodes a subscribe-shaped record (also the snapshot
// subscription entry). The zero expires time (no expiry) is carried by
// the presence flag — it has no representable UnixNano.
func putSubRecord(b *codec.Buffer, typ byte, lsn uint64, id uuid.UUID, kind describe.Kind, payload []byte, notifyAddr string, expires time.Time) {
	b.Byte(typ)
	b.Uvarint(lsn)
	b.Bytes16(id)
	b.Byte(byte(kind))
	b.BytesVar(payload)
	b.String(notifyAddr)
	b.Bool(!expires.IsZero())
	if !expires.IsZero() {
		b.Varint(expires.UnixNano())
	}
}

// Barrier implements Backend. With no leader running, a completion
// whose LSN is already durable (or can no longer become durable) runs
// on the caller's goroutine; otherwise it is queued, and the first
// queued completion starts a leader goroutine — one per burst of
// barriers, never one per write.
func (w *WAL) Barrier(lsn uint64, done func(error)) {
	w.cmu.Lock()
	if !w.leading && (w.durable >= lsn || w.syncErr != nil) {
		err := w.barrierErrLocked(lsn)
		w.cmu.Unlock()
		done(err)
		return
	}
	if w.joinLocked(lsn, done) {
		go w.lead()
	}
}

// Sync implements Backend: the barrier for lsn plus the wait. An LSN
// already settled returns at once, even while a leader is flushing
// later records. A caller that finds no leader leads inline until its
// own completion has run, then hands whatever is still queued to a
// leader goroutine: a sequential writer thus pays no goroutine start
// and no hand-off per barrier.
func (w *WAL) Sync(lsn uint64) error {
	w.cmu.Lock()
	if w.durable >= lsn || w.syncErr != nil {
		err := w.barrierErrLocked(lsn)
		w.cmu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	if !w.joinLocked(lsn, func(err error) { ch <- err }) {
		return <-ch
	}
	for {
		// Our completion stays queued until it runs, so round cannot
		// step down before ch is filled.
		w.round()
		select {
		case err := <-ch:
			w.handOff()
			return err
		default:
		}
	}
}

// joinLocked queues done for lsn and releases cmu, which the caller
// holds. It reports whether the caller became the leader; a new leader
// holds one wg count until it steps down.
func (w *WAL) joinLocked(lsn uint64, done func(error)) bool {
	w.waiters = append(w.waiters, barrierWaiter{lsn: lsn, done: done})
	lead := !w.leading
	if lead {
		w.leading = true
		w.wg.Add(1)
	}
	w.cmu.Unlock()
	return lead
}

// barrierErrLocked is a settled barrier's outcome: nil once lsn is
// durable, the sticky error otherwise. The caller holds cmu.
func (w *WAL) barrierErrLocked(lsn uint64) error {
	if w.durable >= lsn {
		return nil
	}
	return w.syncErr
}

// lead is the group-commit leader goroutine: it runs rounds until
// nothing is queued.
func (w *WAL) lead() {
	defer w.wg.Done()
	for w.round() {
	}
}

// handOff ends an inline leader's turn: anything still queued passes to
// a leader goroutine, which inherits the caller's wg count.
func (w *WAL) handOff() {
	w.cmu.Lock()
	if len(w.waiters) > 0 {
		w.cmu.Unlock()
		go w.lead()
		return
	}
	w.leading = false
	w.cmu.Unlock()
	w.wg.Done()
}

// round is one step of the leader. With nothing queued it steps down
// and reports false. Otherwise it runs, in LSN order, every queued
// completion the durable watermark already settles or, when none is,
// issues one flush+fsync and runs every completion that settled.
// Records appended while a flush is in flight — and the completions
// queued for them — all ride the next flush.
func (w *WAL) round() bool {
	w.cmu.Lock()
	ready, flushed := w.settledLocked(), false
	if len(ready) == 0 {
		if len(w.waiters) == 0 {
			w.leading = false
			w.cmu.Unlock()
			return false
		}
		w.cmu.Unlock()
		target, err := w.flushBarrier()
		w.cmu.Lock()
		if err != nil {
			if w.syncErr == nil {
				w.syncErr = err
			}
		} else if target > w.durable {
			w.durable = target
		}
		ready, flushed = w.settledLocked(), true
	}
	durable, syncErr := w.durable, w.syncErr
	w.cmu.Unlock()
	slices.SortFunc(ready, func(a, b barrierWaiter) int { return cmp.Compare(a.lsn, b.lsn) })
	// Every completion a flush settles beyond the one it was issued
	// for rode along: that is the group-commit saving.
	if shared := len(ready); shared > 0 {
		if flushed {
			shared--
		}
		mWALSyncShared.Add(uint64(shared))
	}
	for _, wt := range ready {
		if durable >= wt.lsn {
			wt.done(nil)
		} else {
			wt.done(syncErr)
		}
	}
	clear(ready)
	w.batch = ready // only the one running leader touches batch
	return true
}

// settledLocked moves every queued completion the durable watermark
// (or the sticky error) settles out of waiters, into the leader's
// batch, and returns them. The caller holds cmu.
func (w *WAL) settledLocked() []barrierWaiter {
	ready := w.batch[:0]
	kept := w.waiters[:0]
	for _, wt := range w.waiters {
		if w.durable >= wt.lsn || w.syncErr != nil {
			ready = append(ready, wt)
		} else {
			kept = append(kept, wt)
		}
	}
	clear(w.waiters[len(kept):]) // drop the moved completions' closures
	w.waiters = kept
	return ready
}

// flushBarrier pushes everything appended so far to the disk and
// returns the highest LSN it made durable. Only the bufio flush runs
// under the append lock; the fsync does not — later appends land in
// the bufio buffer, not the descriptor, so they cannot extend what
// this barrier persists, and publishers keep appending while the disk
// syncs. That overlap is what lets group commit batch them.
func (w *WAL) flushBarrier() (uint64, error) {
	w.mu.Lock()
	if w.appendErr != nil {
		w.mu.Unlock()
		return 0, w.appendErr
	}
	target := w.lsn
	if err := w.bw.Flush(); err != nil {
		w.appendErr = err
		w.mu.Unlock()
		return 0, err
	}
	f := w.f
	w.mu.Unlock()
	if w.fsyncOn {
		start := time.Now()
		if err := f.Sync(); err != nil {
			// Losing the race to a concurrent seal is benign: rotation
			// and Close both fsync the segment before closing it, so
			// the flushed records are durable, not lost. (A simulated
			// crash closes without syncing, but by then the flush above
			// already reached the descriptor, which is all a process
			// kill preserves anyway.)
			if !errors.Is(err, os.ErrClosed) {
				w.mu.Lock()
				w.appendErr = err
				w.mu.Unlock()
				return 0, err
			}
		} else {
			mWALFsyncLatency.Observe(time.Since(start).Microseconds())
		}
	}
	mWALFsyncs.Inc()
	return target, nil
}

// rotateAndCompactLocked seals the open segment and kicks off a
// background compaction covering everything up to the last appended
// LSN. The caller holds w.mu; at most one compaction runs at a time.
func (w *WAL) rotateAndCompactLocked() {
	if err := w.sealLocked(); err != nil {
		w.appendErr = err
		return
	}
	w.sealed = append(w.sealed, filepath.Join(w.dir, segName(w.segStart)))
	upTo := w.lsn
	if err := w.openSegmentLocked(upTo + 1); err != nil {
		w.appendErr = err
		return
	}
	w.sinceSnap = 0
	// Everything in the sealed segments is on the disk now, so the
	// durable watermark may advance past them; a running leader settles
	// the completions it covers on its next round.
	w.cmu.Lock()
	if upTo > w.durable {
		w.durable = upTo
	}
	w.cmu.Unlock()
	w.compacting = true
	w.compactCh = make(chan struct{})
	prevSnap, sealed, done := w.snapPath, append([]string(nil), w.sealed...), w.compactCh
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		defer close(done)
		w.compact(prevSnap, sealed, upTo)
	}()
}

// sealLocked flushes the open segment, truncates its preallocated tail
// so the file holds exactly the appended frames, fsyncs and closes it.
// The caller holds w.mu.
func (w *WAL) sealLocked() error {
	err := w.bw.Flush()
	if err == nil && w.allocated > 0 {
		err = w.f.Truncate(w.written)
	}
	if err == nil {
		err = w.f.Sync()
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// compact replays prevSnap + the sealed segments into a throwaway
// store, writes the compacted snapshot, and retires the inputs. It
// runs without any live-store or WAL lock; a failure keeps every input
// file for the next attempt.
func (w *WAL) compact(prevSnap string, sealed []string, upTo uint64) {
	st := w.newStore()
	defer st.discardOffline()
	var base uint64
	if prevSnap != "" {
		lsn, _, _, err := loadSnapshot(st, prevSnap)
		if err != nil {
			w.compactFailed()
			return
		}
		base = lsn
	}
	for _, seg := range sealed {
		// Torn tails are tolerated exactly as recovery tolerates them: a
		// segment inherited from a crashed run keeps its torn frame, and
		// the records it lost were never acknowledged.
		if _, _, _, err := replaySegment(st, seg, base); err != nil {
			w.compactFailed()
			return
		}
	}
	path, size, nAdv, err := writeSnapshot(w.dir, st, upTo)
	if err != nil {
		w.compactFailed()
		return
	}
	for _, seg := range sealed {
		os.Remove(seg)
	}
	if prevSnap != "" && prevSnap != path {
		os.Remove(prevSnap)
	}
	w.mu.Lock()
	w.snapPath = path
	w.snapLSN = upTo
	w.sealed = w.sealed[len(sealed):]
	w.compacting = false
	mWALSegments.Set(int64(len(w.sealed) + 1))
	w.mu.Unlock()
	mSnapshotWrites.Inc()
	mSnapshotAdverts.Set(int64(nAdv))
	mSnapshotBytes.Set(size)
}

func (w *WAL) compactFailed() {
	mSnapshotErrors.Inc()
	w.mu.Lock()
	w.compacting = false
	w.mu.Unlock()
}

// Snapshot forces a synchronous rotate-and-compact; registryd calls it
// on clean shutdown and the recovery benchmarks use it to stage the
// snapshot-present case. It waits out any compaction already in
// flight.
func (w *WAL) Snapshot() error {
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return ErrWALClosed
		}
		if w.appendErr != nil {
			err := w.appendErr
			w.mu.Unlock()
			return err
		}
		if !w.compacting {
			break
		}
		ch := w.compactCh
		w.mu.Unlock()
		<-ch
	}
	if w.lsn <= w.snapLSN && len(w.sealed) == 0 {
		w.mu.Unlock()
		return nil // nothing new since the last snapshot
	}
	upTo := w.lsn
	w.rotateAndCompactLocked()
	err := w.appendErr
	ch := w.compactCh
	compacting := w.compacting
	w.mu.Unlock()
	if err != nil {
		return err
	}
	if compacting {
		<-ch
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snapLSN < upTo {
		return errors.New("registry: snapshot compaction failed")
	}
	return nil
}

// Close seals the open segment (flush, truncate, fsync, close), then
// settles every pending Barrier completion — durable, or failed with
// the close error — before returning. Mutating the store after Close
// loses those mutations' records (appends and barriers fail sticky
// with ErrWALClosed).
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.wg.Wait()
		return nil
	}
	w.closed = true
	err := w.appendErr
	if w.bw != nil {
		if e := w.sealLocked(); err == nil {
			err = e
		}
	}
	lsn := w.lsn
	w.mu.Unlock()
	// A running leader settles what is still queued; a sticky error
	// keeps any later Barrier from starting one.
	w.cmu.Lock()
	if w.syncErr == nil {
		if err == nil {
			w.durable = lsn
			w.syncErr = ErrWALClosed
		} else {
			w.syncErr = err
		}
	}
	w.cmu.Unlock()
	w.wg.Wait()
	return err
}

// crash simulates a process kill for tests: the descriptor is closed
// with the bufio buffer unflushed and the segment's preallocated zeros
// left in place, losing exactly the records a real crash would lose
// (including, possibly, a partially flushed frame — the torn tail
// recovery must tolerate).
func (w *WAL) crash() {
	w.mu.Lock()
	w.closed = true
	if w.appendErr == nil {
		w.appendErr = ErrWALClosed
	}
	if w.f != nil {
		w.f.Close()
	}
	w.mu.Unlock()
	w.cmu.Lock()
	if w.syncErr == nil {
		w.syncErr = ErrWALClosed
	}
	w.cmu.Unlock()
	w.wg.Wait()
}

// replaySegment applies every record with LSN > after to st, in log
// order. A segment's frames end at the end of the file, or where only
// zeros remain: the preallocated tail of a segment a crash left open,
// which is cut off here so it costs no disk after the boot that finds
// it. Any other bytes after the last good frame — a short frame, a CRC
// mismatch, a zero header with data after it — are a torn tail, which
// ends the segment without error and stays on disk; corruption inside
// a CRC-valid frame is a real error.
func replaySegment(st *Store, path string, after uint64) (last uint64, applied, torn int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var off int64 // end of the last good frame
	for {
		frame, terr, rerr := readFrame(br)
		if rerr == io.EOF {
			return last, applied, torn, nil
		}
		if terr {
			end, size, err := dataEnd(f, off)
			if err != nil {
				return last, applied, torn, err
			}
			if end > off {
				torn++
			}
			if end < size {
				// Only zeros go; a failed cut leaves them to read the
				// same way at the next boot.
				_ = os.Truncate(path, end)
			}
			return last, applied, torn, nil
		}
		if rerr != nil {
			return last, applied, torn, rerr
		}
		off += int64(walFrameHeader + len(frame))
		lsn, aerr := st.applyRecord(frame, after)
		if aerr != nil {
			return last, applied, torn, fmt.Errorf("lsn %d: %w", lsn, aerr)
		}
		if lsn > last {
			last = lsn
		}
		if lsn > after {
			applied++
		}
	}
}

// dataEnd returns the offset just past the last non-zero byte of f at
// or after off (off itself when only zeros follow), and f's size.
func dataEnd(f *os.File, off int64) (end, size int64, err error) {
	buf := make([]byte, 64<<10)
	end = off
	for pos := off; ; {
		n, rerr := f.ReadAt(buf, pos)
		for i := n - 1; i >= 0; i-- {
			if buf[i] != 0 {
				end = pos + int64(i) + 1
				break
			}
		}
		pos += int64(n)
		if rerr == io.EOF {
			return end, pos, nil
		}
		if rerr != nil {
			return 0, 0, rerr
		}
	}
}

// readFrame reads one length+CRC framed payload. torn=true flags a
// frame cut short or failing its checksum — the crash signature — or
// the zero header that starts a preallocated tail; replaySegment tells
// the two apart.
func readFrame(br *bufio.Reader) (frame []byte, torn bool, err error) {
	var hdr [walFrameHeader]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, false, io.EOF
		}
		return nil, true, nil // header cut short
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	sum := binary.LittleEndian.Uint32(hdr[4:8])
	if n == 0 || n > walMaxFrame {
		return nil, true, nil // garbage length: treat as torn
	}
	frame = make([]byte, n)
	if _, err := io.ReadFull(br, frame); err != nil {
		return nil, true, nil // payload cut short
	}
	if crc32.ChecksumIEEE(frame) != sum {
		return nil, true, nil
	}
	return frame, false, nil
}

// applyRecord replays one decoded frame through the real store
// mutation methods, skipping records at or below the after watermark
// (already covered by the snapshot). Stale-version publishes and
// renews/removes of unknown IDs are tolerated: under concurrency the
// log is one valid linearization and such records are no-ops in it. A
// publish whose payload the models now reject is skipped, logged and
// counted, so a stricter decoder never leaves an old log unbootable.
func (s *Store) applyRecord(frame []byte, after uint64) (uint64, error) {
	r := codec.NewReader(frame)
	typ, err := r.Byte()
	if err != nil {
		return 0, err
	}
	lsn, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if typ != recSnapAdvert && typ != recSnapSub && lsn <= after {
		return lsn, nil
	}
	switch typ {
	case recPublish, recSnapAdvert:
		adv, err := wire.ReadAdvert(r)
		if err != nil {
			return lsn, err
		}
		if _, err := r.Uvarint(); err != nil { // granted ms: forensic only
			return lsn, err
		}
		nano, err := r.Varint()
		if err != nil {
			return lsn, err
		}
		switch _, _, err := s.Publish(adv, time.Unix(0, nano)); {
		case errors.Is(err, ErrBadPayload):
			// The models reject what an older build accepted and logged.
			// Soft state covers the loss: the service re-publishes within
			// one lease.
			mWALRecoverRejected.Inc()
			log.Printf("registry: recovery skips advert %v (lsn %d): %v", adv.ID, lsn, err)
		case err != nil && !errors.Is(err, ErrStaleVersion):
			return lsn, err
		}
	case recRenew:
		id, err := r.Bytes16()
		if err != nil {
			return lsn, err
		}
		nano, err := r.Varint()
		if err != nil {
			return lsn, err
		}
		s.Renew(uuid.UUID(id), time.Unix(0, nano))
	case recRemove:
		id, err := r.Bytes16()
		if err != nil {
			return lsn, err
		}
		s.Remove(uuid.UUID(id))
	case recSubscribe, recSnapSub:
		id, err := r.Bytes16()
		if err != nil {
			return lsn, err
		}
		kind, err := r.Byte()
		if err != nil {
			return lsn, err
		}
		payload, err := r.BytesVar()
		if err != nil {
			return lsn, err
		}
		notify, err := r.String()
		if err != nil {
			return lsn, err
		}
		hasExp, err := r.Bool()
		if err != nil {
			return lsn, err
		}
		var expires time.Time
		if hasExp {
			nano, err := r.Varint()
			if err != nil {
				return lsn, err
			}
			expires = time.Unix(0, nano)
		}
		if _, err := s.Subscribe(describe.Kind(kind), payload, notify, uuid.UUID(id), expires); err != nil {
			return lsn, err
		}
	case recUnsubscribe:
		id, err := r.Bytes16()
		if err != nil {
			return lsn, err
		}
		s.Unsubscribe(uuid.UUID(id))
	case recExpire:
		nano, err := r.Varint()
		if err != nil {
			return lsn, err
		}
		s.ExpireThrough(time.Unix(0, nano))
	case recPruneSubs:
		nano, err := r.Varint()
		if err != nil {
			return lsn, err
		}
		s.PruneSubscriptions(time.Unix(0, nano))
	default:
		return lsn, fmt.Errorf("unknown record type %d", typ)
	}
	return lsn, nil
}

// loadSnapshot restores a compacted snapshot into an empty store and
// returns the LSN it covers. Any framing, count or decode mismatch is
// an error — the caller falls back to an older snapshot.
func loadSnapshot(st *Store, path string) (lsn uint64, nAdv, nSub int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	frame, torn, err := readFrame(br)
	if torn || err != nil {
		return 0, 0, 0, fmt.Errorf("registry: snapshot %s: bad header", filepath.Base(path))
	}
	r := codec.NewReader(frame)
	typ, _ := r.Byte()
	if _, err := r.Uvarint(); err != nil || typ != recSnapHeader {
		return 0, 0, 0, fmt.Errorf("registry: snapshot %s: bad header", filepath.Base(path))
	}
	version, err := r.Uvarint()
	if err != nil || version != snapFormatV1 {
		return 0, 0, 0, fmt.Errorf("registry: snapshot %s: unsupported format", filepath.Base(path))
	}
	lsn, err = r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	wantAdv, err := r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	wantSub, err := r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	total := 0
	for {
		frame, torn, err := readFrame(br)
		if err == io.EOF {
			return 0, 0, 0, fmt.Errorf("registry: snapshot %s: missing trailer", filepath.Base(path))
		}
		if torn || err != nil {
			return 0, 0, 0, fmt.Errorf("registry: snapshot %s: torn entry", filepath.Base(path))
		}
		if frame[0] == recSnapTrailer {
			r := codec.NewReader(frame)
			r.Byte()
			r.Uvarint()
			count, err := r.Uvarint()
			if err != nil || count != uint64(total) || uint64(nAdv) != wantAdv || uint64(nSub) != wantSub {
				return 0, 0, 0, fmt.Errorf("registry: snapshot %s: entry count mismatch", filepath.Base(path))
			}
			return lsn, nAdv, nSub, nil
		}
		switch frame[0] {
		case recSnapAdvert:
			nAdv++
		case recSnapSub:
			nSub++
		default:
			return 0, 0, 0, fmt.Errorf("registry: snapshot %s: unexpected record type %d", filepath.Base(path), frame[0])
		}
		if _, err := st.applyRecord(frame, 0); err != nil {
			return 0, 0, 0, err
		}
		total++
	}
}

// writeSnapshot dumps the store's durable state — including
// expired-but-unpurged entries, whose purge records are still in the
// log tail — to snap-<upTo>.snap via tmp+fsync+rename, so a crash
// mid-write can never shadow the previous snapshot.
func writeSnapshot(dir string, st *Store, upTo uint64) (path string, size int64, nAdv int, err error) {
	path = filepath.Join(dir, snapName(upTo))
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, 0, err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	bw := bufio.NewWriterSize(f, 1<<20)
	advs := st.durableAdverts()
	subs := st.durableSubs()
	var b codec.Buffer
	writeFrame := func() error {
		payload := b.Bytes()
		var hdr [walFrameHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		_, err := bw.Write(payload)
		return err
	}
	b.Byte(recSnapHeader)
	b.Uvarint(0)
	b.Uvarint(snapFormatV1)
	b.Uvarint(upTo)
	b.Uvarint(uint64(len(advs)))
	b.Uvarint(uint64(len(subs)))
	if err = writeFrame(); err != nil {
		return "", 0, 0, err
	}
	for _, a := range advs {
		b.Reset()
		// The synthetic grant instant reconstructs the exact absolute
		// deadline on load: replay grants Clamp(LeaseMillis) from it.
		granted := st.leasePolicy.Clamp(time.Duration(a.adv.LeaseMillis) * time.Millisecond)
		putAdvertRecord(&b, recSnapAdvert, 0, a.adv, granted, a.expires.Add(-granted))
		if err = writeFrame(); err != nil {
			return "", 0, 0, err
		}
	}
	for _, sub := range subs {
		b.Reset()
		putSubRecord(&b, recSnapSub, 0, sub.id, sub.kind, sub.payload, sub.notify, sub.expires)
		if err = writeFrame(); err != nil {
			return "", 0, 0, err
		}
	}
	b.Reset()
	b.Byte(recSnapTrailer)
	b.Uvarint(0)
	b.Uvarint(uint64(len(advs) + len(subs)))
	if err = writeFrame(); err != nil {
		return "", 0, 0, err
	}
	if err = bw.Flush(); err != nil {
		return "", 0, 0, err
	}
	if err = f.Sync(); err != nil {
		return "", 0, 0, err
	}
	if err = f.Close(); err != nil {
		return "", 0, 0, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return "", 0, 0, err
	}
	syncDir(dir) // make the rename itself durable
	info, err := os.Stat(path)
	if err != nil {
		return "", 0, 0, err
	}
	return path, info.Size(), len(advs), nil
}

// syncDir fsyncs a directory so the entries just created or renamed in
// it survive a power loss; best effort where the platform refuses
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// snapAdvert is one advert entry of a snapshot dump: the advertisement
// plus its absolute lease deadline.
type snapAdvert struct {
	adv     wire.Advertisement
	expires time.Time
}

// snapSub is one standing-query entry of a snapshot dump.
type snapSub struct {
	id      uuid.UUID
	kind    describe.Kind
	payload []byte
	notify  string
	expires time.Time
}

// durableAdverts snapshots every stored advert with its lease deadline,
// sorted by ID for deterministic snapshot bytes. Only compaction's
// offline stores call it; nothing contends for the shard locks.
func (s *Store) durableAdverts() []snapAdvert {
	out := make([]snapAdvert, 0, s.Len())
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, st := range sh.adverts {
			out = append(out, snapAdvert{adv: st.advert, expires: st.expires})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return uuid.Compare(out[i].adv.ID, out[j].adv.ID) < 0 })
	return out
}

// durableSubs snapshots every live standing query in insertion order —
// the notification order, which the snapshot must preserve.
func (s *Store) durableSubs() []snapSub {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	out := make([]snapSub, 0, len(s.subs))
	for _, sub := range s.subsArr {
		if sub == nil || sub.removed {
			continue
		}
		out = append(out, snapSub{
			id: sub.id, kind: sub.kind, payload: sub.payload,
			notify: sub.notify, expires: sub.expires,
		})
	}
	return out
}

// discardOffline retires a replay/compaction store that will never
// serve traffic, rolling its contribution out of the process-wide
// gauges (registry.adverts, arena and interner levels) so offline
// replays don't inflate what a live registry reports. Counters are
// left alone: replay work is work the process really did.
func (s *Store) discardOffline() {
	s.countAdd(-s.count.Load())
	for _, sh := range s.shards {
		mArenaSlabs.Add(-int64(len(sh.slabs)))
		mArenaFree.Add(-int64(len(sh.free)))
	}
	mTokensInterned.Add(-int64(s.toks.size()))
	if s.subidx != nil {
		mSubIndexSize.Add(-int64(s.subidx.entries))
	}
}
