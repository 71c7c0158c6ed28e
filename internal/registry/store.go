package registry

// The pluggable durability boundary of the store. The registry keeps
// its working state in memory regardless of backend — shard arenas,
// token interner, indexes, lease tables — and the backend decides what
// survives a process death:
//
//   - memory (Options.Backend == nil): nothing is persisted; a restart
//     comes back empty and relies on providers re-announcing. This is
//     the classic SLP/Jini soft-state answer and the right choice for
//     simulations, tests, and short-lived LAN registries.
//   - WAL (Options.Backend = the *WAL from Recover): every mutation is
//     appended to a crash-safe write-ahead log with periodic compacted
//     snapshots (wal.go), so a restart replays back to exactly the
//     durably-acknowledged state instead of waiting out a
//     re-announcement storm.
//
// The split mirrors how other registry-shaped systems put a memory and
// a persistent implementation behind one small interface: the store
// only ever talks to the boundary below, never to files.

import (
	"errors"
	"fmt"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// ErrDurability wraps a failed backend durability barrier: the mutation
// was applied in memory but its log record may not have reached the
// disk, so the caller must treat the operation as failed (a provider
// retries its publish; the sticky backend error keeps failing until the
// operator intervenes).
var ErrDurability = errors.New("registry: durable backend failed")

// Backend records the store's result-affecting mutations durably. A nil
// backend is the memory store: mutations are applied and forgotten.
//
// The contract has two halves so group commit works:
//
//   - The Append* methods are called while the store still holds the
//     lock that ordered the mutation (the advert's shard lock, or subMu
//     for standing queries). They must assign and return a log sequence
//     number without blocking on I/O — a buffered write at most — so
//     the in-memory apply order and the log order can never diverge
//     for the same key.
//   - Barrier registers a completion that runs once the record with
//     the given LSN — and so every record appended before it — is
//     durable, and returns without waiting; Sync is the same barrier
//     plus the wait. The store calls them after releasing its locks:
//     the blocking Publish/Renew/Remove/Subscribe Sync before
//     returning, so a successful one is a durable one, while the *Async
//     forms hand the LSN to the caller, which registers a completion
//     (the federation acks from it). The one exception is RenewAsync
//     of a live advert whose own publish is already durable: it
//     registers the renew record's barrier itself, with nothing
//     waiting on it, and hands the caller LSN 0, so the renewal is
//     acked at once and its record still joins the next commit round.
//     Completions and syncs sharing one flush are group commit; the
//     store watches their outcomes to know how far the log is durable
//     and whether a barrier ever failed. A barrier error means
//     durability is gone, not that the in-memory apply was undone;
//     callers must surface it as a failed operation.
//
// Lease expiry sweeps and subscription pruning are logged too
// (AppendExpire, AppendPruneSubs): purge timing decides whether a
// later re-publish is a fresh insert or a stale-version reject, and
// whether a late renewal resurrects an advert, so replay has to
// reproduce it rather than re-derive it from a different clock.
type Backend interface {
	// AppendPublish logs a stored (or updated) advertisement with the
	// lease actually granted and the wall-clock instant it was granted
	// at; replay re-grants the same absolute deadline.
	AppendPublish(adv wire.Advertisement, granted time.Duration, now time.Time) uint64
	// AppendRenew logs a successful lease renewal at now.
	AppendRenew(id uuid.UUID, now time.Time) uint64
	// AppendRemove logs an explicit withdrawal (including the
	// service-key supersede removal a publish performs).
	AppendRemove(id uuid.UUID) uint64
	// AppendSubscribe logs a standing query registration or renewal.
	AppendSubscribe(id uuid.UUID, kind describe.Kind, payload []byte, notifyAddr string, expires time.Time) uint64
	// AppendUnsubscribe logs a standing-query withdrawal.
	AppendUnsubscribe(id uuid.UUID) uint64
	// AppendExpire logs that a lease sweep purged at least one advert
	// whose deadline was at or before through.
	AppendExpire(through time.Time) uint64
	// AppendPruneSubs logs that a subscription sweep at now removed at
	// least one lapsed standing query.
	AppendPruneSubs(now time.Time) uint64
	// Barrier runs done once the record with the given LSN is durable,
	// or with the error that ended durability. It must not block on
	// I/O; done may run on the caller's goroutine when the LSN is
	// already durable, and otherwise on the backend's own (so done must
	// not wait on the backend). Completions run in LSN order, and Close
	// runs every one still pending.
	Barrier(lsn uint64, done func(error))
	// Sync is Barrier plus the wait for its completion: it returns once
	// the record with the given LSN is durable.
	Sync(lsn uint64) error
	// Close flushes and releases the backend. The store must not be
	// mutated afterwards.
	Close() error
}

// WhenDurable runs done once the mutation that returned lsn from one of
// the *Async mutators is durable — or with an ErrDurability-wrapped
// error once it can no longer be. LSN 0 (the memory store, a mutation
// that logged nothing, or a renewal RenewAsync lets ack early) needs
// no wait, and done runs inline. Otherwise done may run on any
// goroutine: a caller that needs it on its own re-enters from there.
func (s *Store) WhenDurable(lsn uint64, done func(error)) {
	if s.backend == nil || lsn == 0 {
		done(nil)
		return
	}
	s.backend.Barrier(lsn, func(err error) {
		s.observe(lsn, err)
		if err != nil {
			err = fmt.Errorf("%w: %v", ErrDurability, err)
		}
		done(err)
	})
}

// sync is the blocking form of WhenDurable.
func (s *Store) sync(lsn uint64) error {
	if s.backend == nil || lsn == 0 {
		return nil
	}
	err := s.backend.Sync(lsn)
	s.observe(lsn, err)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrDurability, err)
	}
	return nil
}

// observe records a completed barrier's outcome for RenewAsync: the
// durable watermark it reached, or the first failure, which stays.
func (s *Store) observe(lsn uint64, err error) {
	if err != nil {
		s.barrierFailed.Store(true)
		return
	}
	for cur := s.durableLSN.Load(); cur < lsn; cur = s.durableLSN.Load() {
		if s.durableLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}
