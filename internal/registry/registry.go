// Package registry implements the autonomous "thick" registry node of
// the conceptual architecture (§4.1): it stores complete advertisements
// (not just pointers), evaluates queries itself with pluggable
// description models, purges advertisements whose leases expire,
// exercises query response control (max-k / best-only, §3.1), notifies
// subscribers about newly published matches, and doubles as the
// artifact repository for ontologies and schemas so discovery works
// disconnected from the Internet (§4.6).
//
// The store is explicit-time state — no I/O and no internal timers — so
// the same code runs deterministically under the experiment simulator
// and behind the real UDP runtime. Unlike the original single-threaded
// design, the store is safe for concurrent use: the advert and token
// maps are split across lock-striped shards (one sync.RWMutex each), so
// the read path (Evaluate, MergeRank, Summary, Adverts, Advert, Has)
// runs in parallel with itself while writes (Publish, Renew, Remove,
// ExpireThrough) take the write lock only on the shards they touch.
// Each advert record carries its own lease deadline, and each shard
// keeps its records in an expiry min-heap, so the freshness check
// (never serve an expired advert) reads a field under the same lock as
// the index lookup. Query decoding is memoized in an LRU plan cache
// keyed by (kind, payload hash), so a federated query forwarded through
// several hops — or evaluated and then merge-ranked at the entry
// registry — decodes its payload once per node, preserving the paper's
// §3.2 claim that "query evaluation may only have to be carried out
// once".
//
// Storage is compact: stored records live in per-shard slab arenas with
// interned token IDs and dense swap-remove index slices (arena.go), and
// standing-query notification runs on an inverted posting-list index
// (subindex.go), so one store holds millions of adverts and the notify
// cost of a publish is proportional to the subscriptions that can
// match it, not to all of them.
package registry

import (
	"bytes"
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Store is the registry state: advertisements with leases, the model
// registry for query evaluation, subscriptions, and artifacts.
// All methods are safe for concurrent use.
type Store struct {
	models *describe.Registry

	// shards hold the advert arenas, per-kind indexes and expiry
	// heaps, striped by advertisement ID; count tracks the live
	// advert total so Len never has to sweep the stripes. toks is the
	// store-wide summary-token interner shared by every shard and by
	// the subscription index.
	shards []*shard
	mask   uint32
	count  atomic.Int64
	toks   *tokenInterner

	// byService maps a description's service key to the advert that
	// currently describes it, so republished services do not pile up as
	// duplicates under fresh advertisement IDs. Service keys are opaque
	// strings, so the map is global (not striped) under its own lock; it
	// is touched only on the write path. Each mapping carries the
	// publish sequence number that wrote it (svcSeq), so a deferred
	// cleanup (Remove/ExpireThrough run dropServiceKey after the shard
	// lock is released) can compare-and-delete against the exact
	// mapping its advert established — a racing re-publish of the same
	// advert ID writes a newer sequence and is never clobbered.
	svcMu     sync.Mutex
	svcSeq    uint64
	byService map[string]svcEntry

	plans  *planCache
	qcache *queryCache
	// gens counts result-affecting mutations per token hash bucket
	// (qcache.go); cached result sets are validated against the buckets
	// of the tokens their query can see.
	gens tokenGens

	// backend is the durability boundary (store.go): nil is the memory
	// store, a *WAL makes every acknowledged mutation crash-safe.
	// leasePolicy clamps every granted and renewed lease; snapshot dumps
	// need it to reconstruct grant instants.
	backend     Backend
	leasePolicy lease.Policy
	// durableLSN is the highest LSN a completed barrier reported
	// durable, and barrierFailed is set by the first barrier that
	// failed. RenewAsync reads both to decide whether a renewal's ack
	// may leave before its own barrier (store.go, observe).
	durableLSN    atomic.Uint64
	barrierFailed atomic.Bool

	artMu     sync.RWMutex
	artifacts map[string][]byte

	// Standing queries. subsArr holds subscriptions in insertion order
	// (the deterministic notification order) with nil tombstones where
	// Unsubscribe/PruneSubscriptions removed entries; compaction is
	// amortized so removal is O(1). subidx is the inverted posting-list
	// index (nil when Options.DisableSubIndex keeps the linear-scan
	// baseline). subSeq stamps each subscription with its insertion
	// rank; index candidates are sorted by it so the indexed path
	// notifies in exactly the baseline's order.
	subMu    sync.RWMutex
	subs     map[uuid.UUID]*subscription
	subsArr  []*subscription
	subsDead int
	subSeq   uint64
	subidx   *subIndex

	// defaultMaxResults caps result sets when the query does not; the
	// response-implosion guard of §3.1.
	defaultMaxResults int
}

// shard is one lock stripe of the store. Each kind's index (kindIndex)
// holds dense slices of arena records: all adverts of the kind, the
// per-token and per-output-concept posting lists (postings.go), and the
// token-less adverts every category scan must consider conservatively.
// Records carry their positions in these slices and in the expiry
// heap, so removal is a swap-remove — no per-advert maps beyond the ID
// lookup.
type shard struct {
	mu      sync.RWMutex
	adverts map[uuid.UUID]*stored
	kinds   map[describe.Kind]*kindIndex
	expiry  expiryHeap

	// Arena state (arena.go): fixed-size slabs of stored records, a
	// bump pointer and a free list of recycled slots.
	slabSize int
	slabs    [][]stored
	next     int32
	free     []int32

	// nextDeadline caches the expiry heap's root deadline so the purge
	// scheduler (NextExpiry/ExpireThrough across all shards) reads one
	// atomic pointer per shard instead of taking every shard lock per
	// tick. nil means the shard holds no adverts. Refreshed under the
	// write lock after every lease mutation. A *time.Time (not UnixNano)
	// so the simulator's zero-epoch virtual clocks round-trip exactly.
	nextDeadline atomic.Pointer[time.Time]
}

// kindIndex is one kind's dense advert indexes inside a shard.
type kindIndex struct {
	all   []*stored         // every advert of the kind; position = stored.kindPos
	byTok map[tok][]posting // posting list per token; position = stored.pos[i]
	noTok []posting         // token-less adverts; position = stored.ntPos
	// byOut is indexed by output concept ID: the adverts declaring that
	// output; position = stored.pos[len(toks)+j] for outs[j].
	byOut [][]posting
}

// refreshDeadlineLocked re-derives the cached next lease deadline; the
// caller holds the shard write lock and has just mutated the expiry
// heap.
func (sh *shard) refreshDeadlineLocked() {
	if len(sh.expiry) == 0 {
		sh.nextDeadline.Store(nil)
		return
	}
	t := sh.expiry[0].expires
	sh.nextDeadline.Store(&t)
}

// held is a decoded description as the store keeps it: a semantic
// record by value (describe.SemanticRecord, the match record a query
// evaluates in place), any other model's description by reference.
type held struct {
	desc describe.Description // nil for a semantic record
	sem  describe.SemanticRecord
}

func (h *held) set(d describe.Description) {
	if r, ok := d.(*describe.SemanticRecord); ok {
		h.desc, h.sem = nil, *r
		return
	}
	h.desc, h.sem = d, describe.SemanticRecord{}
}

// description returns the held description. A semantic one points into
// the holder, so it is valid only while the holder is: for an arena
// record, while the caller holds the shard lock.
func (h *held) description() describe.Description {
	if h.desc != nil {
		return h.desc
	}
	return &h.sem
}

func (h *held) serviceKey() string {
	if h.desc != nil {
		return h.desc.ServiceKey()
	}
	return h.sem.ServiceIRI
}

// stored is one arena-resident advert record. Apart from its lease
// deadline and heap position, which a renewal moves in place, it is
// immutable while linked into the shard indexes — updates unlink,
// release and relink — but its slot is recycled after release, so
// nothing derived from a *stored may be used once the shard lock is
// dropped; escaping data is snapshotted by value (hit, removedAdvert)
// under the lock. expires is the advert's lease deadline, the only copy
// there is; it sits next to the held description, which for a semantic
// advert is the match record itself, so a scan reads the two together.
// svcSeq records which byService write this advert made. lsn
// is the log record the advert's residency rests on: its publish, or
// the last renewal whose ack waited for its barrier; a renewal acks
// early only once that record is durable. Like every other field they
// are read and written only under the shard lock.
type stored struct {
	advert  wire.Advertisement
	expires time.Time
	held
	toks    []tok   // interned, deduplicated summary tokens
	outs    []int32 // declared output concept IDs, distinct and ascending
	pos     []int32 // position in each token's, then each output's, posting list
	cat     int32   // declared category concept ID, -1 when none
	kindPos int32   // position in kindIndex.all
	ntPos   int32   // position in kindIndex.noTok, -1 when tokenized
	heapIdx int32   // position in shard.expiry
	slot    int32   // arena slot, for release
	svcSeq  uint64
	lsn     uint64
}

// svcEntry is one byService mapping: the advert currently describing a
// service key, tagged with the monotonically increasing sequence number
// of the publish that wrote it. Deferred cleanups compare-and-delete on
// (id, seq) so they can never clobber a newer mapping written by a
// racing re-publish of the same advert ID.
type svcEntry struct {
	id      uuid.UUID
	seq     uint64
	version uint64 // the advert's version, for the one-rule-per-key check
}

type subscription struct {
	id  uuid.UUID
	seq uint64 // insertion rank; stable across renewals, the notify order
	pos int    // index in subsArr (tombstoned on removal)

	kind    describe.Kind
	query   describe.Query
	payload []byte // the encoded query, retained for snapshot dumps
	notify  string // opaque subscriber address, returned in events
	// expires leases the subscription (§4.8 applies to standing queries
	// too: crashed subscribers must stop consuming notifications).
	// The zero time means no expiry (local in-process subscriptions).
	expires time.Time

	// removed marks a tombstoned record: posting lists drop entries
	// lazily, so probes must skip records that were unsubscribed or
	// replaced by a renewal. Guarded by subMu.
	removed bool

	// Compiled index keys (subindex.go): exactly one of idxConcepts /
	// idxToks / catchAll describes how the subscription is posted.
	idxToks     []tok
	idxConcepts []int32
	catchAll    bool
}

func (sub *subscription) alive(now time.Time) bool {
	return sub.expires.IsZero() || !sub.expires.Before(now)
}

// Options configures a store.
type Options struct {
	// Models is the description-model registry; required.
	Models *describe.Registry
	// Leases is the lease policy for granted advertisements.
	Leases lease.Policy
	// DefaultMaxResults caps result sets when queries don't; zero
	// means 25.
	DefaultMaxResults int
	// Shards is the number of lock stripes the advert maps are split
	// across, rounded up to a power of two; zero means 16.
	Shards int
	// PlanCacheSize bounds the memoized query-plan LRU; zero means 128,
	// negative disables plan caching.
	PlanCacheSize int
	// QueryCacheSize bounds the generation-validated query result LRU;
	// zero means 256, negative disables result caching. Cached results
	// are exact: entries are validated against the generation counters
	// of the tokens their query can see and the earliest lease deadline
	// of the results they hold, so a stale entry can never be served.
	QueryCacheSize int
	// DisableSubIndex keeps Publish's subscription notification on the
	// linear scan over every standing query instead of the inverted
	// posting-list index. It exists as the property-tested baseline;
	// production stores leave it false.
	DisableSubIndex bool
	// Backend is the durability boundary (store.go). Nil keeps the
	// memory store. Stores recovered from a WAL are built through
	// Recover, which replays first and attaches the backend itself —
	// set this directly only for custom Backend implementations.
	Backend Backend
}

// New returns an empty registry store.
func New(opts Options) *Store {
	if opts.Models == nil {
		panic("registry: nil model registry")
	}
	if opts.DefaultMaxResults == 0 {
		opts.DefaultMaxResults = 25
	}
	if opts.Shards == 0 {
		opts.Shards = 16
	}
	n := 1 << bits.Len(uint(opts.Shards-1)) // next power of two
	shards := make([]*shard, n)
	for i := range shards {
		shards[i] = &shard{
			adverts:  make(map[uuid.UUID]*stored),
			kinds:    make(map[describe.Kind]*kindIndex),
			slabSize: arenaSlab,
		}
	}
	var plans *planCache
	if opts.PlanCacheSize >= 0 {
		size := opts.PlanCacheSize
		if size == 0 {
			size = 128
		}
		plans = newPlanCache(size)
	}
	var qcache *queryCache
	if opts.QueryCacheSize >= 0 {
		size := opts.QueryCacheSize
		if size == 0 {
			size = 256
		}
		qcache = newQueryCache(size)
	}
	s := &Store{
		models:            opts.Models,
		shards:            shards,
		mask:              uint32(n - 1),
		toks:              newTokenInterner(),
		byService:         make(map[string]svcEntry),
		plans:             plans,
		qcache:            qcache,
		backend:           opts.Backend,
		leasePolicy:       opts.Leases,
		artifacts:         make(map[string][]byte),
		subs:              make(map[uuid.UUID]*subscription),
		defaultMaxResults: opts.DefaultMaxResults,
	}
	if !opts.DisableSubIndex {
		s.subidx = newSubIndex()
	}
	return s
}

func (s *Store) shardFor(id uuid.UUID) *shard {
	return s.shards[binary.BigEndian.Uint32(id[:4])&s.mask]
}

// Len returns the number of stored advertisements.
func (s *Store) Len() int { return int(s.count.Load()) }

// countAdd moves the live-advert count, mirroring the change into the
// process-wide registry.adverts gauge.
func (s *Store) countAdd(d int64) {
	s.count.Add(d)
	mAdverts.Add(d)
}

// Models exposes the model registry (federation needs it for summary
// pruning decisions).
func (s *Store) Models() *describe.Registry { return s.models }

// Errors returned by Publish.
var (
	// ErrUnknownKind means this registry has no model for the payload
	// kind; per the paper the node "silently discards" such payloads,
	// which callers implement by mapping this error to a skip.
	ErrUnknownKind = errors.New("registry: unknown description kind")
	// ErrStaleVersion rejects a publish older than the stored version.
	ErrStaleVersion = errors.New("registry: stale advertisement version")
	// ErrBadPayload wraps description decode failures.
	ErrBadPayload = errors.New("registry: bad description payload")
)

// Notification reports a subscription hit caused by a publish.
type Notification struct {
	SubID      uuid.UUID
	NotifyAddr string
	Advert     wire.Advertisement
}

// Publish stores (or updates) an advertisement and grants its lease.
// It returns the granted lease duration and any notifications due,
// once the mutation is durable: PublishAsync plus the wait for its
// barrier.
//
// Update semantics follow §4.10: the advertisement ID is the handle;
// a publish with a known ID and version ≥ stored version replaces the
// content and refreshes the lease; a lower version is rejected as
// stale (it may arrive late through a slower forwarding path). A
// publish identical to the resident advert (every field, payload bytes
// included) that still holds its service key is a renewal: it
// refreshes the lease by Renew's rules and notifies subscribers only
// if the resident advert had lapsed — push replication re-sends an
// unchanged advert on every renewal, and a standing query is notified
// once per publish, not once per lease period.
func (s *Store) Publish(adv wire.Advertisement, now time.Time) (time.Duration, []Notification, error) {
	granted, notes, lsn, err := s.PublishAsync(adv, now)
	if err == nil {
		err = s.sync(lsn)
	}
	return granted, notes, err
}

// PublishAsync is Publish without the durability wait: the mutation is
// applied (and visible to queries) and its log record appended, and the
// returned LSN is what WhenDurable must settle before the publish may
// be acknowledged.
func (s *Store) PublishAsync(adv wire.Advertisement, now time.Time) (time.Duration, []Notification, uint64, error) {
	model, ok := s.models.Model(adv.Kind)
	if !ok {
		mPublishErrors.Inc()
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrUnknownKind, adv.Kind)
	}
	desc, err := model.DecodeDescription(adv.Payload)
	if err != nil {
		mPublishErrors.Inc()
		return 0, nil, 0, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	if adv.ID.IsNil() {
		mPublishErrors.Inc()
		return 0, nil, 0, errors.New("registry: advertisement has nil ID")
	}
	tokens := model.SummaryTokens(desc)
	outs := model.OutputConceptIDs(desc)
	cat := int32(-1)
	if ci, ok := model.(describe.ConceptIndexer); ok {
		if id, ok := ci.DescriptionConceptID(desc); ok {
			cat = id
		}
	}
	svcKey := desc.ServiceKey()

	sh := s.shardFor(adv.ID)
	sh.mu.Lock()
	old, exists := sh.adverts[adv.ID]
	if exists {
		if adv.Version < old.advert.Version {
			have := old.advert.Version
			sh.mu.Unlock()
			mPublishErrors.Inc()
			return 0, nil, 0, fmt.Errorf("%w: have v%d, got v%d", ErrStaleVersion, have, adv.Version)
		}
		if sameAdvert(old.advert, adv) && s.holdsServiceKey(svcKey, adv.ID) {
			granted, wasAlive, lsn := s.renewLocked(sh, old, now)
			old.lsn = lsn // the publish's ack waits for this record
			toks, cat := old.toks, old.cat
			sh.mu.Unlock()
			mPublish.Inc()
			var notes []Notification
			if !wasAlive {
				notes = s.notifySubs(model, adv, desc, toks, cat, now)
			}
			return granted, notes, lsn, nil
		}
	}
	// One rule per service key: the higher version holds it, and on a
	// tie the later publish here does; a lower version is stale. The
	// check and the byService write share one svcMu section, so two
	// racing publishes under one key cannot both pass it. The mapping
	// names adv.ID before the record is linked; readers that resolve it
	// wait on this shard's lock, which is held until the link is done
	// (lock order is always shard → svcMu, never the reverse).
	var oldSvc svcEntry
	hadSvc := false
	var seq uint64
	if svcKey != "" {
		s.svcMu.Lock()
		oldSvc, hadSvc = s.byService[svcKey]
		if hadSvc && oldSvc.id != adv.ID && adv.Version < oldSvc.version {
			s.svcMu.Unlock()
			sh.mu.Unlock()
			mPublishErrors.Inc()
			return 0, nil, 0, fmt.Errorf("%w: service key has v%d, got v%d", ErrStaleVersion, oldSvc.version, adv.Version)
		}
		s.svcSeq++
		seq = s.svcSeq
		s.byService[svcKey] = svcEntry{id: adv.ID, seq: seq, version: adv.Version}
		s.svcMu.Unlock()
	}
	if exists {
		// An update may change the description's tokens: unindex first,
		// and invalidate what the old tokens could see. An update that
		// moves the advert to another service key (or to none) also
		// frees the key it held.
		snap, _ := s.unlinkLocked(sh, adv.ID)
		s.countAdd(-1)
		if snap.svcKey != svcKey {
			s.dropServiceKey(snap)
		}
	}
	granted := s.leasePolicy.Clamp(time.Duration(adv.LeaseMillis) * time.Millisecond)
	mLeaseGranted.Inc()
	st := sh.alloc()
	st.advert = adv
	st.set(desc)
	st.expires = now.Add(granted)
	st.toks = s.toks.internAll(tokens)
	st.outs = outs
	st.cat = cat
	toks := st.toks // slice header survives a concurrent release after unlock
	sh.insertLocked(st)
	s.gens.bump(tokens)
	sh.refreshDeadlineLocked()
	st.svcSeq = seq // under the shard lock, which pins st's arena slot
	// The log record is appended while the shard lock still orders this
	// mutation (a buffered write, no I/O); the durability barrier waits
	// until after notification matching, outside every lock.
	var lsn uint64
	if s.backend != nil {
		lsn = s.backend.AppendPublish(adv, granted, now)
		st.lsn = lsn
	}
	sh.mu.Unlock()
	s.countAdd(1)
	mPublish.Inc()

	// A service republishing under a new advertisement ID (e.g. after
	// its registry crashed) supersedes its previous advert.
	if hadSvc && oldSvc.id != adv.ID {
		osh := s.shardFor(oldSvc.id)
		osh.mu.Lock()
		// A racing update may have moved prev to another key meanwhile;
		// it no longer competes for this one then.
		if prev, ok := osh.adverts[oldSvc.id]; ok && adv.Version >= prev.advert.Version && prev.serviceKey() == svcKey {
			s.unlinkLocked(osh, oldSvc.id)
			osh.refreshDeadlineLocked()
			s.countAdd(-1)
			if s.backend != nil {
				if l := s.backend.AppendRemove(oldSvc.id); l > lsn {
					lsn = l
				}
			}
		}
		osh.mu.Unlock()
	}

	notes := s.notifySubs(model, adv, desc, toks, cat, now)
	return granted, notes, lsn, nil
}

// sameAdvert reports whether a publish carries exactly the resident
// advert: same handle, version, provider, lease request and payload.
func sameAdvert(a, b wire.Advertisement) bool {
	return a.ID == b.ID && a.Version == b.Version && a.Kind == b.Kind &&
		a.Provider == b.Provider && a.ProviderAddr == b.ProviderAddr &&
		a.LeaseMillis == b.LeaseMillis && bytes.Equal(a.Payload, b.Payload)
}

// holdsServiceKey reports whether id is the advert the service-key map
// names for key (trivially so for a key-less description). A publish
// that would move the mapping is never treated as a renewal. The
// caller holds id's shard lock (lock order shard → svcMu).
func (s *Store) holdsServiceKey(key string, id uuid.UUID) bool {
	if key == "" {
		return true
	}
	s.svcMu.Lock()
	defer s.svcMu.Unlock()
	return s.byService[key].id == id
}

// insertLocked links st into the shard's kind index and expiry heap;
// the caller holds the shard write lock and has fully initialized the
// record, its lease deadline included.
func (sh *shard) insertLocked(st *stored) {
	kind := st.advert.Kind
	sh.adverts[st.advert.ID] = st
	heap.Push(&sh.expiry, st)
	ki := sh.kinds[kind]
	if ki == nil {
		ki = &kindIndex{}
		sh.kinds[kind] = ki
	}
	st.kindPos = int32(len(ki.all))
	ki.all = append(ki.all, st)
	p := st.posting()
	if n := len(st.toks) + len(st.outs); n > 0 {
		st.pos = make([]int32, n)
	}
	st.ntPos = -1
	if len(st.toks) == 0 {
		st.ntPos = int32(len(ki.noTok))
		ki.noTok = append(ki.noTok, p)
	} else if ki.byTok == nil {
		ki.byTok = make(map[tok][]posting)
	}
	for i, t := range st.toks {
		b := ki.byTok[t]
		st.pos[i] = int32(len(b))
		ki.byTok[t] = append(b, p)
	}
	for j, o := range st.outs {
		if n := int(o) + 1; n > len(ki.byOut) {
			ki.byOut = append(ki.byOut, make([][]posting, n-len(ki.byOut))...)
		}
		st.pos[len(st.toks)+j] = int32(len(ki.byOut[o]))
		ki.byOut[o] = append(ki.byOut[o], p)
	}
}

// removedAdvert is the by-value snapshot removeLocked takes before the
// record's arena slot is released: everything a caller may need after
// the shard lock is dropped (ExpireThrough returns the advert,
// dropServiceKey compare-and-deletes on key/id/seq). The Payload slice
// header aliases the immutable publish-time backing array, so copying
// the struct is safe and cheap.
type removedAdvert struct {
	advert wire.Advertisement
	svcKey string
	svcSeq uint64
}

// removeLocked unlinks id from the shard indexes and expiry heap (not
// from the service-key map), releases its arena slot, and returns a
// snapshot of the removed entry; the caller holds the shard write lock.
func (sh *shard) removeLocked(id uuid.UUID) (removedAdvert, bool) {
	st, ok := sh.adverts[id]
	if !ok {
		return removedAdvert{}, false
	}
	delete(sh.adverts, id)
	heap.Remove(&sh.expiry, int(st.heapIdx))
	ki := sh.kinds[st.advert.Kind]
	// Swap-remove from the all-of-kind slice.
	last := len(ki.all) - 1
	moved := ki.all[last]
	ki.all[st.kindPos] = moved
	moved.kindPos = st.kindPos
	ki.all[last] = nil
	ki.all = ki.all[:last]
	if st.ntPos >= 0 {
		var moved *stored
		if ki.noTok, moved = unpost(ki.noTok, st.ntPos); moved != nil {
			moved.ntPos = st.ntPos
		}
	}
	for i, t := range st.toks {
		b, moved := unpost(ki.byTok[t], st.pos[i])
		if moved != nil {
			moved.pos[slices.Index(moved.toks, t)] = st.pos[i]
		}
		if len(b) == 0 {
			delete(ki.byTok, t)
		} else {
			ki.byTok[t] = b
		}
	}
	for j, o := range st.outs {
		pos := st.pos[len(st.toks)+j]
		b, moved := unpost(ki.byOut[o], pos)
		if moved != nil {
			moved.pos[len(moved.toks)+slices.Index(moved.outs, o)] = pos
		}
		if len(b) == 0 {
			b = nil
		}
		ki.byOut[o] = b
	}
	snap := removedAdvert{advert: st.advert, svcKey: st.serviceKey(), svcSeq: st.svcSeq}
	sh.release(st)
	return snap, true
}

// summaryTokens re-derives a resident description's summary tokens —
// the strings its result-cache generation buckets hash (the record
// keeps only interned IDs). The caller holds st's shard lock.
func (s *Store) summaryTokens(st *stored) []string {
	model, _ := s.models.Model(st.advert.Kind) // the advert was stored, so its model exists
	return model.SummaryTokens(st.description())
}

// unlinkLocked invalidates the cached results id's advert could be part
// of, then removes it (removeLocked); the caller holds sh's write lock.
func (s *Store) unlinkLocked(sh *shard, id uuid.UUID) (removedAdvert, bool) {
	st, ok := sh.adverts[id]
	if !ok {
		return removedAdvert{}, false
	}
	s.gens.bump(s.summaryTokens(st))
	return sh.removeLocked(id)
}

// dropServiceKey clears the service-key mapping if it still holds the
// exact entry the removed advert wrote. It runs after the shard lock is
// released, so it works on the removal snapshot and must compare both
// the advert ID and the publish sequence: a re-publish of the same
// advert ID racing the removal has written a newer sequence, and that
// fresh mapping must survive.
func (s *Store) dropServiceKey(r removedAdvert) {
	if r.svcKey == "" {
		return
	}
	s.svcMu.Lock()
	if e, ok := s.byService[r.svcKey]; ok && e.id == r.advert.ID && e.seq == r.svcSeq {
		delete(s.byService, r.svcKey)
	}
	s.svcMu.Unlock()
}

// Renew refreshes an advertisement lease; ok=false means the registry
// no longer holds the advertisement (or can no longer record the
// renewal durably) and the provider must republish. It returns once
// the renewal is durable — always, even where RenewAsync would let the
// ack leave early — so replay and the direct-store callers keep the
// plain acked ⇒ durable contract.
func (s *Store) Renew(id uuid.UUID, now time.Time) (time.Duration, bool) {
	granted, ok, lsn, _ := s.renew(id, now)
	if ok && s.sync(lsn) != nil {
		return 0, false
	}
	return granted, ok
}

// RenewAsync is Renew without the durability wait. A non-zero LSN is
// what WhenDurable must settle before the renewal may be acknowledged.
// LSN 0 means the ack may leave now: either nothing was logged (the
// memory store), or the advert was alive, the record its residency
// rests on is durable, and no barrier has failed — and then the renew
// record's barrier has already been handed to the group commit, with
// no ack waiting on it. Such an acked renewal survives a crash with its
// renewed deadline or, if the crash lands inside that commit round,
// with its previous durable one; never with a later deadline, and the
// advert itself is never lost. A renewal that resurrects a lapsed
// lease, or whose advert's publish is not yet durable, or that follows
// a failed barrier still returns its LSN.
func (s *Store) RenewAsync(id uuid.UUID, now time.Time) (time.Duration, bool, uint64) {
	granted, ok, lsn, early := s.renew(id, now)
	if !early {
		return granted, ok, lsn
	}
	s.backend.Barrier(lsn, func(err error) { s.observe(lsn, err) })
	return granted, true, 0
}

// renew applies a renewal and logs it under id's shard lock. early
// reports that the renewal's ack need not wait for its record (see
// RenewAsync); a renewal that must wait becomes the record the
// advert's residency rests on.
func (s *Store) renew(id uuid.UUID, now time.Time) (granted time.Duration, ok bool, lsn uint64, early bool) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.adverts[id]
	if !ok {
		return 0, false, 0, false
	}
	granted, wasAlive, lsn := s.renewLocked(sh, st, now)
	if lsn == 0 {
		return granted, true, 0, false
	}
	early = wasAlive && st.lsn <= s.durableLSN.Load() && !s.barrierFailed.Load()
	if !early {
		st.lsn = lsn
	}
	return granted, true, lsn, early
}

// renewLocked re-grants st's lease at now and logs the renewal; the
// caller holds sh's write lock. It also reports whether the advert was
// alive before the renewal.
//
// A renew that lands after the lease lapsed but before the purge sweep
// resurrects the advert into the result set, so it must invalidate
// cached results like a publish would. An ordinary renew only pushes
// the deadline out and leaves results unchanged — but a skewed caller
// clock can pull a deadline in, which would outlive a cached entry's
// expiry stamp, so that case invalidates too.
func (s *Store) renewLocked(sh *shard, st *stored, now time.Time) (granted time.Duration, wasAlive bool, lsn uint64) {
	oldExp := st.expires
	wasAlive = !oldExp.Before(now)
	granted = s.leasePolicy.Clamp(time.Duration(st.advert.LeaseMillis) * time.Millisecond)
	mLeaseRenewed.Inc()
	st.expires = now.Add(granted)
	heap.Fix(&sh.expiry, int(st.heapIdx))
	if !wasAlive || st.expires.Before(oldExp) {
		s.gens.bump(s.summaryTokens(st))
	}
	sh.refreshDeadlineLocked()
	if s.backend != nil {
		lsn = s.backend.AppendRenew(st.advert.ID, now)
	}
	return granted, wasAlive, lsn
}

// Remove withdraws an advertisement explicitly and waits for the
// durability barrier: RemoveAsync plus the wait. The removal is applied
// even if the barrier fails — the sticky backend error then surfaces on
// the next Publish/Renew/Subscribe instead.
func (s *Store) Remove(id uuid.UUID) bool {
	ok, lsn := s.RemoveAsync(id)
	_ = s.sync(lsn)
	return ok
}

// RemoveAsync is Remove without the durability wait. Nothing
// acknowledges a removal on the wire, so its record simply rides the
// next barrier (or Close).
func (s *Store) RemoveAsync(id uuid.UUID) (bool, uint64) {
	sh := s.shardFor(id)
	sh.mu.Lock()
	snap, ok := s.unlinkLocked(sh, id)
	var lsn uint64
	if ok {
		sh.refreshDeadlineLocked()
		if s.backend != nil {
			lsn = s.backend.AppendRemove(id)
		}
	}
	sh.mu.Unlock()
	if !ok {
		return false, 0
	}
	s.countAdd(-1)
	s.dropServiceKey(snap)
	return true, lsn
}

// ExpireThrough purges every advertisement whose lease deadline is at
// or before now and returns the purged advertisements — "removal of
// obsolete advertisements" (§4.8). Shards whose cached next deadline is
// in the future are skipped without taking their lock, so an idle tick
// over a large store costs one atomic load per shard.
//
// The sweep does not wait for its log records: nothing acknowledges
// it, and the barrier of any later acknowledged mutation covers them
// (LSN order is log order). A sweep lost in a crash is re-derived by
// the boot sweep after recovery.
func (s *Store) ExpireThrough(now time.Time) []wire.Advertisement {
	var out []wire.Advertisement
	var dropped []removedAdvert
	for _, sh := range s.shards {
		if next := sh.nextDeadline.Load(); next == nil || next.After(now) {
			continue
		}
		sh.mu.Lock()
		start := len(out)
		for len(sh.expiry) > 0 && !sh.expiry[0].expires.After(now) {
			snap, _ := s.unlinkLocked(sh, sh.expiry[0].advert.ID)
			out = append(out, snap.advert)
			dropped = append(dropped, snap)
			s.countAdd(-1)
		}
		// The sweep is logged per purged shard, under the shard lock:
		// purge timing decides whether a later publish of the same ID
		// replays as a fresh insert or a stale-version reject, so a
		// record appended after the lock dropped could be misordered
		// against a racing publish.
		if len(out) > start && s.backend != nil {
			s.backend.AppendExpire(now)
		}
		sh.refreshDeadlineLocked()
		sh.mu.Unlock()
	}
	for _, snap := range dropped {
		s.dropServiceKey(snap)
	}
	mLeaseExpired.Add(uint64(len(out)))
	mAdvertsExpired.Add(uint64(len(out)))
	return out
}

// NextExpiry returns the earliest lease deadline for purge scheduling.
// It reads the per-shard cached deadlines, so it is lock-free.
func (s *Store) NextExpiry() (time.Time, bool) {
	var best time.Time
	found := false
	for _, sh := range s.shards {
		if t := sh.nextDeadline.Load(); t != nil && (!found || t.Before(best)) {
			best, found = *t, true
		}
	}
	return best, found
}

// QueryOptions is the response control the client delegates to the
// registry (§3.1: "limited clients should be allowed to delegate
// service selection to registry nodes").
type QueryOptions struct {
	// MaxResults caps the result count; 0 uses the store default.
	MaxResults int
	// BestOnly returns only the single best-ranked advertisement.
	BestOnly bool
	// NoCache forces a live evaluation, bypassing the query result
	// cache for this call (the wire protocol's fresh-results flag).
	NoCache bool
}

// EffectiveLimit is the result cap the options ask for.
func (s *Store) EffectiveLimit(opts QueryOptions) int {
	limit := opts.MaxResults
	if limit <= 0 {
		limit = s.defaultMaxResults
	}
	if opts.BestOnly {
		limit = 1
	}
	return limit
}

// Evaluate runs a query payload against the stored advertisements of
// its kind and returns matching advertisements ranked best-first and
// capped per the options. Unknown kinds return ErrUnknownKind so the
// caller can skip-and-forward (a registry may still forward queries it
// cannot evaluate itself).
//
// Selection keeps one bounded top-K (K = the effective result cap)
// across the shards instead of sorting every hit.
//
// When the query result cache is enabled (Options.QueryCacheSize) the
// ranked result set is memoized keyed by (payload hash, kind, effective
// limit, best-only) and validated against the generation counters of
// the tokens the query can see plus the earliest lease deadline it
// contains — cached answers
// are always exactly what a live evaluation would return. Concurrent
// identical queries share one computation through a singleflight group.
func (s *Store) Evaluate(kind describe.Kind, payload []byte, opts QueryOptions, now time.Time) ([]wire.Advertisement, error) {
	start := time.Now()
	plan, err := s.plan(kind, payload)
	if err != nil {
		if errors.Is(err, ErrUnknownKind) {
			return nil, err
		}
		return nil, fmt.Errorf("registry: bad query payload: %w", err)
	}
	limit := s.EffectiveLimit(opts)
	var out []wire.Advertisement
	if s.qcache != nil && !opts.NoCache {
		key := qkey{hash: plan.hash, kind: kind, limit: limit, best: opts.BestOnly}
		out = s.qcache.evaluate(s, key, payload, kind, plan, limit, now)
	} else {
		out, _ = s.evaluateLive(kind, plan, limit, now)
	}
	mEvaluate.Inc()
	mEvaluateLatency.Observe(time.Since(start).Microseconds())
	return out, nil
}

// evaluateLive runs the uncached evaluation and returns the ranked,
// capped result set plus the earliest lease deadline among the returned
// advertisements (zero when the set is empty) — the freshness horizon a
// cached copy of this result is valid until.
func (s *Store) evaluateLive(kind describe.Kind, plan *queryPlan, limit int, now time.Time) ([]wire.Advertisement, time.Time) {
	// Query tokens resolve to interned IDs once per evaluation, never
	// in the cached plan: a token unknown to the interner has no
	// posting bucket today but may be interned by a later publish.
	var qtoks []tok
	if plan.prunable {
		qtoks = s.toks.lookupAll(plan.tokens)
	}
	top := newTopK(limit)
	for _, sh := range s.shards {
		sh.collect(kind, plan, qtoks, now, top)
	}
	hits := top.hits
	sortHits(hits)
	out := make([]wire.Advertisement, len(hits))
	var minExpiry time.Time
	for i, h := range hits {
		out[i] = h.adv
		if minExpiry.IsZero() || h.expires.Before(minExpiry) {
			minExpiry = h.expires
		}
	}
	if top.dropped > 0 {
		mEvaluateTruncated.Inc()
	}
	return out, minExpiry
}

// collect evaluates the shard's candidates for the plan into top.
// Scan activity accumulates in a local counter and lands in the
// aggregate obs counter with one atomic add per pass, keeping the
// per-candidate loop free of shared-cacheline traffic.
func (sh *shard) collect(kind describe.Kind, plan *queryPlan, qtoks []tok, now time.Time, top *topK) {
	var scanned uint64
	defer func() {
		if scanned > 0 {
			mShardScans.Add(scanned)
		}
	}()
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ki := sh.kinds[kind]
	if ki == nil {
		return
	}
	consider := func(st *stored) {
		scanned++
		if st.expires.Before(now) {
			return // expired but not yet purged: never serve stale data
		}
		if ev := plan.model.Evaluate(plan.query, st.description()); ev.Matched {
			// The hit snapshots the advert by value: the record's arena
			// slot may be recycled the moment the read lock drops.
			top.push(&hit{adv: st.advert, key: st.serviceKey(), ev: ev, expires: st.expires})
		}
	}
	if g := ki.smallestGroup(plan, qtoks); g >= 0 {
		// Output path (postings.go): the union of one output group,
		// each advert visited in the list of its first output in the
		// group, filtered on category and the other groups.
		grp := &plan.groups[g]
		for _, id := range grp.ids {
			if int(id) >= len(ki.byOut) {
				break
			}
			list := ki.byOut[id]
			for i := range list {
				p := &list[i]
				if p.firstIn(grp.set) != id || (plan.catSet != nil && !plan.catSet.has(p.cat)) || !p.meets(plan.groups, g) {
					continue
				}
				consider(p.st)
			}
		}
		return
	}
	if plan.prunable {
		// Category path: only adverts sharing a token can match, plus
		// token-less adverts which are always considered conservatively.
		// An advert appears in exactly one bucket per distinct token it
		// carries, and token-less adverts appear in no bucket, so dedup
		// state is needed only for multi-token adverts — single-token
		// populations (the common case) allocate no map at all.
		var seen map[uuid.UUID]struct{}
		for _, t := range qtoks {
			list := ki.byTok[t]
			for i := range list {
				p := &list[i]
				if !p.meets(plan.groups, -1) {
					continue
				}
				if len(p.st.toks) > 1 {
					if seen == nil {
						seen = make(map[uuid.UUID]struct{})
					}
					if _, dup := seen[p.st.advert.ID]; dup {
						continue
					}
					seen[p.st.advert.ID] = struct{}{}
				}
				consider(p.st)
			}
		}
		for i := range ki.noTok {
			if p := &ki.noTok[i]; p.meets(plan.groups, -1) {
				consider(p.st)
			}
		}
	} else {
		for _, st := range ki.all {
			if p := st.posting(); p.meets(plan.groups, -1) {
				consider(st)
			}
		}
	}
}

// mergeCand is one pooled advertisement on its way through MergeRank;
// its index in the candidate slice is its arrival rank across the pools.
type mergeCand struct {
	adv *wire.Advertisement // in the caller's pool
	held
	key string
	ev  describe.Evaluation
}

// MergeRank re-ranks advertisements pooled from several registries and
// applies response control once more — the entry registry's aggregation
// step for federated queries. Duplicate advertisement IDs keep the
// highest version (the first seen among equals); duplicate service keys
// keep the lowest ID; every survivor is re-checked against this node's
// model ("remote registry had a different opinion") and ranked by
// rankCompare. The query payload goes through the same plan cache as
// Evaluate, and an advert the store itself holds — this node's own
// Evaluate pool — is matched on a copy of its resident record, so a
// query is decoded once per node and a stored advert once per publish.
func (s *Store) MergeRank(kind describe.Kind, payload []byte, pools [][]wire.Advertisement, opts QueryOptions) ([]wire.Advertisement, error) {
	plan, err := s.plan(kind, payload)
	if err != nil {
		return nil, err
	}
	mMergeRank.Inc()
	n := 0
	for _, pool := range pools {
		n += len(pool)
	}
	// The candidates stay put; order is the permutation that gets sorted.
	cands := make([]mergeCand, 0, n)
	order := make([]int32, 0, n)
	for _, pool := range pools {
		for i := range pool {
			order = append(order, int32(len(cands)))
			cands = append(cands, mergeCand{adv: &pool[i]})
		}
	}
	// Each ID's run starts with the copy to keep.
	slices.SortFunc(order, func(i, j int32) int {
		a, b := cands[i].adv, cands[j].adv
		if c := uuid.Compare(a.ID, b.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(b.Version, a.Version); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	kept := order[:0]
	var prev uuid.UUID
	for k, i := range order {
		c := &cands[i]
		if k > 0 && c.adv.ID == prev {
			continue
		}
		prev = c.adv.ID
		if !s.loadResident(kind, c.adv, &c.held) {
			desc, err := plan.model.DecodeDescription(c.adv.Payload)
			if err != nil {
				continue // corrupt result from a remote registry: skip
			}
			c.set(desc)
		}
		c.key = c.serviceKey()
		kept = append(kept, i)
	}
	// Each service key's run starts with the advert that stands for it:
	// the store's rule (the highest version), and on a version tie,
	// which pools cannot order by arrival, the lowest ID.
	slices.SortFunc(kept, func(i, j int32) int {
		if c := strings.Compare(cands[i].key, cands[j].key); c != 0 {
			return c
		}
		if c := cmp.Compare(cands[j].adv.Version, cands[i].adv.Version); c != 0 {
			return c
		}
		return uuid.Compare(cands[i].adv.ID, cands[j].adv.ID)
	})
	matched := kept[:0]
	prevKey := ""
	for _, i := range kept {
		c := &cands[i]
		if c.key != "" && c.key == prevKey {
			continue
		}
		prevKey = c.key
		if c.ev = plan.model.Evaluate(plan.query, c.description()); c.ev.Matched {
			matched = append(matched, i)
		}
	}
	slices.SortFunc(matched, func(i, j int32) int {
		a, b := &cands[i], &cands[j]
		return rankCompare(a.ev, a.key, a.adv.ID, b.ev, b.key, b.adv.ID)
	})
	if limit := s.EffectiveLimit(opts); len(matched) > limit {
		matched = matched[:max(limit, 0)]
	}
	out := make([]wire.Advertisement, len(matched))
	for k, i := range matched {
		out[k] = *cands[i].adv
	}
	return out, nil
}

// loadResident copies the store's own description of a pooled advert
// into h when the store holds that very advert — same ID, kind, version
// and payload bytes (for this node's own Evaluate pool the payload even
// shares its backing array, which bytes.Equal notices before comparing).
// A semantic record is copied by value under the shard read lock, since
// its arena slot may be recycled once the lock drops; false sends the
// caller to DecodeDescription.
func (s *Store) loadResident(kind describe.Kind, a *wire.Advertisement, h *held) bool {
	sh := s.shardFor(a.ID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if st, ok := sh.adverts[a.ID]; ok && st.advert.Kind == kind && st.advert.Version == a.Version && bytes.Equal(st.advert.Payload, a.Payload) {
		*h = st.held
		return true
	}
	return false
}

// Summary aggregates the summary tokens of all live advertisements per
// kind — the digest registries gossip to peers for forwarding pruning.
func (s *Store) Summary() []wire.SummaryEntry {
	var entries []wire.SummaryEntry
	for _, k := range s.models.Kinds() {
		tokens := map[tok]bool{}
		for _, sh := range s.shards {
			sh.mu.RLock()
			if ki := sh.kinds[k]; ki != nil {
				for _, st := range ki.all {
					for _, t := range st.toks {
						tokens[t] = true
					}
				}
			}
			sh.mu.RUnlock()
		}
		if len(tokens) == 0 {
			continue
		}
		list := make([]string, 0, len(tokens))
		for t := range tokens {
			list = append(list, s.toks.str(t))
		}
		sort.Strings(list)
		entries = append(entries, wire.SummaryEntry{Kind: k, Tokens: list})
	}
	return entries
}

// Adverts returns all stored advertisements (deterministic order); the
// federation's push-cooperation and tests use it.
func (s *Store) Adverts() []wire.Advertisement {
	out := make([]wire.Advertisement, 0, s.Len())
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, st := range sh.adverts {
			out = append(out, st.advert)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return uuid.Compare(out[i].ID, out[j].ID) < 0 })
	return out
}

// Advert returns a stored advertisement by ID.
func (s *Store) Advert(id uuid.UUID) (wire.Advertisement, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.adverts[id]
	if !ok {
		return wire.Advertisement{}, false
	}
	return st.advert, true
}

// LeaseDeadline returns the advertisement's current absolute lease
// deadline; ok=false when the registry does not hold the advertisement.
// Crash-recovery tests and the /status endpoint use it to check that a
// recovered advert kept exactly the remaining lease it had.
func (s *Store) LeaseDeadline(id uuid.UUID) (time.Time, bool) {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	st, ok := sh.adverts[id]
	if !ok {
		return time.Time{}, false
	}
	return st.expires, true
}

// Has reports whether the advertisement is stored (and not yet purged).
func (s *Store) Has(id uuid.UUID) bool {
	sh := s.shardFor(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.adverts[id]
	return ok
}

// Subscribe registers a standing query; every future publish whose
// description matches produces a Notification (the paper notes "some
// systems today also allow registration for notifications about service
// advertisements of interest"). The zero expires time means no expiry
// (in-process subscriptions); wire subscriptions pass a lease deadline
// and renew by re-subscribing under the same ID.
//
// The subscription is compiled into the inverted notification index
// here, once — Publish then probes posting lists instead of evaluating
// every standing query (subindex.go). Subscribe returns once the
// registration is durable: SubscribeAsync plus the wait.
func (s *Store) Subscribe(kind describe.Kind, payload []byte, notifyAddr string, id uuid.UUID, expires time.Time) (uuid.UUID, error) {
	id, lsn, err := s.SubscribeAsync(kind, payload, notifyAddr, id, expires)
	if err == nil {
		err = s.sync(lsn)
	}
	if err != nil {
		return uuid.Nil, err
	}
	return id, nil
}

// SubscribeAsync is Subscribe without the durability wait; the
// registration may be acknowledged once WhenDurable settles the
// returned LSN.
func (s *Store) SubscribeAsync(kind describe.Kind, payload []byte, notifyAddr string, id uuid.UUID, expires time.Time) (uuid.UUID, uint64, error) {
	plan, err := s.plan(kind, payload)
	if err != nil {
		return uuid.Nil, 0, err
	}
	// The payload is retained on the record (cloned: the wire buffer it
	// arrived in is reused) so snapshot dumps can re-encode the
	// subscription exactly as it was registered.
	pl := append([]byte(nil), payload...)
	s.subMu.Lock()
	if existing, ok := s.subs[id]; ok {
		// Renewal. A renewal may change the query or kind, which changes
		// the posting lists the subscription belongs to, so the old
		// record is tombstoned and replaced by a fresh one that keeps
		// the original seq and slot — the notification order is stable
		// across renewals, exactly like the in-place update it replaces.
		sub := &subscription{
			id: id, seq: existing.seq, pos: existing.pos,
			kind: kind, query: plan.query, payload: pl, notify: notifyAddr, expires: expires,
		}
		if s.subidx != nil {
			s.subidx.remove(existing)
		}
		existing.removed = true
		s.subsArr[existing.pos] = sub
		s.subs[id] = sub
		if s.subidx != nil {
			s.compileSub(sub, plan)
			s.subidx.insert(sub)
			s.maybeRebuildSubsLocked()
		}
	} else {
		s.subSeq++
		sub := &subscription{
			id: id, seq: s.subSeq, pos: len(s.subsArr),
			kind: kind, query: plan.query, payload: pl, notify: notifyAddr, expires: expires,
		}
		s.subs[id] = sub
		s.subsArr = append(s.subsArr, sub)
		if s.subidx != nil {
			s.compileSub(sub, plan)
			s.subidx.insert(sub)
		}
	}
	var lsn uint64
	if s.backend != nil {
		lsn = s.backend.AppendSubscribe(id, kind, pl, notifyAddr, expires)
	}
	s.subMu.Unlock()
	return id, lsn, nil
}

// PruneSubscriptions drops standing queries whose lease lapsed and
// returns how many were removed. Like ExpireThrough it does not wait
// for its log record.
func (s *Store) PruneSubscriptions(now time.Time) int {
	s.subMu.Lock()
	removed := 0
	for i, sub := range s.subsArr {
		if sub == nil || sub.alive(now) {
			continue
		}
		delete(s.subs, sub.id)
		sub.removed = true
		s.subsArr[i] = nil
		s.subsDead++
		if s.subidx != nil {
			s.subidx.remove(sub)
		}
		removed++
	}
	if removed > 0 {
		s.compactSubsLocked()
		s.maybeRebuildSubsLocked()
		// Logged under subMu for the same misordering reason as
		// AppendExpire: prune timing is result-affecting for renewals.
		if s.backend != nil {
			s.backend.AppendPruneSubs(now)
		}
	}
	s.subMu.Unlock()
	return removed
}

// NumSubscriptions returns the number of standing queries (including
// expired-but-unpruned ones).
func (s *Store) NumSubscriptions() int {
	s.subMu.RLock()
	defer s.subMu.RUnlock()
	return len(s.subs)
}

// Unsubscribe removes a standing query in O(1): the array slot is
// tombstoned (compacted amortized) and the index postings are dropped
// lazily, so removal cost does not grow with the subscription count.
// Nothing acknowledges a withdrawal, so it does not wait for its log
// record either: the record rides the next barrier (or Close).
func (s *Store) Unsubscribe(id uuid.UUID) bool {
	s.subMu.Lock()
	sub, ok := s.subs[id]
	if !ok {
		s.subMu.Unlock()
		return false
	}
	delete(s.subs, id)
	sub.removed = true
	s.subsArr[sub.pos] = nil
	s.subsDead++
	if s.subidx != nil {
		s.subidx.remove(sub)
	}
	s.compactSubsLocked()
	s.maybeRebuildSubsLocked()
	if s.backend != nil {
		s.backend.AppendUnsubscribe(id)
	}
	s.subMu.Unlock()
	return true
}

// compactSubsLocked rewrites subsArr without tombstones once they
// outnumber live entries — amortized O(1) per removal, and insertion
// order (the notification order) is preserved. The caller holds the
// subMu write lock.
func (s *Store) compactSubsLocked() {
	if s.subsDead <= 32 || s.subsDead*2 <= len(s.subsArr) {
		return
	}
	kept := s.subsArr[:0]
	for _, sub := range s.subsArr {
		if sub != nil {
			sub.pos = len(kept)
			kept = append(kept, sub)
		}
	}
	// Clear the tail so dropped subscriptions don't linger reachable.
	tail := s.subsArr[len(kept):]
	for i := range tail {
		tail[i] = nil
	}
	s.subsArr = kept
	s.subsDead = 0
}

// PutArtifact stores an ontology/schema document under its IRI (§4.6).
func (s *Store) PutArtifact(iri string, data []byte) {
	cp := make([]byte, len(data))
	copy(cp, data)
	s.artMu.Lock()
	s.artifacts[iri] = cp
	s.artMu.Unlock()
}

// Artifact fetches a stored artifact.
func (s *Store) Artifact(iri string) ([]byte, bool) {
	s.artMu.RLock()
	defer s.artMu.RUnlock()
	d, ok := s.artifacts[iri]
	return d, ok
}
