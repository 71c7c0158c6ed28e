package transport

import (
	"errors"
	"sync"
	"time"

	"semdisco/internal/codec"
	"semdisco/internal/obs"
	"semdisco/internal/wire"
)

// Datagram coalescing observability: how much traffic rides the batch
// path and what triggers flushes. Documented in OBSERVABILITY.md.
var (
	mBatchQueued = obs.NewCounter("transport.batch.queued.msgs", "count",
		"messages accepted into per-destination batch queues")
	mBatchBypass = obs.NewCounter("transport.batch.bypass.msgs", "count",
		"messages sent immediately because their type is not batch-eligible")
	mBatchFlushSize = obs.NewCounter("transport.batch.flush.size", "count",
		"queue flushes triggered by the size or message-count threshold")
	mBatchFlushDeadline = obs.NewCounter("transport.batch.flush.deadline", "count",
		"queue flushes triggered by the flush-delay deadline")
	mBatchFrames = obs.NewCounter("transport.batch.frames", "count",
		"coalesced batch frames sent (2+ messages in one datagram)")
	mBatchMsgs = obs.NewCounter("transport.batch.batched.msgs", "count",
		"messages sent inside coalesced batch frames")
	mBatchSolo = obs.NewCounter("transport.batch.solo.msgs", "count",
		"flushed messages sent as plain frames (queue held only one)")
)

// Outgoing is one destined datagram in a multi-send operation.
type Outgoing struct {
	To   Addr
	Data []byte
}

// BatchSender is optionally implemented by bearers that can hand a group
// of datagrams to the network in a single operation — sendmmsg on the
// UDP transport, one event-loop entry on the simulator. Each Outgoing is
// still an independent datagram: loss, reordering and duplication apply
// per element, never to the group.
type BatchSender interface {
	UnicastBatch(msgs []Outgoing) error
}

// BatcherConfig tunes a Batcher. The zero value gives MTU-bounded
// batches of up to 32 messages flushed within 2ms.
type BatcherConfig struct {
	// MaxMessages flushes a destination's queue when it reaches this
	// many messages (bounded by wire.MaxBatchMessages); default 32.
	MaxMessages int
	// MaxBytes bounds the coalesced datagram: a queue is flushed before
	// accepting a frame that would push the batch — framing overhead
	// included — past this size, and any single message at least this
	// large bypasses batching; default 1400 (one Ethernet MTU).
	MaxBytes int
	// FlushDelay bounds how long an eligible message may wait for
	// companions; default 2ms.
	FlushDelay time.Duration
	// Eligible selects which message types are worth delaying; nil uses
	// DefaultBatchEligible.
	Eligible func(wire.MsgType) bool
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxMessages <= 0 {
		c.MaxMessages = 32
	}
	if c.MaxMessages > wire.MaxBatchMessages {
		c.MaxMessages = wire.MaxBatchMessages
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 1400
	}
	if c.FlushDelay <= 0 {
		c.FlushDelay = 2 * time.Millisecond
	}
	if c.Eligible == nil {
		c.Eligible = DefaultBatchEligible
	}
	return c
}

// DefaultBatchEligible marks the small high-rate message types — lease
// renewals and their acks, aliveness checks, gossip, summary deltas and
// notify/result fan-out — as coalescible. Conversation-opening requests
// (probe, query, publish, subscribe, artifact transfer) stay immediate:
// they are latency-sensitive and rarely have companions to share a
// datagram with.
func DefaultBatchEligible(t wire.MsgType) bool {
	switch t {
	case wire.TRenew, wire.TRenewAck, wire.TPublishAck, wire.TPing, wire.TPong,
		wire.TBeacon, wire.TPeerExchange, wire.TQueryResult,
		wire.TSummaryDelta, wire.TSummaryAck,
		wire.TDirectoryDelta, wire.TDirectoryAck:
		return true
	}
	return false
}

// Batcher wraps an Iface with flush-on-size/flush-on-deadline datagram
// coalescing: eligible marshaled envelopes queue per destination and go
// out as one wire batch frame, so high-rate small messages share a
// datagram (and a syscall on udpnet) instead of paying per-message
// overhead. Ineligible or oversized messages pass straight through.
//
// The Batcher takes ownership of the data slices it queues; callers
// must not reuse them after Unicast returns. Flush timing runs on the
// bearer's Clock, so coalescing stays deterministic on the simulator.
// All methods are safe for concurrent use.
type Batcher struct {
	inner Iface
	clock Clock
	cfg   BatcherConfig

	mu     sync.Mutex
	queues map[Addr]*batchQueue
	order  []Addr // flush order: first-queued first, deterministic
	timer  CancelFunc
	closed bool
}

type batchQueue struct {
	frames [][]byte
	bytes  int // payload bytes queued
	prefix int // per-frame uvarint length prefixes a batch frame would add
}

// NewBatcher wraps inner with coalescing. The clock schedules deadline
// flushes (pass the bearer itself on udpnet/memnet-backed nodes).
func NewBatcher(inner Iface, clock Clock, cfg BatcherConfig) *Batcher {
	return &Batcher{
		inner:  inner,
		clock:  clock,
		cfg:    cfg.withDefaults(),
		queues: make(map[Addr]*batchQueue),
	}
}

// Addr implements Iface.
func (b *Batcher) Addr() Addr { return b.inner.Addr() }

// errBatcherClosed is returned for sends after Close.
var errBatcherClosed = errors.New("transport: batcher closed")

// Unicast implements Iface: eligible frames queue for coalescing,
// everything else is forwarded immediately.
func (b *Batcher) Unicast(to Addr, data []byte) error {
	t, ok := wire.FrameType(data)
	if !ok || !b.cfg.Eligible(t) || len(data) >= b.cfg.MaxBytes {
		mBatchBypass.Inc()
		return b.inner.Unicast(to, data)
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return errBatcherClosed
	}
	q := b.queues[to]
	if q == nil {
		q = &batchQueue{}
		b.queues[to] = q
		b.order = append(b.order, to)
	}
	// Flush-before-append: if coalescing data into the waiting frames
	// would push the batch datagram — framing overhead included — past
	// MaxBytes, the queue goes out now and data starts the next batch,
	// so a coalesced datagram never exceeds the MTU bound.
	var spill [][]byte
	if len(q.frames) > 0 &&
		q.bytes+q.prefix+len(data)+codec.UvarintLen(uint64(len(data)))+
			wire.BatchOverhead(len(q.frames)+1, nil) > b.cfg.MaxBytes {
		spill = q.frames
		q.frames, q.bytes, q.prefix = nil, 0, 0
		mBatchFlushSize.Inc()
	}
	q.frames = append(q.frames, data)
	q.bytes += len(data)
	q.prefix += codec.UvarintLen(uint64(len(data)))
	mBatchQueued.Inc()
	if len(q.frames) >= b.cfg.MaxMessages {
		out := b.takeLocked(to)
		mBatchFlushSize.Inc()
		b.mu.Unlock()
		var err error
		if spill != nil {
			err = b.inner.Unicast(to, coalesce(spill))
		}
		if e := b.inner.Unicast(to, coalesce(out)); err == nil {
			err = e
		}
		return err
	}
	if b.timer == nil {
		b.timer = b.clock.After(b.cfg.FlushDelay, b.onDeadline)
	}
	b.mu.Unlock()
	if spill != nil {
		return b.inner.Unicast(to, coalesce(spill))
	}
	return nil
}

// takeLocked detaches and returns to's queued frames.
func (b *Batcher) takeLocked(to Addr) [][]byte {
	q := b.queues[to]
	if q == nil {
		return nil
	}
	delete(b.queues, to)
	for i, a := range b.order {
		if a == to {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return q.frames
}

// coalesce turns a flushed queue into one datagram.
func coalesce(frames [][]byte) []byte {
	if len(frames) == 1 {
		mBatchSolo.Inc()
		return frames[0]
	}
	mBatchFrames.Inc()
	mBatchMsgs.Add(uint64(len(frames)))
	return wire.EncodeBatch(frames)
}

// onDeadline flushes every queue when the flush-delay timer fires. The
// deadline counter moves only when the drain finds something waiting;
// a timer that fires after size flushes emptied every queue is not a
// deadline flush.
func (b *Batcher) onDeadline() {
	b.mu.Lock()
	b.timer = nil
	outs := b.drainLocked()
	if len(outs) > 0 {
		mBatchFlushDeadline.Inc()
	}
	b.mu.Unlock()
	b.send(outs)
}

// drainLocked empties all queues into coalesced outgoing datagrams in
// deterministic first-queued order.
func (b *Batcher) drainLocked() []Outgoing {
	if len(b.order) == 0 {
		return nil
	}
	outs := make([]Outgoing, 0, len(b.order))
	for _, to := range b.order {
		q := b.queues[to]
		delete(b.queues, to)
		outs = append(outs, Outgoing{To: to, Data: coalesce(q.frames)})
	}
	b.order = b.order[:0]
	return outs
}

// send pushes drained datagrams to the bearer, using its multi-send
// operation when it has one.
func (b *Batcher) send(outs []Outgoing) {
	if len(outs) == 0 {
		return
	}
	if bs, ok := b.inner.(BatchSender); ok && len(outs) > 1 {
		_ = bs.UnicastBatch(outs) // best-effort, like UDP
		return
	}
	for _, o := range outs {
		_ = b.inner.Unicast(o.To, o.Data)
	}
}

// Flush sends everything queued without waiting for the deadline.
func (b *Batcher) Flush() {
	b.mu.Lock()
	if b.timer != nil {
		b.timer()
		b.timer = nil
	}
	outs := b.drainLocked()
	b.mu.Unlock()
	b.send(outs)
}

// Multicast implements Iface; multicasts (periodic beacons, LAN probes)
// are one-per-interval and pass straight through.
func (b *Batcher) Multicast(data []byte) error {
	return b.inner.Multicast(data)
}

// Close implements Iface: pending messages are flushed, then the
// underlying iface is closed.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	if b.timer != nil {
		b.timer()
		b.timer = nil
	}
	outs := b.drainLocked()
	b.mu.Unlock()
	b.send(outs)
	return b.inner.Close()
}
