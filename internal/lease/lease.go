// Package lease implements the aliveness mechanism the paper identifies
// as the missing piece of UDDI-era Web Service discovery (§4.8):
//
//	"the provider of a service obtains a lease when publishing its
//	 service description to the registry. From then on, the provider
//	 must periodically confirm that it is alive. Should a service
//	 crash, it would not be able to renew its lease, and the service
//	 description would be purged from the registry."
//
// The table tracks expiry deadlines with a heap so purging expired
// entries costs O(log n) per expiry regardless of table size. Time is
// always passed in explicitly, keeping the table deterministic under
// the experiment simulator and trivially testable.
//
// Grant, Renew and ExpireThrough tick the lease.* runtime metrics
// (see OBSERVABILITY.md), making churn visible at a live registry.
package lease

import (
	"container/heap"
	"time"

	"semdisco/internal/obs"
	"semdisco/internal/uuid"
)

// Lease-lifecycle observability, aggregated over every table in the
// process (each registry shard owns one). The grant/renew/expire rates
// are the paper's §4.8 aliveness protocol made visible: a healthy
// population renews, a churning one expires. Documented in
// OBSERVABILITY.md.
var (
	mGranted = obs.NewCounter("lease.granted", "count",
		"leases created or refreshed by publish")
	mRenewed = obs.NewCounter("lease.renewed", "count",
		"leases extended by explicit renewal")
	mExpired = obs.NewCounter("lease.expired", "count",
		"leases that lapsed and were swept")
)

// Policy clamps requested lease durations to what a registry accepts.
type Policy struct {
	// Min and Max bound granted durations; zero-valued bounds default
	// to 1 s and 10 min.
	Min, Max time.Duration
	// Default is granted when the request does not specify a duration;
	// zero defaults to 30 s (Jini's default lease granularity class).
	Default time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Min == 0 {
		p.Min = time.Second
	}
	if p.Max == 0 {
		p.Max = 10 * time.Minute
	}
	if p.Default == 0 {
		p.Default = 30 * time.Second
	}
	return p
}

// Clamp returns the duration the registry actually grants for a
// requested duration (0 means "registry default").
func (p Policy) Clamp(requested time.Duration) time.Duration {
	p = p.withDefaults()
	switch {
	case requested <= 0:
		return p.Default
	case requested < p.Min:
		return p.Min
	case requested > p.Max:
		return p.Max
	default:
		return requested
	}
}

// Table tracks lease expirations for advertisement IDs. The zero value
// is not usable; construct with NewTable. Table is not safe for
// concurrent use.
type Table struct {
	policy  Policy
	entries map[uuid.UUID]*Lease
	pq      expiryHeap
}

// Lease is the table's record of one lease, handed out by Grant so the
// holder reads the deadline without a table lookup. It is the table's
// only copy of the deadline: Grant and Renew move it in place, and it
// stays valid (at its last deadline) after the lease is removed. Reads
// need the same exclusion as the table's own methods.
type Lease struct {
	id      uuid.UUID
	expires time.Time
	index   int // heap index, -1 when removed
}

// Expires returns the lease deadline.
func (l *Lease) Expires() time.Time { return l.expires }

// AliveUntil returns the lease deadline when it has not passed at now.
// The query path uses it to stamp cached results with the earliest
// deadline of the advertisements they contain.
func (l *Lease) AliveUntil(now time.Time) (time.Time, bool) {
	if l.expires.Before(now) {
		return time.Time{}, false
	}
	return l.expires, true
}

type expiryHeap []*Lease

func (h expiryHeap) Len() int           { return len(h) }
func (h expiryHeap) Less(i, j int) bool { return h[i].expires.Before(h[j].expires) }
func (h expiryHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *expiryHeap) Push(x any) {
	e := x.(*Lease)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *expiryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

// NewTable returns an empty lease table under the given policy.
func NewTable(policy Policy) *Table {
	return &Table{
		policy:  policy.withDefaults(),
		entries: make(map[uuid.UUID]*Lease),
	}
}

// Len returns the number of live leases.
func (t *Table) Len() int { return len(t.entries) }

// Grant creates or refreshes the lease for id, clamping the requested
// duration by policy, and returns the lease with the granted duration.
func (t *Table) Grant(id uuid.UUID, requested time.Duration, now time.Time) (*Lease, time.Duration) {
	granted := t.policy.Clamp(requested)
	mGranted.Inc()
	if e, ok := t.entries[id]; ok {
		e.expires = now.Add(granted)
		heap.Fix(&t.pq, e.index)
		return e, granted
	}
	e := &Lease{id: id, expires: now.Add(granted)}
	t.entries[id] = e
	heap.Push(&t.pq, e)
	return e, granted
}

// Renew extends an existing lease by its policy-default duration (the
// wire protocol's renew carries no duration; the registry re-grants
// what it granted at publish time, clamped). It reports whether the
// lease still existed — false tells the provider to republish.
func (t *Table) Renew(id uuid.UUID, requested time.Duration, now time.Time) (time.Duration, bool) {
	e, ok := t.entries[id]
	if !ok {
		return 0, false
	}
	granted := t.policy.Clamp(requested)
	mRenewed.Inc()
	e.expires = now.Add(granted)
	heap.Fix(&t.pq, e.index)
	return granted, true
}

// Remove deletes the lease, reporting whether it existed.
func (t *Table) Remove(id uuid.UUID) bool {
	e, ok := t.entries[id]
	if !ok {
		return false
	}
	delete(t.entries, id)
	heap.Remove(&t.pq, e.index)
	return true
}

// Alive reports whether id holds an unexpired lease at now.
func (t *Table) Alive(id uuid.UUID, now time.Time) bool {
	e, ok := t.entries[id]
	return ok && !e.expires.Before(now)
}

// ExpireThrough removes every lease whose deadline is at or before now
// and returns their IDs (the advertisements the registry must purge).
func (t *Table) ExpireThrough(now time.Time) []uuid.UUID {
	var out []uuid.UUID
	for t.pq.Len() > 0 && !t.pq[0].expires.After(now) {
		e := heap.Pop(&t.pq).(*Lease)
		delete(t.entries, e.id)
		out = append(out, e.id)
	}
	mExpired.Add(uint64(len(out)))
	return out
}

// NextExpiry returns the earliest deadline in the table; ok=false when
// empty. Registries use it to schedule their purge timer precisely
// instead of polling.
func (t *Table) NextExpiry() (time.Time, bool) {
	if t.pq.Len() == 0 {
		return time.Time{}, false
	}
	return t.pq[0].expires, true
}
