package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/transport"
)

// tracer records spans around the calls into each layer from the
// benchmark's own files: a closure around runtime.Dispatch, decorators
// of the node's Iface and Clock, and a decorator of the semantic model.
// Spans inside the program are a later change (ROADMAP item 2).
//
// One slot per client address carries the registry-side timestamps of
// that client's one outstanding op; the client copies them into a span
// when the reply arrives. Every slot field is written before the reply
// datagram leaves, so the client never reads a stale one.
type tracer struct {
	epoch time.Time
	slots map[transport.Addr]*slot // filled before any handler runs, then read-only

	send    samples // every Iface.Unicast, ns
	requeue samples // Clock.After(0) call → callback start, ns: the read pool's way back onto the node goroutine

	evalCalls atomic.Int64 // Model.Evaluate calls
	evalTimed atomic.Int64 // the 1 in 64 of them that were timed
	evalNanos atomic.Int64
}

func newTracer() *tracer { return &tracer{slots: make(map[transport.Addr]*slot)} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type samples struct {
	mu sync.Mutex
	v  []int64
}

func (s *samples) add(d int64) {
	s.mu.Lock()
	s.v = append(s.v, d)
	s.mu.Unlock()
}

func (s *samples) take() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := s.v
	s.v = nil
	return v
}

// slot holds ns-since-epoch timestamps of the latest datagram from, and
// the latest reply to, one client.
type slot struct {
	handlerIn   atomic.Int64 // handler entry
	dispatchEnd atomic.Int64 // runtime.Dispatch returned
	replyStart  atomic.Int64 // Unicast of the reply about to be called
}

func (t *tracer) register(addr string) *slot {
	s := &slot{}
	t.slots[transport.Addr(addr)] = s
	return s
}

// span is one op across the layer boundaries the harness can see, all
// times ns since the session epoch.
type span struct {
	Client      int    `json:"client"`
	Op          int    `json:"op"`
	Kind        string `json:"kind"`
	Send        int64  `json:"send"`         // client about to write the request
	Sent        int64  `json:"sent"`         // client's write returned
	HandlerIn   int64  `json:"handler_in"`   // registry handler entered
	DispatchEnd int64  `json:"dispatch_end"` // runtime.Dispatch returned (0: not before the reply)
	ReplyStart  int64  `json:"reply_start"`  // registry about to write the reply
	Recv        int64  `json:"recv"`         // client decoded the matching reply
}

var kindNames = map[opKind]string{opQuery: "query", opRenew: "renew", opReplace: "replace"}

func (s *slot) span(client, op int, kind opKind, send, sent, recv int64) span {
	sp := span{
		Client: client, Op: op, Kind: kindNames[kind],
		Send: send, Sent: sent, Recv: recv,
		HandlerIn:  s.handlerIn.Load(),
		ReplyStart: s.replyStart.Load(),
	}
	// Dispatch may still be running when the reply arrives (inline
	// evaluation answers from inside it); then its end is unknown.
	if end := s.dispatchEnd.Load(); end >= sp.HandlerIn {
		sp.DispatchEnd = end
	}
	return sp
}

func (t *tracer) wrapHandler(h transport.Handler) transport.Handler {
	return func(from transport.Addr, data []byte) {
		s := t.slots[from]
		if s == nil {
			h(from, data)
			return
		}
		s.handlerIn.Store(t.now())
		h(from, data)
		s.dispatchEnd.Store(t.now())
	}
}

type tracedIface struct {
	transport.Iface
	t *tracer
}

func (t *tracer) wrapIface(i transport.Iface) transport.Iface { return tracedIface{i, t} }

func (i tracedIface) Unicast(to transport.Addr, data []byte) error {
	start := i.t.now()
	if s := i.t.slots[to]; s != nil {
		s.replyStart.Store(start)
	}
	err := i.Iface.Unicast(to, data)
	i.t.send.add(i.t.now() - start)
	return err
}

type tracedClock struct {
	transport.Clock
	t *tracer
}

func (t *tracer) wrapClock(c transport.Clock) transport.Clock { return tracedClock{c, t} }

func (c tracedClock) After(d time.Duration, fn func()) transport.CancelFunc {
	if d != 0 {
		return c.Clock.After(d, fn)
	}
	called := c.t.now()
	return c.Clock.After(0, func() {
		c.t.requeue.add(c.t.now() - called)
		fn()
	})
}

// tracedModel counts every candidate the registry hands the matcher and
// times one in 64. It forwards ConceptIndexer, which the store's
// subscription index looks for.
type tracedModel struct {
	describe.Model
	idx describe.ConceptIndexer
	t   *tracer
}

func (t *tracer) wrapModel(m describe.Model) describe.Model {
	return tracedModel{Model: m, idx: m.(describe.ConceptIndexer), t: t}
}

func (m tracedModel) Evaluate(q describe.Query, d describe.Description) describe.Evaluation {
	if m.t.evalCalls.Add(1)&63 != 0 {
		return m.Model.Evaluate(q, d)
	}
	start := time.Now()
	ev := m.Model.Evaluate(q, d)
	m.t.evalNanos.Add(int64(time.Since(start)))
	m.t.evalTimed.Add(1)
	return ev
}

func (m tracedModel) DescriptionConceptID(d describe.Description) (int32, bool) {
	return m.idx.DescriptionConceptID(d)
}

func (m tracedModel) QueryConceptIDs(q describe.Query) ([]int32, bool) {
	return m.idx.QueryConceptIDs(q)
}

// stage is one row of the stage table.
type stage struct {
	Name  string  `json:"stage"`
	P50us float64 `json:"p50_us"`
	P99us float64 `json:"p99_us"`
	// MedianOpUs is the stage's mean over the ops whose whole latency
	// lies between the client's 45th and 55th percentile: what the
	// median op spent here. Unlike the per-stage medians these add up.
	MedianOpUs float64 `json:"median_op_us"`
}

// stageTable splits the client-observed latency of the window's spans
// into four consecutive stages that share their edges, so per op they
// add up to the latency exactly (bar a clamped negative queue wait).
type stageTable struct {
	Stages      []stage `json:"stages"`
	ClientP50us float64 `json:"client_p50_us"`
	// SumMedianOpUs is the median-op column summed; it should equal the
	// client p50 to within the width of the percentile band.
	SumMedianOpUs float64 `json:"sum_median_op_us"`
	// Unexplained is client p50 − (queue_wait + residence + return_wait)
	// p50s: the client's write call plus what medians lose by not adding.
	Unexplained float64 `json:"unexplained_us_p50"`
	// RequeueP50us is part of residence: how long a read-pool result
	// waited to get back onto the node goroutine (Clock.After(0)).
	RequeueP50us float64 `json:"runtime_requeue_wait_us_p50"`
	Spans        int     `json:"spans"`

	queueWait, dispatch, residence, returnWait []int64
}

func buildStageTable(spans []span, requeue []int64) *stageTable {
	t := &stageTable{Spans: len(spans), RequeueP50us: quantile(requeue, 0.5) / 1e3}
	write := make([]int64, len(spans))
	total := make([]int64, len(spans))
	t.queueWait = make([]int64, len(spans))
	t.residence = make([]int64, len(spans))
	t.returnWait = make([]int64, len(spans))
	for i, sp := range spans {
		write[i] = sp.Sent - sp.Send
		// The handler can run before the client's write call returns.
		if qw := sp.HandlerIn - sp.Sent; qw > 0 {
			t.queueWait[i] = qw
		}
		if sp.DispatchEnd != 0 {
			t.dispatch = append(t.dispatch, sp.DispatchEnd-sp.HandlerIn)
		}
		t.residence[i] = sp.ReplyStart - sp.HandlerIn
		t.returnWait[i] = sp.Recv - sp.ReplyStart
		total[i] = sp.Recv - sp.Send
	}
	sorted := append([]int64(nil), total...)
	lo, hi := int64(quantile(sorted, 0.45)), int64(quantile(sorted, 0.55))
	t.ClientP50us = quantile(sorted, 0.50) / 1e3
	row := func(name string, v []int64) {
		var sum, n float64
		for i, d := range v {
			if total[i] >= lo && total[i] <= hi {
				sum, n = sum+float64(d), n+1
			}
		}
		c := append([]int64(nil), v...)
		st := stage{name, quantile(c, 0.50) / 1e3, quantile(c, 0.99) / 1e3, ratio(sum, n) / 1e3}
		t.Stages = append(t.Stages, st)
		t.SumMedianOpUs += st.MedianOpUs
	}
	row("client.write", write)
	row("udpnet.queue_wait", t.queueWait)
	row("runtime.residence", t.residence)
	row("udpnet.return_wait", t.returnWait)
	t.Unexplained = t.ClientP50us - t.Stages[1].P50us - t.Stages[2].P50us - t.Stages[3].P50us
	return t
}

func (t *stageTable) print(w io.Writer) {
	fmt.Fprintf(w, "stage table (%d spans)        %12s %12s %12s\n", t.Spans, "p50 us", "p99 us", "median op us")
	for _, st := range t.Stages {
		fmt.Fprintf(w, "  %-26s %12.1f %12.1f %12.1f\n", st.Name, st.P50us, st.P99us, st.MedianOpUs)
	}
	fmt.Fprintf(w, "  %-26s %12s %12s %12.1f\n", "sum", "", "", t.SumMedianOpUs)
	fmt.Fprintf(w, "  %-26s %12.1f\n", "client", t.ClientP50us)
	fmt.Fprintf(w, "  %-26s %12.1f  (inside residence: read-pool result waiting for the node goroutine)\n", "runtime.requeue_wait", t.RequeueP50us)
	fmt.Fprintf(w, "  the median-op column misses the client p50 by %.1f%%; trace.unexplained_us_p50 = client p50 - the three registry-side p50s = %.1f us\n",
		100*ratio(t.ClientP50us-t.SumMedianOpUs, t.ClientP50us), t.Unexplained)
}

// maxSpansWritten bounds the trace file; spans are thinned evenly.
const maxSpansWritten = 4096

func writeTrace(outDir string, cfg runConfig, table *stageTable, spans []span) error {
	step := len(spans)/maxSpansWritten + 1
	var kept []span
	for i := 0; i < len(spans); i += step {
		kept = append(kept, spans[i])
	}
	doc := struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Environment string      `json:"environment"`
		Table       *stageTable `json:"stage_table"`
		SpanStep    int         `json:"span_step"`
		Spans       []span      `json:"spans"`
	}{cfg.workload, cfg.seed, environment(), table, step, kept}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+cfg.workload+".json"), b, 0o644)
}
