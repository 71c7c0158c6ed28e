package federation

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/profile"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// TestReadPoolOverUDP exercises the asynchronous query path end to end:
// a registry with ReadWorkers evaluates queries on its worker pool
// while publishes keep mutating the store through the node goroutine.
// Run under -race this proves the pool hand-off (evaluate off-thread,
// re-enter via the timer queue) is sound over the real UDP runtime.
func TestReadPoolOverUDP(t *testing.T) {
	regNode, err := udpnet.Listen(udpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer regNode.Close()

	gen := uuid.NewGenerator(4242)
	store := registry.New(registry.Options{
		Models: describe.NewRegistry(describe.NewSemanticModel(testOntology(t))),
		Leases: lease.Policy{Min: time.Second, Max: time.Hour, Default: time.Hour},
	})
	env := &runtime.Env{ID: gen.New(), Iface: regNode, Clock: regNode, Gen: gen}
	// Long intervals: this test drives traffic itself, no timers needed.
	reg := New(env, store, Config{
		ReadWorkers:    4,
		BeaconInterval: time.Hour, PingInterval: time.Hour,
		PurgeInterval: time.Hour, SeenTTL: time.Hour,
	})
	regNode.SetHandler(func(from transport.Addr, data []byte) {
		runtime.Dispatch(reg, env, from, data)
	})
	regNode.Do(reg.Start)
	defer regNode.Do(reg.Stop)

	cliNode, err := udpnet.Listen(udpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cliNode.Close()

	var mu sync.Mutex
	done := make(map[uuid.UUID]int) // queryID -> result count
	cliNode.SetHandler(func(_ transport.Addr, data []byte) {
		e, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		if res, ok := e.Body.(wire.QueryResult); ok && res.Complete {
			mu.Lock()
			// A re-sent query is duplicate-suppressed with an empty
			// Complete; keep the best answer seen for the ID.
			if n, ok := done[res.QueryID]; !ok || len(res.Adverts) > n {
				done[res.QueryID] = len(res.Adverts)
			}
			mu.Unlock()
		}
	})
	cgen := uuid.NewGenerator(777)
	cenv := &runtime.Env{ID: cgen.New(), Iface: cliNode, Clock: cliNode, Gen: cgen}

	for i := 0; i < 40; i++ {
		p := &profile.Profile{
			ServiceIRI: fmt.Sprintf("urn:svc:udp-%d", i),
			Category:   c("Radar"), Grounding: "urn:g",
		}
		adv := wire.Advertisement{
			ID: cgen.New(), Provider: cgen.New(), ProviderAddr: "x",
			Kind: describe.KindSemantic, Payload: p.Encode(),
			LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
		}
		if err := cenv.Send(reg.Addr(), wire.Publish{Advert: adv}); err != nil {
			t.Fatal(err)
		}
	}

	const queries = 30
	payload := (&describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}).Encode()
	ids := make([]uuid.UUID, queries)
	for i := range ids {
		ids[i] = cgen.New()
	}
	send := func(id uuid.UUID) {
		cenv.Send(reg.Addr(), wire.Query{
			QueryID: id, Kind: describe.KindSemantic, Payload: payload,
			MaxResults: 10, ReplyAddr: string(cliNode.Addr()),
		})
	}
	// Re-send unanswered queries each round: UDP may drop under load,
	// and clients reissue exactly like this.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		answered := len(done)
		mu.Unlock()
		if answered == queries {
			break
		}
		for _, id := range ids {
			mu.Lock()
			_, ok := done[id]
			mu.Unlock()
			if !ok {
				send(id)
			}
		}
		time.Sleep(100 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(done) != queries {
		t.Fatalf("only %d of %d queries answered", len(done), queries)
	}
	// A query whose first (evaluated) answer was dropped stays empty
	// forever — its resends are duplicate-suppressed. Loopback UDP loss
	// is rare; tolerate a couple, not a pattern.
	withResults := 0
	for _, n := range done {
		if n > 0 {
			withResults++
		}
	}
	if withResults < queries-3 {
		t.Fatalf("only %d of %d queries returned results", withResults, queries)
	}
}

// gatedModel holds every Evaluate until gate is closed, so a test can
// look at a registry while evaluations are on its read pool.
type gatedModel struct {
	describe.Model
	entered chan struct{} // one token per evaluation that started
	gate    chan struct{}
}

func (m gatedModel) Evaluate(q describe.Query, d describe.Description) describe.Evaluation {
	select {
	case m.entered <- struct{}{}:
	default:
	}
	<-m.gate
	return m.Model.Evaluate(q, d)
}

// udpRegistry is a registry with a two-worker read pool on a real UDP
// node, holding `adverts` Radar services, plus a client node that
// collects what the registry sends it.
type udpRegistry struct {
	node, cli *udpnet.Node
	reg       *Registry
	store     *registry.Store
	cenv      *runtime.Env
	gen       *uuid.Generator // the test's and its client's; the registry has its own

	mu      sync.Mutex
	results map[uuid.UUID][]int // query ID -> advert count of each Complete result
	byes    int
	pongs   int
}

func newUDPRegistry(t *testing.T, model describe.Model, adverts int, nodeCfg udpnet.Config, cfg Config) *udpRegistry {
	t.Helper()
	u := &udpRegistry{gen: uuid.NewGenerator(4711), results: make(map[uuid.UUID][]int)}
	var err error
	if u.node, err = udpnet.Listen(nodeCfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.node.Close() })
	if u.cli, err = udpnet.Listen(udpnet.Config{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.cli.Close() })
	u.store = registry.New(registry.Options{
		Models: describe.NewRegistry(model),
		Leases: lease.Policy{Min: 10 * time.Millisecond, Max: time.Hour, Default: time.Hour},
	})
	for i := 0; i < adverts; i++ {
		u.publish(t, fmt.Sprintf("urn:svc:udp-%d", i), time.Hour)
	}
	rgen := uuid.NewGenerator(4242)
	env := &runtime.Env{ID: rgen.New(), Iface: u.node, Clock: u.node, Gen: rgen}
	cfg.ReadWorkers = 2
	for _, d := range []*time.Duration{&cfg.BeaconInterval, &cfg.PingInterval, &cfg.PurgeInterval, &cfg.SeenTTL} {
		if *d == 0 {
			*d = time.Hour // the tests drive the traffic themselves
		}
	}
	u.reg = New(env, u.store, cfg)
	u.node.SetHandler(func(from transport.Addr, data []byte) { runtime.Dispatch(u.reg, env, from, data) })
	u.cli.SetHandler(func(_ transport.Addr, data []byte) {
		e, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		u.mu.Lock()
		defer u.mu.Unlock()
		switch b := e.Body.(type) {
		case wire.QueryResult:
			if b.Complete {
				u.results[b.QueryID] = append(u.results[b.QueryID], len(b.Adverts))
			}
		case wire.Bye:
			u.byes++
		case wire.Pong:
			u.pongs++
		}
	})
	u.cenv = &runtime.Env{ID: u.gen.New(), Iface: u.cli, Clock: u.cli, Gen: u.gen}
	return u
}

func (u *udpRegistry) publish(t *testing.T, iri string, leaseDur time.Duration) {
	t.Helper()
	p := &profile.Profile{ServiceIRI: iri, Category: c("Radar"), Grounding: "urn:g"}
	adv := wire.Advertisement{
		ID: u.gen.New(), Provider: u.gen.New(), ProviderAddr: "x",
		Kind: describe.KindSemantic, Payload: p.Encode(),
		LeaseMillis: uint64(leaseDur / time.Millisecond), Version: 1,
	}
	if _, _, err := u.store.Publish(adv, time.Now()); err != nil {
		t.Fatal(err)
	}
}

func (u *udpRegistry) query(id uuid.UUID) {
	u.cenv.Send(u.reg.Addr(), wire.Query{
		QueryID: id, Kind: describe.KindSemantic, MaxResults: 10, ReplyAddr: string(u.cli.Addr()),
		Payload: (&describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}).Encode(),
	})
}

// await polls cond under the client lock until it holds.
func (u *udpRegistry) await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		u.mu.Lock()
		ok := cond()
		u.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answers returns a copy of what arrived for id, and for how many
// queries anything arrived at all.
func (u *udpRegistry) answers(id uuid.UUID) (counts []int, queries int) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return append([]int(nil), u.results[id]...), len(u.results)
}

// becomePeer makes the registry count the client as a WAN peer, as a
// forwarding registry would be, and returns once it does.
func (u *udpRegistry) becomePeer(t *testing.T) {
	t.Helper()
	u.cenv.Send(u.reg.Addr(), wire.Ping{FromRegistry: true})
	u.await(t, "the registry's pong", func() bool { return u.pongs > 0 })
}

// TestLeafQueriesOverUDP: queries with nowhere to be forwarded, each
// evaluated on the read pool and handed back without a timer, are all
// answered in full and leave no pending state behind.
func TestLeafQueriesOverUDP(t *testing.T) {
	u := newUDPRegistry(t, describe.NewSemanticModel(testOntology(t)), 40, udpnet.Config{}, Config{})
	u.node.Do(u.reg.Start)
	defer u.node.Do(u.reg.Stop)
	const queries = 300
	async := fReadPoolAsync.Load()
	for i := 0; i < queries; i++ {
		u.query(u.gen.New())
		if i%50 == 49 { // stay far below both executor queues
			u.await(t, "a batch of answers", func() bool { return len(u.results) > i-25 })
		}
	}
	u.await(t, "every answer", func() bool { return len(u.results) == queries })
	u.mu.Lock()
	for id, counts := range u.results {
		if len(counts) != 1 || counts[0] != 10 {
			t.Errorf("query %s got results %v, want one of 10 adverts", id, counts)
		}
	}
	u.mu.Unlock()
	if got := fReadPoolAsync.Load() - async; got == 0 {
		t.Fatal("no query went through the read pool")
	}
	u.node.Do(func() {
		if s := u.reg.Stats(); len(u.reg.pending) != 0 || s.QueriesAnswered != queries {
			t.Errorf("%d queries pending, %d answered, want 0 and %d", len(u.reg.pending), s.QueriesAnswered, queries)
		}
	})
}

// TestDuplicatedForwardWhileEvaluating: a leaf keeps its pending entry
// while its evaluation is on the pool — without a hop deadline or a
// forward table — because a second copy of the same forward must be
// recognized and dropped, not answered with an empty Complete that
// would finalize the parent's aggregation early.
func TestDuplicatedForwardWhileEvaluating(t *testing.T) {
	model := gatedModel{describe.NewSemanticModel(testOntology(t)), make(chan struct{}, 1), make(chan struct{})}
	u := newUDPRegistry(t, model, 5, udpnet.Config{}, Config{})
	u.node.Do(u.reg.Start)
	defer u.node.Do(u.reg.Stop)
	u.becomePeer(t)
	qid := u.gen.New()
	u.query(qid)
	u.query(qid)
	<-model.entered
	suppressed := func() (n uint64) {
		u.node.Do(func() { n = u.reg.Stats().DuplicatesSuppressed })
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); suppressed() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the second copy never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	u.node.Do(func() {
		p := u.reg.pending[qid]
		if p == nil || !p.localPending || p.cancel != nil || p.outstanding != nil {
			t.Errorf("leaf query while evaluating: pending = %+v, want an entry with no deadline and no forward table", p)
		}
	})
	// Anything the registry sent for the duplicate is ahead of this pong.
	u.mu.Lock()
	pongs := u.pongs
	u.mu.Unlock()
	u.cenv.Send(u.reg.Addr(), wire.Ping{})
	u.await(t, "a pong", func() bool { return u.pongs > pongs })
	if got, _ := u.answers(qid); len(got) != 0 {
		t.Fatalf("duplicate of a pending forward was answered: %v", got)
	}
	close(model.gate)
	u.await(t, "the answer", func() bool { return len(u.results[qid]) > 0 })
	if got, _ := u.answers(qid); len(got) != 1 || got[0] != 5 {
		t.Fatalf("results = %v, want the one evaluated answer of 5", got)
	}
}

// TestStopWithEvaluationsInFlight: results that come back from the pool
// after Stop are discarded — no answer leaves a stopped registry.
func TestStopWithEvaluationsInFlight(t *testing.T) {
	model := gatedModel{describe.NewSemanticModel(testOntology(t)), make(chan struct{}, 8), make(chan struct{})}
	u := newUDPRegistry(t, model, 5, udpnet.Config{}, Config{})
	u.node.Do(u.reg.Start)
	u.becomePeer(t) // Stop says Bye to WAN peers, after it has marked itself stopped
	for i := 0; i < 4; i++ {
		u.query(u.gen.New())
	}
	<-model.entered // one worker evaluates; the other joins its flight or waits its turn
	stopped := make(chan struct{})
	go func() {
		u.node.Do(u.reg.Stop) // waits in pool.Close for the workers
		close(stopped)
	}()
	u.await(t, "the registry's Bye", func() bool { return u.byes > 0 })
	close(model.gate)
	<-stopped
	u.node.Do(func() { // behind every re-entry the workers made
		if n := u.reg.Stats().QueriesAnswered; n != 0 {
			t.Errorf("%d queries answered by a stopped registry", n)
		}
	})
}
