package federation

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/profile"
	"semdisco/internal/registry"
	rt "semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// gatedBackend is a registry.Backend whose durability barriers complete
// only when the test says so: while hold is set, every Barrier is parked
// until release (or fail) runs its completion — on the test goroutine,
// off the registry's node goroutine, the way the WAL's commit leader
// does. A failure is sticky, like the WAL's.
type gatedBackend struct {
	mu      sync.Mutex
	lsn     uint64
	durable uint64
	hold    bool
	err     error
	parked  []parkedBarrier
}

type parkedBarrier struct {
	lsn  uint64
	done func(error)
}

func (g *gatedBackend) next() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.lsn++
	return g.lsn
}

func (g *gatedBackend) AppendPublish(wire.Advertisement, time.Duration, time.Time) uint64 {
	return g.next()
}
func (g *gatedBackend) AppendRenew(uuid.UUID, time.Time) uint64 { return g.next() }
func (g *gatedBackend) AppendRemove(uuid.UUID) uint64           { return g.next() }
func (g *gatedBackend) AppendSubscribe(uuid.UUID, describe.Kind, []byte, string, time.Time) uint64 {
	return g.next()
}
func (g *gatedBackend) AppendUnsubscribe(uuid.UUID) uint64 { return g.next() }
func (g *gatedBackend) AppendExpire(time.Time) uint64      { return g.next() }
func (g *gatedBackend) AppendPruneSubs(time.Time) uint64   { return g.next() }

func (g *gatedBackend) Barrier(lsn uint64, done func(error)) {
	g.mu.Lock()
	switch {
	case lsn <= g.durable:
		g.mu.Unlock()
		done(nil)
	case g.err != nil:
		err := g.err
		g.mu.Unlock()
		done(err)
	case g.hold:
		g.parked = append(g.parked, parkedBarrier{lsn, done})
		g.mu.Unlock()
	default:
		g.durable = g.lsn
		g.mu.Unlock()
		done(nil)
	}
}

func (g *gatedBackend) Sync(lsn uint64) error {
	ch := make(chan error, 1)
	g.Barrier(lsn, func(err error) { ch <- err })
	return <-ch
}

// settle completes every parked barrier in LSN order, durable when err
// is nil, failed (and sticky) otherwise.
func (g *gatedBackend) settle(err error) {
	g.mu.Lock()
	parked := g.parked
	g.parked = nil
	if err != nil {
		g.err = err
	} else {
		g.durable = g.lsn
	}
	g.mu.Unlock()
	slices.SortFunc(parked, func(a, b parkedBarrier) int { return int(a.lsn) - int(b.lsn) })
	for _, p := range parked {
		p.done(err)
	}
}

func (g *gatedBackend) parkedCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.parked)
}

func (g *gatedBackend) Close() error {
	g.settle(errors.New("backend closed"))
	return nil
}

// durableRig is a registry on a real UDP node over a gatedBackend, a
// provider client that publishes, renews and subscribes, and a second
// client that only queries.
type durableRig struct {
	t        *testing.T
	gb       *gatedBackend
	node     *udpnet.Node
	reg      *Registry
	store    *registry.Store
	gen      *uuid.Generator
	provider *rigClient
	querier  *rigClient
}

// rigClient records everything the registry sends one client socket.
type rigClient struct {
	node *udpnet.Node
	env  *rt.Env

	mu      sync.Mutex
	pubs    []wire.PublishAck
	renews  []wire.RenewAck
	subs    []wire.SubscribeAck
	results map[uuid.UUID]int // query ID -> adverts in its Complete result
	pongs   int
}

func newRigClient(t *testing.T, gen *uuid.Generator) *rigClient {
	t.Helper()
	n, err := udpnet.Listen(udpnet.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &rigClient{node: n, results: make(map[uuid.UUID]int)}
	c.env = &rt.Env{ID: gen.New(), Iface: n, Clock: n, Gen: gen}
	n.SetHandler(func(_ transport.Addr, data []byte) {
		e, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		switch b := e.Body.(type) {
		case wire.PublishAck:
			c.pubs = append(c.pubs, b)
		case wire.RenewAck:
			c.renews = append(c.renews, b)
		case wire.SubscribeAck:
			c.subs = append(c.subs, b)
		case wire.QueryResult:
			if b.Complete {
				c.results[b.QueryID] = len(b.Adverts)
			}
		case wire.Pong:
			c.pongs++
		}
	})
	return c
}

func (c *rigClient) acks() (pubs, renews, subs int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pubs), len(c.renews), len(c.subs)
}

func newDurableRig(t *testing.T) *durableRig {
	t.Helper()
	r := &durableRig{t: t, gb: &gatedBackend{}, gen: uuid.NewGenerator(2026)}
	var err error
	if r.node, err = udpnet.Listen(udpnet.Config{}); err != nil {
		t.Fatal(err)
	}
	r.store = registry.New(registry.Options{
		Models:  describe.NewRegistry(describe.NewSemanticModel(testOntology(t))),
		Leases:  lease.Policy{Min: time.Second, Max: time.Hour, Default: time.Hour},
		Backend: r.gb,
	})
	rgen := uuid.NewGenerator(7)
	env := &rt.Env{ID: rgen.New(), Iface: r.node, Clock: r.node, Gen: rgen}
	r.reg = New(env, r.store, Config{
		ReadWorkers:    2,
		BeaconInterval: time.Hour, PingInterval: time.Hour, PurgeInterval: time.Hour, SeenTTL: time.Hour,
	})
	r.node.SetHandler(func(from transport.Addr, data []byte) { rt.Dispatch(r.reg, env, from, data) })
	r.node.Do(r.reg.Start)
	r.provider = newRigClient(t, r.gen)
	r.querier = newRigClient(t, r.gen)
	return r
}

// close stops the registry (if still running) and closes every socket.
func (r *durableRig) close() {
	r.node.Do(r.reg.Stop)
	r.node.Close()
	r.provider.node.Close()
	r.querier.node.Close()
}

func (r *durableRig) advert(iri string) wire.Advertisement {
	p := &profile.Profile{ServiceIRI: iri, Category: c("Radar"), Grounding: "urn:g"}
	return wire.Advertisement{
		ID: r.gen.New(), Provider: r.gen.New(), ProviderAddr: "x",
		Kind: describe.KindSemantic, Payload: p.Encode(),
		LeaseMillis: uint64(time.Hour / time.Millisecond), Version: 1,
	}
}

func (r *durableRig) await(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// sync pings the registry from c and waits for the pong: the registry
// handles datagrams in order, so whatever it sent c while handling what
// c sent before has arrived by then.
func (r *durableRig) sync(c *rigClient) {
	r.t.Helper()
	c.mu.Lock()
	before := c.pongs
	c.mu.Unlock()
	c.env.Send(r.reg.Addr(), wire.Ping{})
	r.await("a pong", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.pongs > before
	})
}

// query asks for Sensor services from the querying client and waits for
// the answer.
func (r *durableRig) query() int {
	r.t.Helper()
	id := r.gen.New()
	r.querier.env.Send(r.reg.Addr(), wire.Query{
		QueryID: id, Kind: describe.KindSemantic, MaxResults: 10, ReplyAddr: string(r.querier.node.Addr()),
		Payload: (&describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}).Encode(),
	})
	var n int
	r.await("the query answer", func() bool {
		r.querier.mu.Lock()
		defer r.querier.mu.Unlock()
		var ok bool
		n, ok = r.querier.results[id]
		return ok
	})
	return n
}

// TestAckedImpliesDurable: a durable registry acknowledges a publish or
// subscription only after the barrier covering its log record
// completed — and handles other traffic meanwhile, because the barrier
// no longer runs on the node goroutine. A renewal of a live advert
// whose publish is durable is acked at once, while its own barrier is
// still queued. A failed barrier is a failed operation (renewals after
// it included), and a stopped registry sends nothing when a barrier it
// was waiting on completes late.
func TestAckedImpliesDurable(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	r := newDurableRig(t)
	resident := r.advert("urn:svc:resident")
	if _, _, err := r.store.Publish(resident, time.Now()); err != nil {
		t.Fatal(err)
	}
	r.holdBarriers()

	// Held barriers: nothing is acknowledged but the renewal of the
	// already-durable resident, whose own barrier is parked all the same.
	fresh := r.advert("urn:svc:fresh")
	subID := r.gen.New()
	p := r.provider
	p.env.Send(r.reg.Addr(), wire.Publish{Advert: fresh})
	p.env.Send(r.reg.Addr(), wire.Renew{AdvertID: resident.ID})
	p.env.Send(r.reg.Addr(), wire.Subscribe{
		SubID: subID, Kind: describe.KindSemantic, LeaseMillis: 60_000,
		Payload: (&describe.SemanticQuery{Template: &profile.Template{Category: c("Radar")}}).Encode(),
	})
	r.sync(p)
	if n := r.gb.parkedCount(); n != 3 {
		t.Fatalf("%d barriers parked, want 3 (publish, renew, subscribe)", n)
	}
	if pubs, renews, subs := p.acks(); pubs+subs != 0 || renews != 1 {
		t.Fatalf("while barriers are held: %d publish, %d renew, %d subscribe acks, want 0, 1, 0", pubs, renews, subs)
	}
	p.mu.Lock()
	if !p.renews[0].OK || p.renews[0].AdvertID != resident.ID {
		t.Fatalf("early renew ack: %+v, want OK for %v", p.renews[0], resident.ID)
	}
	p.mu.Unlock()
	// Meanwhile another client is served, and already sees the applied
	// publish: visibility does not wait for durability.
	if n := r.query(); n != 2 {
		t.Fatalf("query while barriers are held returned %d adverts, want 2", n)
	}
	if pubs, _, subs := p.acks(); pubs+subs != 0 {
		t.Fatal("acked before the barrier completed")
	}

	// Released: every ack arrives, each OK.
	r.gb.settle(nil)
	r.await("the three acks", func() bool {
		pubs, renews, subs := p.acks()
		return pubs == 1 && renews == 1 && subs == 1
	})
	p.mu.Lock()
	if !p.pubs[0].OK || p.pubs[0].AdvertID != fresh.ID || !p.renews[0].OK || p.renews[0].AdvertID != resident.ID || !p.subs[0].OK || p.subs[0].SubID != subID {
		t.Fatalf("acks after release: %+v %+v %+v", p.pubs[0], p.renews[0], p.subs[0])
	}
	p.mu.Unlock()

	// A failed barrier fails the operation, and stays failed.
	doomed := r.advert("urn:svc:doomed")
	p.env.Send(r.reg.Addr(), wire.Publish{Advert: doomed})
	r.sync(p)
	r.gb.settle(errors.New("disk gone"))
	later := r.advert("urn:svc:later")
	p.env.Send(r.reg.Addr(), wire.Publish{Advert: later})
	p.env.Send(r.reg.Addr(), wire.Renew{AdvertID: resident.ID})
	r.await("the failed acks", func() bool {
		pubs, renews, _ := p.acks()
		return pubs == 3 && renews == 2
	})
	p.mu.Lock()
	for _, ack := range p.pubs[1:] {
		if ack.OK || !strings.Contains(ack.Error, registry.ErrDurability.Error()) {
			t.Errorf("publish ack after a failed barrier: %+v, want OK=false with %q", ack, registry.ErrDurability)
		}
	}
	if p.renews[1].OK {
		t.Errorf("renew ack after a failed barrier: %+v, want OK=false", p.renews[1])
	}
	p.mu.Unlock()

	// Stop with a barrier pending: its completion runs after Stop and
	// must send nothing.
	r.gb.mu.Lock()
	r.gb.err = nil
	r.gb.mu.Unlock()
	pending := r.advert("urn:svc:pending")
	p.env.Send(r.reg.Addr(), wire.Publish{Advert: pending})
	r.sync(p)
	if n := r.gb.parkedCount(); n != 1 {
		t.Fatalf("%d barriers parked before Stop, want 1", n)
	}
	r.node.Do(r.reg.Stop)
	r.gb.settle(nil)
	r.node.Do(func() {}) // behind the completion's re-entry
	time.Sleep(20 * time.Millisecond)
	if pubs, _, _ := p.acks(); pubs != 3 {
		t.Fatalf("a stopped registry acked a publish (%d publish acks, want 3)", pubs)
	}
	r.close()
	r.await("the rig's goroutines to exit", func() bool { return runtime.NumGoroutine() <= goroutines })
}

// holdBarriers parks every barrier from now on until settle.
func (r *durableRig) holdBarriers() {
	r.gb.mu.Lock()
	r.gb.hold = true
	r.gb.mu.Unlock()
}

// awaitRenewAfterRelease checks that the renewal p sent last has not
// been acked while its barrier (and want-1 others) are parked, then
// releases them and waits for its OK ack.
func (r *durableRig) awaitRenewAfterRelease(id uuid.UUID, want int) {
	r.t.Helper()
	p := r.provider
	r.sync(p)
	if n := r.gb.parkedCount(); n != want {
		r.t.Fatalf("%d barriers parked, want %d", n, want)
	}
	if _, renews, _ := p.acks(); renews != 0 {
		r.t.Fatal("renewal acked before its barrier completed")
	}
	r.gb.settle(nil)
	r.await("the renew ack", func() bool {
		_, renews, _ := p.acks()
		return renews == 1
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	if ack := p.renews[0]; !ack.OK || ack.AdvertID != id {
		r.t.Fatalf("renew ack after release: %+v, want OK for %v", ack, id)
	}
}

// TestRenewAckWaitsForPublishBarrier: a renewal of an advert whose own
// publish is not durable yet is acked only after the barrier covering
// its record completes — an early ack could outlive the advert itself.
func TestRenewAckWaitsForPublishBarrier(t *testing.T) {
	r := newDurableRig(t)
	defer r.close()
	r.holdBarriers()
	fresh := r.advert("urn:svc:fresh")
	r.provider.env.Send(r.reg.Addr(), wire.Publish{Advert: fresh})
	r.provider.env.Send(r.reg.Addr(), wire.Renew{AdvertID: fresh.ID})
	r.awaitRenewAfterRelease(fresh.ID, 2)
	if pubs, _, _ := r.provider.acks(); pubs != 1 {
		t.Fatalf("%d publish acks after release, want 1", pubs)
	}
}

// TestRenewAckWaitsOnLapsedLease: a renewal that lands after the lease
// lapsed but before the purge sweep brings the advert back, so it waits
// for its barrier even though the advert's publish is durable.
func TestRenewAckWaitsOnLapsedLease(t *testing.T) {
	r := newDurableRig(t)
	defer r.close()
	lapsed := r.advert("urn:svc:lapsed")
	lapsed.LeaseMillis = 1000
	if _, _, err := r.store.Publish(lapsed, time.Now().Add(-2*time.Second)); err != nil {
		t.Fatal(err)
	}
	r.holdBarriers()
	r.provider.env.Send(r.reg.Addr(), wire.Renew{AdvertID: lapsed.ID})
	r.awaitRenewAfterRelease(lapsed.ID, 1)
}
