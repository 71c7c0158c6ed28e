package federation

import (
	"fmt"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/lease"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/memnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

const ns = "http://semdisco.example/onto#"

func c(name string) ontology.Class { return ontology.Class(ns + name) }

func testOntology(t testing.TB) *ontology.Ontology {
	t.Helper()
	o := ontology.New(ns)
	for _, a := range [][2]string{{"Sensor", "Device"}, {"Radar", "Sensor"}, {"Camera", "Sensor"}} {
		if err := o.AddClass(c(a[0]), c(a[1])); err != nil {
			t.Fatal(err)
		}
	}
	o.Freeze()
	return o
}

// harness builds registries and synthetic clients over one memnet.
type harness struct {
	t    *testing.T
	net  *memnet.Network
	onto *ontology.Ontology
	gen  *uuid.Generator
	regs map[string]*Registry
}

func newHarness(t *testing.T) *harness {
	return &harness{
		t:    t,
		net:  memnet.New(memnet.Config{Seed: 7}),
		onto: testOntology(t),
		gen:  uuid.NewGenerator(123),
		regs: make(map[string]*Registry),
	}
}

func (h *harness) models() *describe.Registry {
	return describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(h.onto))
}

// addRegistry creates and starts a federated registry at lan/name.
func (h *harness) addRegistry(lan, name string, cfg Config) *Registry {
	addr := transport.Addr(lan + "/" + name)
	store := registry.New(registry.Options{
		Models: h.models(),
		Leases: lease.Policy{Min: 100 * time.Millisecond, Max: time.Hour, Default: 30 * time.Second},
	})
	env := &runtime.Env{ID: h.gen.New(), Clock: h.net, Gen: h.gen}
	var reg *Registry
	env.Iface = h.net.Attach(addr, lan, func(from transport.Addr, data []byte) {
		runtime.Dispatch(reg, env, from, data)
	})
	reg = New(env, store, cfg)
	reg.Start()
	h.regs[string(addr)] = reg
	return reg
}

// testClient is a minimal protocol endpoint for driving registries.
type testClient struct {
	env     *runtime.Env
	results map[uuid.UUID][]wire.Advertisement
	done    map[uuid.UUID]bool
	acks    []wire.PublishAck
	renews  []wire.RenewAck
	arts    []wire.ArtifactData
}

func (h *harness) addClient(lan, name string) *testClient {
	addr := transport.Addr(lan + "/" + name)
	tc := &testClient{
		results: make(map[uuid.UUID][]wire.Advertisement),
		done:    make(map[uuid.UUID]bool),
	}
	env := &runtime.Env{ID: h.gen.New(), Clock: h.net, Gen: h.gen}
	env.Iface = h.net.Attach(addr, lan, func(from transport.Addr, data []byte) {
		e, err := wire.Unmarshal(data)
		if err != nil {
			return
		}
		switch b := e.Body.(type) {
		case wire.QueryResult:
			tc.results[b.QueryID] = append(tc.results[b.QueryID], b.Adverts...)
			if b.Complete {
				tc.done[b.QueryID] = true
			}
		case wire.PublishAck:
			tc.acks = append(tc.acks, b)
		case wire.RenewAck:
			tc.renews = append(tc.renews, b)
		case wire.ArtifactData:
			tc.arts = append(tc.arts, b)
		}
	})
	tc.env = env
	return tc
}

func (h *harness) semAdvert(serviceIRI, category string, lease time.Duration) wire.Advertisement {
	p := &profile.Profile{ServiceIRI: serviceIRI, Category: c(category), Grounding: "urn:g"}
	return wire.Advertisement{
		ID: h.gen.New(), Provider: h.gen.New(), ProviderAddr: "x",
		Kind: describe.KindSemantic, Payload: p.Encode(),
		LeaseMillis: uint64(lease / time.Millisecond), Version: 1,
	}
}

func (h *harness) publish(tc *testClient, reg *Registry, adv wire.Advertisement) {
	tc.env.Send(reg.Addr(), wire.Publish{Advert: adv})
	h.net.RunFor(50 * time.Millisecond)
}

func (h *harness) query(tc *testClient, reg *Registry, category string, ttl uint8, opts ...func(*wire.Query)) uuid.UUID {
	q := wire.Query{
		QueryID:   h.gen.New(),
		Kind:      describe.KindSemantic,
		Payload:   (&describe.SemanticQuery{Template: &profile.Template{Category: c(category)}}).Encode(),
		TTL:       ttl,
		ReplyAddr: string(tc.env.Addr()),
	}
	for _, o := range opts {
		o(&q)
	}
	tc.env.Send(reg.Addr(), q)
	return q.QueryID
}

func peerInfo(r *Registry) wire.PeerInfo {
	return wire.PeerInfo{ID: r.ID(), Addr: string(r.Addr())}
}

func TestLANRegistriesDiscoverEachOther(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan0", "r2", Config{})
	h.net.RunFor(time.Second)
	if len(r1.Peers()) != 1 || r1.Peers()[0].ID != r2.ID() {
		t.Fatalf("r1 peers = %v", r1.Peers())
	}
	if len(r2.Peers()) != 1 || r2.Peers()[0].ID != r1.ID() {
		t.Fatalf("r2 peers = %v", r2.Peers())
	}
}

func TestPublishQueryLocal(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	tc := h.addClient("lan0", "c1")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tc, r1, adv)
	if len(tc.acks) != 1 || !tc.acks[0].OK {
		t.Fatalf("acks = %+v", tc.acks)
	}
	if tc.acks[0].LeaseMillis != 60_000 {
		t.Fatalf("granted lease = %d ms", tc.acks[0].LeaseMillis)
	}
	qid := h.query(tc, r1, "Sensor", 0)
	h.net.RunFor(time.Second)
	if !tc.done[qid] || len(tc.results[qid]) != 1 || tc.results[qid][0].ID != adv.ID {
		t.Fatalf("query results = %v (done=%v)", tc.results[qid], tc.done[qid])
	}
}

func TestRenewKeepsAdvertAlive(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	tc := h.addClient("lan0", "c1")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Second)
	h.publish(tc, r1, adv)
	// Renew every 500 ms for 3 s.
	for i := 0; i < 6; i++ {
		h.net.RunFor(500 * time.Millisecond)
		tc.env.Send(r1.Addr(), wire.Renew{AdvertID: adv.ID})
	}
	h.net.RunFor(100 * time.Millisecond)
	if r1.Store().Len() != 1 {
		t.Fatal("renewed advert purged")
	}
	if len(tc.renews) == 0 || !tc.renews[0].OK {
		t.Fatalf("renew acks = %+v", tc.renews)
	}
	// Stop renewing; lease lapses and the purge timer removes it.
	h.net.RunFor(3 * time.Second)
	if r1.Store().Len() != 0 {
		t.Fatal("advert survived without renewals — leasing broken")
	}
	// Renew after purge tells the provider to republish.
	tc.renews = nil
	tc.env.Send(r1.Addr(), wire.Renew{AdvertID: adv.ID})
	h.net.RunFor(100 * time.Millisecond)
	if len(tc.renews) != 1 || tc.renews[0].OK {
		t.Fatalf("post-purge renew = %+v, want OK=false", tc.renews)
	}
}

func TestWANFederatedQuery(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	h.net.RunFor(time.Second) // seeds connect
	tcA := h.addClient("lan0", "cA")
	tcB := h.addClient("lan1", "cB")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tcB, r2, adv) // service known only on lan1
	// Client on lan0 asks its local registry with TTL 2; the query must
	// reach r2 and the result must come back aggregated.
	qid := h.query(tcA, r1, "Sensor", 2)
	h.net.RunFor(3 * time.Second)
	if !tcA.done[qid] {
		t.Fatal("federated query never completed")
	}
	if len(tcA.results[qid]) != 1 || tcA.results[qid][0].ID != adv.ID {
		t.Fatalf("federated results = %v", tcA.results[qid])
	}
}

func TestLoopAvoidanceInCycle(t *testing.T) {
	h := newHarness(t)
	// Triangle: r1-r2, r2-r3, r3-r1.
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	r3 := h.addRegistry("lan2", "r3", Config{Seeds: []wire.PeerInfo{peerInfo(r1), peerInfo(r2)}})
	h.net.RunFor(2 * time.Second)
	tc := h.addClient("lan0", "c1")
	qid := h.query(tc, r1, "Sensor", 10) // TTL larger than the cycle
	h.net.RunFor(5 * time.Second)
	if !tc.done[qid] {
		t.Fatal("query in cyclic topology never completed")
	}
	dups := r1.Stats().DuplicatesSuppressed + r2.Stats().DuplicatesSuppressed + r3.Stats().DuplicatesSuppressed
	if dups == 0 {
		t.Fatal("cycle produced no suppressed duplicates — loop avoidance untested by topology")
	}
	// Each registry must have evaluated the query exactly once
	// (received may exceed 1, but non-duplicate processing is 1).
	for i, r := range []*Registry{r1, r2, r3} {
		st := r.Stats()
		if st.QueriesReceived-st.DuplicatesSuppressed != 1 {
			t.Fatalf("registry %d processed %d copies", i+1, st.QueriesReceived-st.DuplicatesSuppressed)
		}
	}
}

func TestResponseControlAcrossFederation(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	h.net.RunFor(time.Second)
	tc := h.addClient("lan0", "c1")
	tcB := h.addClient("lan1", "c2")
	for i := 0; i < 5; i++ {
		h.publish(tc, r1, h.semAdvert(fmt.Sprintf("urn:svc:a%d", i), "Radar", time.Minute))
		h.publish(tcB, r2, h.semAdvert(fmt.Sprintf("urn:svc:b%d", i), "Radar", time.Minute))
	}
	qid := h.query(tc, r1, "Sensor", 2, func(q *wire.Query) { q.BestOnly = true })
	h.net.RunFor(3 * time.Second)
	if !tc.done[qid] || len(tc.results[qid]) != 1 {
		t.Fatalf("BestOnly federated query returned %d results", len(tc.results[qid]))
	}
	qid = h.query(tc, r1, "Sensor", 2, func(q *wire.Query) { q.MaxResults = 3 })
	h.net.RunFor(3 * time.Second)
	if len(tc.results[qid]) != 3 {
		t.Fatalf("MaxResults=3 federated query returned %d results", len(tc.results[qid]))
	}
}

func TestGatewayCoordination(t *testing.T) {
	// Two registries on lan0, both peered with a WAN registry. With
	// coordination, only the lowest-ID registry forwards to the WAN.
	build := func(coord bool) uint64 {
		h := newHarness(t)
		rw := h.addRegistry("wan", "rw", Config{})
		cfg := Config{GatewayCoordination: coord, Seeds: []wire.PeerInfo{peerInfo(rw)}}
		r1 := h.addRegistry("lan0", "r1", cfg)
		r2 := h.addRegistry("lan0", "r2", cfg)
		h.net.RunFor(2 * time.Second)
		tc := h.addClient("lan0", "c1")
		// Query both registries directly with the same query ID pattern:
		// a broadcast-style client sends to every local registry.
		qid := h.query(tc, r1, "Sensor", 2)
		h.net.RunFor(3 * time.Second)
		_ = qid
		_ = r2
		// Count how many query messages the WAN registry received.
		return rw.Stats().QueriesReceived
	}
	without := build(false)
	with := build(true)
	if with > without {
		t.Fatalf("coordination increased WAN queries: %d vs %d", with, without)
	}
	if with == 0 {
		t.Fatal("gateway never forwarded to WAN")
	}
}

func TestIsGatewayElection(t *testing.T) {
	h := newHarness(t)
	cfg := Config{GatewayCoordination: true}
	r1 := h.addRegistry("lan0", "r1", cfg)
	r2 := h.addRegistry("lan0", "r2", cfg)
	h.net.RunFor(time.Second)
	g1, g2 := r1.IsGateway(), r2.IsGateway()
	if g1 == g2 {
		t.Fatalf("gateway election tie: %v, %v", g1, g2)
	}
	// The lower ID must hold the role.
	wantR1 := uuid.Compare(r1.ID(), r2.ID()) < 0
	if g1 != wantR1 {
		t.Fatal("gateway is not the lowest node ID")
	}
	// Kill the gateway; the survivor takes over after peer timeout.
	gw, other := r1, r2
	if !g1 {
		gw, other = r2, r1
	}
	h.net.SetUp(gw.Addr(), false)
	h.net.RunFor(time.Minute)
	if !other.IsGateway() {
		t.Fatal("surviving registry did not take over the gateway role")
	}
}

func TestPushReplication(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{PushReplication: true, PushHops: 1})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	h.net.RunFor(time.Second)
	tc := h.addClient("lan0", "c1")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tc, r1, adv)
	h.net.RunFor(time.Second)
	if !r2.Store().Has(adv.ID) {
		t.Fatal("advert not replicated to peer")
	}
	// A local query on lan1 with TTL 0 now finds it without forwarding.
	tcB := h.addClient("lan1", "c2")
	qid := h.query(tcB, r2, "Sensor", 0)
	h.net.RunFor(time.Second)
	if len(tcB.results[qid]) != 1 {
		t.Fatal("replicated advert not served locally")
	}
}

// TestPushReplicatedRenewalsNotifyOnce: under push replication the
// origin re-pushes the unchanged advert on every renewal so the replicas
// keep their leases. At the peer that re-push is a renewal, not a new
// publish: a standing query there is notified once for the advert, not
// once per renewal period.
func TestPushReplicatedRenewalsNotifyOnce(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{PushReplication: true, PushHops: 1})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	h.net.RunFor(time.Second)
	sub := h.addClient("lan1", "sub")
	subID := h.gen.New()
	q := &describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}
	if _, err := r2.Store().Subscribe(describe.KindSemantic, q.Encode(), string(sub.env.Addr()), subID, time.Time{}); err != nil {
		t.Fatal(err)
	}
	provider := h.addClient("lan0", "svc")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(provider, r1, adv)
	h.net.RunFor(time.Second)
	const renewals = 5
	for i := 0; i < renewals; i++ {
		provider.env.Send(r1.Addr(), wire.Renew{AdvertID: adv.ID})
		h.net.RunFor(10 * time.Second)
	}
	if len(provider.renews) != renewals {
		t.Fatalf("%d renew acks, want %d", len(provider.renews), renewals)
	}
	deadline, ok := r2.Store().LeaseDeadline(adv.ID)
	if !ok || deadline.Before(h.net.Now().Add(30*time.Second)) {
		t.Fatalf("replica lease not refreshed by the pushed renewals: %v (held %v)", deadline, ok)
	}
	if got := len(sub.results[subID]); got != 1 {
		t.Fatalf("subscriber on the peer notified %d times across %d replicated renewals, want once", got, renewals)
	}
}

func TestSummaryPruning(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{SummaryPruning: true, SummaryInterval: 200 * time.Millisecond})
	r2 := h.addRegistry("lan1", "r2", Config{
		SummaryPruning: true, SummaryInterval: 200 * time.Millisecond,
		Seeds: []wire.PeerInfo{peerInfo(r1)},
	})
	h.net.RunFor(time.Second)
	tcB := h.addClient("lan1", "c2")
	// r2 stores only a Camera service; its summary reaches r1.
	h.publish(tcB, r2, h.semAdvert("urn:svc:cam", "Camera", time.Minute))
	h.net.RunFor(time.Second)

	tc := h.addClient("lan0", "c1")
	// A Radar query from lan0 cannot match Camera; r1 must prune the
	// forward to r2 entirely.
	before := r2.Stats().QueriesReceived
	qid := h.query(tc, r1, "Radar", 2)
	h.net.RunFor(2 * time.Second)
	if !tc.done[qid] {
		t.Fatal("pruned query never completed")
	}
	if got := r2.Stats().QueriesReceived; got != before {
		t.Fatalf("r2 received %d queries despite non-matching summary", got-before)
	}
	if r1.Stats().ForwardsPruned == 0 {
		t.Fatal("pruning not accounted")
	}
	// A Sensor query does subsume Camera and must be forwarded.
	qid = h.query(tc, r1, "Sensor", 2)
	h.net.RunFor(2 * time.Second)
	if len(tc.results[qid]) != 1 {
		t.Fatalf("subsuming query pruned incorrectly: %v", tc.results[qid])
	}
}

func TestPeerFailureExpiry(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{PingInterval: 500 * time.Millisecond, PeerTimeout: 2 * time.Second})
	r2 := h.addRegistry("lan1", "r2", Config{
		PingInterval: 500 * time.Millisecond, PeerTimeout: 2 * time.Second,
		Seeds: []wire.PeerInfo{peerInfo(r1)},
	})
	h.net.RunFor(time.Second)
	if len(r1.Peers()) != 1 {
		t.Fatalf("r1 peers = %v", r1.Peers())
	}
	h.net.SetUp(r2.Addr(), false)
	h.net.RunFor(10 * time.Second)
	if len(r1.Peers()) != 0 {
		t.Fatal("dead peer not expired from peer table")
	}
	if r1.Stats().PeersExpired == 0 {
		t.Fatal("peer expiry not accounted")
	}
}

func TestRegistrySignalingSharesAlternates(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan1", "r2", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	r3 := h.addRegistry("lan2", "r3", Config{Seeds: []wire.PeerInfo{peerInfo(r1)}})
	h.net.RunFor(5 * time.Second) // pings exchange pongs with peer lists
	_ = r2
	// r2 and r3 both seeded only r1; through r1's pongs they must learn
	// about each other (registry signaling).
	found := false
	for _, p := range r3.Peers() {
		if p.ID == r2.ID() {
			found = true
		}
	}
	if !found {
		t.Fatalf("r3 never learned about r2 via signaling: %v", r3.Peers())
	}
}

func TestArtifactServing(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r1.Store().PutArtifact(ns, []byte("ontology document"))
	tc := h.addClient("lan0", "c1")
	tc.env.Send(r1.Addr(), wire.ArtifactGet{IRI: ns})
	tc.env.Send(r1.Addr(), wire.ArtifactGet{IRI: "urn:missing"})
	h.net.RunFor(time.Second)
	if len(tc.arts) != 2 {
		t.Fatalf("artifact responses = %d", len(tc.arts))
	}
	if !tc.arts[0].Found || string(tc.arts[0].Data) != "ontology document" {
		t.Fatalf("artifact 0 = %+v", tc.arts[0])
	}
	if tc.arts[1].Found {
		t.Fatal("missing artifact reported found")
	}
}

func TestRandomWalkForwardsToSubset(t *testing.T) {
	h := newHarness(t)
	hub := h.addRegistry("wan", "hub", Config{})
	var leaves []*Registry
	for i := 0; i < 6; i++ {
		leaves = append(leaves, h.addRegistry(fmt.Sprintf("lan%d", i), fmt.Sprintf("r%d", i),
			Config{Seeds: []wire.PeerInfo{peerInfo(hub)}}))
	}
	h.net.RunFor(2 * time.Second)
	tc := h.addClient("wan", "c1")
	qid := h.query(tc, hub, "Sensor", 1, func(q *wire.Query) {
		q.Strategy = wire.StrategyRandomWalk
		q.Walkers = 2
	})
	h.net.RunFor(3 * time.Second)
	if !tc.done[qid] {
		t.Fatal("walk query never completed")
	}
	received := 0
	for _, l := range leaves {
		received += int(l.Stats().QueriesReceived)
	}
	if received != 2 {
		t.Fatalf("random walk reached %d leaves, want exactly 2 walkers", received)
	}
}

func TestStopSendsBye(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan0", "r2", Config{})
	h.net.RunFor(time.Second)
	if len(r2.Peers()) != 1 {
		t.Fatal("setup failed")
	}
	r1.Stop()
	h.net.RunFor(time.Second)
	if len(r2.Peers()) != 0 {
		t.Fatal("bye did not remove departed registry from peer table")
	}
	// Stop is idempotent and halts timers.
	r1.Stop()
}

func TestSubscriptionNotificationViaWire(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	tc := h.addClient("lan0", "c1")
	subID := h.gen.New()
	q := &describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}
	if _, err := r1.Store().Subscribe(describe.KindSemantic, q.Encode(), string(tc.env.Addr()), subID, time.Time{}); err != nil {
		t.Fatal(err)
	}
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tc, r1, adv)
	h.net.RunFor(time.Second)
	if len(tc.results[subID]) != 1 || tc.results[subID][0].ID != adv.ID {
		t.Fatalf("subscription notification = %v", tc.results[subID])
	}
}

func TestSubscribeOverWire(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{PurgeInterval: 200 * time.Millisecond})
	tc := h.addClient("lan0", "c1")
	subID := h.gen.New()
	q := &describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}
	tc.env.Send(r1.Addr(), wire.Subscribe{
		SubID: subID, Kind: describe.KindSemantic, Payload: q.Encode(),
		NotifyAddr: string(tc.env.Addr()), LeaseMillis: 2000,
	})
	h.net.RunFor(time.Second)
	if r1.Store().NumSubscriptions() != 1 {
		t.Fatal("subscription not registered")
	}
	// A matching publish notifies the subscriber.
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tc, r1, adv)
	h.net.RunFor(time.Second)
	if len(tc.results[subID]) != 1 {
		t.Fatalf("notifications = %d", len(tc.results[subID]))
	}
	// Without renewal the 2s lease lapses and the registry prunes it.
	h.net.RunFor(5 * time.Second)
	if r1.Store().NumSubscriptions() != 0 {
		t.Fatal("expired subscription not pruned")
	}
	// Unknown kind is rejected with an error ack.
	tc.env.Send(r1.Addr(), wire.Subscribe{SubID: h.gen.New(), Kind: describe.Kind(42)})
	h.net.RunFor(time.Second)
	// Unsubscribe of a fresh subscription removes it.
	sub2 := h.gen.New()
	tc.env.Send(r1.Addr(), wire.Subscribe{SubID: sub2, Kind: describe.KindSemantic, Payload: q.Encode(), LeaseMillis: 60000})
	h.net.RunFor(time.Second)
	tc.env.Send(r1.Addr(), wire.Unsubscribe{SubID: sub2})
	h.net.RunFor(time.Second)
	if r1.Store().NumSubscriptions() != 0 {
		t.Fatal("unsubscribe over the wire failed")
	}
}

func TestSubscriptionLeaseClamp(t *testing.T) {
	cases := []struct {
		req  uint64
		want time.Duration
	}{
		{0, time.Minute},
		{10, time.Second},
		{5000, 5 * time.Second},
		{uint64(time.Hour / time.Millisecond), 10 * time.Minute},
	}
	for _, cse := range cases {
		if got := subscriptionLease(cse.req); got != cse.want {
			t.Errorf("subscriptionLease(%d) = %v, want %v", cse.req, got, cse.want)
		}
	}
}

func TestCrashStopsTimersAndHandling(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{})
	r2 := h.addRegistry("lan0", "r2", Config{})
	h.net.RunFor(time.Second)
	r1.Crash()
	// A crashed registry must not process messages even if they arrive.
	tc := h.addClient("lan0", "c1")
	adv := h.semAdvert("urn:svc:x", "Radar", time.Minute)
	tc.env.Send(r1.Addr(), wire.Publish{Advert: adv})
	h.net.RunFor(time.Second)
	if r1.Store().Len() != 0 {
		t.Fatal("crashed registry stored an advert")
	}
	_ = r2
}

func TestPeerTableEviction(t *testing.T) {
	h := newHarness(t)
	r1 := h.addRegistry("lan0", "r1", Config{MaxPeers: 3})
	// Feed more peers than the cap via peer exchange.
	var infos []wire.PeerInfo
	for i := 0; i < 6; i++ {
		infos = append(infos, wire.PeerInfo{ID: h.gen.New(), Addr: fmt.Sprintf("wan/p%d", i)})
	}
	tc := h.addClient("lan0", "c1")
	tc.env.Send(r1.Addr(), wire.PeerExchange{Peers: infos})
	h.net.RunFor(time.Second)
	if got := len(r1.Peers()); got > 3 {
		t.Fatalf("peer table grew to %d despite MaxPeers=3", got)
	}
}

func TestRespondWithoutModelRelays(t *testing.T) {
	// A registry whose model registry lacks the query kind still relays
	// pooled results (capped), so constrained registries can forward.
	h := newHarness(t)
	// Build a registry with only the URI model.
	addr := transport.Addr("lan0/limited")
	store := registry.New(registry.Options{
		Models: describe.NewRegistry(describe.URIModel{}),
		Leases: lease.Policy{Min: 100 * time.Millisecond, Max: time.Hour},
	})
	env := &runtime.Env{ID: h.gen.New(), Clock: h.net, Gen: h.gen}
	var reg *Registry
	env.Iface = h.net.Attach(addr, "lan0", func(from transport.Addr, data []byte) {
		runtime.Dispatch(reg, env, from, data)
	})
	reg = New(env, store, Config{})
	reg.Start()

	// A full registry one hop away holds a semantic advert.
	full := h.addRegistry("lan1", "rfull", Config{Seeds: []wire.PeerInfo{{ID: reg.ID(), Addr: string(addr)}}})
	tcB := h.addClient("lan1", "c2")
	adv := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	h.publish(tcB, full, adv)
	h.net.RunFor(time.Second)

	// Client asks the LIMITED registry with TTL 1; it cannot evaluate
	// semantic payloads but must forward and relay the results.
	tc := h.addClient("lan0", "c1")
	qid := h.query(tc, reg, "Sensor", 1)
	h.net.RunFor(3 * time.Second)
	if !tc.done[qid] || len(tc.results[qid]) != 1 {
		t.Fatalf("relay through model-less registry = %v (done=%v)", tc.results[qid], tc.done[qid])
	}
}
