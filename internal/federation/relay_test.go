package federation

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/obs"
	"semdisco/internal/profile"
	"semdisco/internal/wire"
)

func counter(name string) int64 {
	mv, _ := obs.Default.Snapshot().Get(name)
	return mv.Value
}

// relayTopology is a converged root + two domain gateways, with adverts
// published in beta only; queries enter at gwA pinned to beta.
type relayTopology struct {
	h        *harness
	gwA, gwB *Registry
	tcA, tcB *testClient
}

func newRelayTopology(t *testing.T, gwAExtra ...func(*Config)) *relayTopology {
	h := newHarness(t)
	root := h.addRegistry("wan", "root", dirCfg(RoleRoot, "core"))
	seedRoot := func(c *Config) {
		c.Seeds = []wire.PeerInfo{peerInfo(root)}
		c.RootAddr = string(root.Addr())
	}
	rt := &relayTopology{h: h}
	rt.gwA = h.addRegistry("lanA", "gwA", dirCfg(RoleFederated, "alpha", append(gwAExtra, seedRoot)...))
	rt.gwB = h.addRegistry("lanB", "gwB", dirCfg(RoleFederated, "beta", seedRoot))
	h.net.RunFor(3 * time.Second) // directories converge
	rt.tcA, rt.tcB = h.addClient("lanA", "cA"), h.addClient("lanB", "cB")
	return rt
}

func pinBeta(max uint16) func(*wire.Query) {
	return func(q *wire.Query) { q.Domain, q.MaxResults = "beta", max }
}

// TestPinnedQueryIsRelayed: a query pinned to a domain gwA does not
// front comes back exactly as the fronting gateway answers it — same
// adverts, same order — and gwA neither merges nor re-checks it: the
// one MergeRank of the cascade is gwB's.
func TestPinnedQueryIsRelayed(t *testing.T) {
	rt := newRelayTopology(t)
	h := rt.h
	for i := 0; i < 6; i++ {
		h.publish(rt.tcB, rt.gwB, h.semAdvert(fmt.Sprintf("urn:svc:s%d", i), []string{"Radar", "Camera", "Sensor"}[i%3], time.Minute))
	}
	direct := h.query(rt.tcB, rt.gwB, "Sensor", 0, pinBeta(4))
	h.net.RunFor(time.Second)
	want := rt.tcB.results[direct]
	if !rt.tcB.done[direct] || len(want) != 4 {
		t.Fatalf("gwB's own answer: %d adverts, done=%v", len(want), rt.tcB.done[direct])
	}

	merges, answered := counter("registry.mergerank"), rt.gwA.Stats().QueriesAnswered
	qid := h.query(rt.tcA, rt.gwA, "Sensor", 3, pinBeta(4))
	h.net.RunFor(3 * time.Second)
	if !rt.tcA.done[qid] {
		t.Fatal("relayed query never completed")
	}
	if got := rt.tcA.results[qid]; !reflect.DeepEqual(got, want) {
		t.Fatalf("relayed answer differs from gwB's own:\n got %v\nwant %v", got, want)
	}
	if got := counter("registry.mergerank") - merges; got != 1 {
		t.Fatalf("%d MergeRank calls for one relayed query, want 1 (gwB's)", got)
	}
	if rt.gwA.Stats().QueriesAnswered != answered+1 || len(rt.gwA.pending) != 0 {
		t.Fatalf("gwA answered %d queries, %d still pending", rt.gwA.Stats().QueriesAnswered-answered, len(rt.gwA.pending))
	}
}

// forwardPinned makes gwA handle a pinned query and forward it, without
// running the network: gwB never sees it, so the test can play gwB.
func (rt *relayTopology) forwardPinned(t *testing.T, max uint16) (wire.Query, *wire.Envelope) {
	t.Helper()
	q := wire.Query{
		QueryID: rt.h.gen.New(), Kind: describe.KindSemantic, TTL: 3,
		Payload:   (&describe.SemanticQuery{Template: &profile.Template{Category: c("Sensor")}}).Encode(),
		ReplyAddr: string(rt.tcA.env.Addr()),
	}
	pinBeta(max)(&q)
	rt.gwA.HandleEnvelope(&wire.Envelope{From: rt.tcA.env.ID, Body: &q}, rt.tcA.env.Addr())
	p := rt.gwA.pending[q.QueryID]
	if p == nil || !p.relay || !p.outstanding[rt.gwB.ID()] {
		t.Fatalf("pinned query not pending as a relay toward gwB: %+v", p)
	}
	return q, &wire.Envelope{From: rt.gwB.ID()}
}

// TestRelayMergesPartialResults: an answer that arrives in pieces is not
// one ranked list, so the relay falls back to merge and re-check.
func TestRelayMergesPartialResults(t *testing.T) {
	rt := newRelayTopology(t)
	h := rt.h
	q, fromB := rt.forwardPinned(t, 10)
	sensor := h.semAdvert("urn:svc:generic", "Sensor", time.Minute)
	radar := h.semAdvert("urn:svc:radar", "Radar", time.Minute)
	other := h.semAdvert("urn:svc:boat", "Boat", time.Minute) // not a Sensor: fails the re-check
	merges := counter("registry.mergerank")
	rt.gwA.handleQueryResult(fromB, &wire.QueryResult{QueryID: q.QueryID, Adverts: []wire.Advertisement{radar, other}})
	if len(rt.gwA.pending) != 1 {
		t.Fatal("a partial result finished the query")
	}
	rt.gwA.handleQueryResult(fromB, &wire.QueryResult{QueryID: q.QueryID, Adverts: []wire.Advertisement{sensor}, Complete: true})
	if got := counter("registry.mergerank") - merges; got != 1 {
		t.Fatalf("%d MergeRank calls at gwA for a two-part answer, want 1", got)
	}
	// Deliver gwA's answer only: gwB's real one would find nothing pending.
	h.net.RunFor(time.Second)
	got := rt.tcA.results[q.QueryID]
	if !rt.tcA.done[q.QueryID] || len(got) != 2 || got[0].ID != sensor.ID || got[1].ID != radar.ID {
		t.Fatalf("merged answer = %v (done=%v), want the exact match, then the subsumed one", got, rt.tcA.done[q.QueryID])
	}
}

// TestRelayCapsAndFillsResultCache: the relay trusts the target's
// ranking but not its count, and with the gateway result cache on, the
// cache keeps its own copy of adverts that only borrowed their buffer.
func TestRelayCapsAndFillsResultCache(t *testing.T) {
	rt := newRelayTopology(t, func(c *Config) { c.ResultCacheSize = 8 })
	h := rt.h
	q, fromB := rt.forwardPinned(t, 2)
	var adverts []wire.Advertisement
	for i := 0; i < 3; i++ {
		adverts = append(adverts, h.semAdvert(fmt.Sprintf("urn:svc:r%d", i), "Radar", time.Minute))
	}
	borrowed := wire.CloneAdverts(adverts)
	merges := counter("registry.mergerank")
	rt.gwA.handleQueryResult(fromB, &wire.QueryResult{QueryID: q.QueryID, Adverts: borrowed, Complete: true})
	if got := counter("registry.mergerank") - merges; got != 0 {
		t.Fatalf("%d MergeRank calls at gwA for a relayed answer", got)
	}
	for _, a := range borrowed { // the receive buffer moves on
		clear(a.Payload)
	}
	h.net.RunFor(time.Second)
	if got := rt.tcA.results[q.QueryID]; len(got) != 2 || got[0].ID != adverts[0].ID || got[1].ID != adverts[1].ID {
		t.Fatalf("relayed answer = %v, want the first two of the target's three", got)
	}

	// The same query again is served from the cache, from intact bytes.
	forwarded := rt.gwA.Stats().QueriesForwarded
	again := h.query(rt.tcA, rt.gwA, "Sensor", 3, pinBeta(2))
	h.net.RunFor(time.Second)
	if rt.gwA.Stats().QueriesForwarded != forwarded {
		t.Fatal("repeat of a relayed query was forwarded despite the result cache")
	}
	got := rt.tcA.results[again]
	if !rt.tcA.done[again] || len(got) != 2 {
		t.Fatalf("cached answer = %v (done=%v)", got, rt.tcA.done[again])
	}
	for i, a := range got {
		if !reflect.DeepEqual(a, adverts[i]) {
			t.Fatalf("cached advert %d = %+v, want %+v: the cache kept the borrowed buffer", i, a, adverts[i])
		}
	}
}
