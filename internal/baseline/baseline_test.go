package baseline_test

import (
	"fmt"
	"testing"
	"time"

	"semdisco/internal/baseline"
	"semdisco/internal/describe"
	"semdisco/internal/discovery"
	"semdisco/internal/federation"
	"semdisco/internal/node"
	"semdisco/internal/profile"
	"semdisco/internal/runtime"
	"semdisco/internal/sim"
	"semdisco/internal/transport"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

func clientCfg(seed wire.PeerInfo) node.ClientConfig {
	return node.ClientConfig{
		QueryTimeout:   500 * time.Millisecond,
		FallbackWindow: 300 * time.Millisecond,
		Bootstrap:      discovery.Config{Seeds: []wire.PeerInfo{seed}, ProbeInterval: 200 * time.Millisecond},
	}
}

func serviceCfg(seed wire.PeerInfo) node.ServiceConfig {
	return node.ServiceConfig{
		Lease:      2 * time.Second,
		AckTimeout: 300 * time.Millisecond,
		Bootstrap:  discovery.Config{Seeds: []wire.PeerInfo{seed}, ProbeInterval: 200 * time.Millisecond},
	}
}

func TestCentralPublishAndQuery(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 21})
	central := w.AddCentral("lan0", "uddi")
	w.AddService("lan0", "s1", serviceCfg(central.PeerInfo()), w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	cli := w.AddClient("lan0", "c1", clientCfg(central.PeerInfo()))
	w.Run(2 * time.Second)
	if central.Central.Len() != 1 {
		t.Fatalf("central holds %d adverts", central.Central.Len())
	}
	out := cli.Query(w.SemanticSpec(sim.C("SensorFeed"), 0), 5*time.Second)
	if !out.Completed || len(out.Adverts) != 1 {
		t.Fatalf("central query = %+v", out)
	}
}

func TestCentralDoesNotAnswerProbes(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 22})
	w.AddCentral("lan0", "uddi")
	// A service with no seed must never find the central registry.
	svc := w.AddService("lan0", "s1", node.ServiceConfig{
		AckTimeout: 300 * time.Millisecond,
		Bootstrap:  discovery.Config{ProbeInterval: 200 * time.Millisecond},
	}, w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	w.Run(3 * time.Second)
	if _, ok := svc.Svc.Bootstrapper().Current(); ok {
		t.Fatal("central registry answered multicast discovery — UDDI baseline must be static-config only")
	}
}

func TestCentralKeepsStaleAdverts(t *testing.T) {
	// The §4.8 critique: without leasing, a crashed provider's advert
	// stays discoverable forever.
	w := sim.NewWorld(sim.Config{Seed: 23})
	central := w.AddCentral("lan0", "uddi")
	svc := w.AddService("lan0", "s1", serviceCfg(central.PeerInfo()), w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	cli := w.AddClient("lan0", "c1", clientCfg(central.PeerInfo()))
	w.Run(2 * time.Second)
	svc.Crash()
	w.Run(30 * time.Second) // far beyond any lease the federated system would grant
	out := cli.Query(w.SemanticSpec(sim.C("SensorFeed"), 0), 5*time.Second)
	if len(out.Adverts) != 1 {
		t.Fatalf("stale advert count = %d, want 1 (UDDI keeps it)", len(out.Adverts))
	}
	if w.StaleFraction(out.Adverts) != 1.0 {
		t.Fatal("returned advert should be stale (provider down)")
	}
	// Explicit deregistration is the only removal path.
	central.Central.HandleEnvelope(&wire.Envelope{
		Type: wire.TRemove, From: svc.Env.ID, FromAddr: string(svc.Addr),
		MsgID: w.Gen.New(), Body: &wire.Remove{AdvertID: out.Adverts[0].ID},
	}, svc.Addr)
	if central.Central.Len() != 0 {
		t.Fatal("explicit remove failed")
	}
}

func TestCentralIsSinglePointOfFailure(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 24})
	central := w.AddCentral("lan0", "uddi")
	w.AddService("lan0", "s1", serviceCfg(central.PeerInfo()), w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	cfg := clientCfg(central.PeerInfo())
	cfg.MaxAttempts = 2
	cli := w.AddClient("lan0", "c1", cfg)
	w.Run(2 * time.Second)
	central.Crash()
	out := cli.Query(w.SemanticSpec(sim.C("SensorFeed"), 0), 20*time.Second)
	// The central system has no fallback of its own; our client's
	// decentralized fallback still works, proving the failure is the
	// registry's, not the network's.
	if out.Via == node.ViaRegistry {
		t.Fatalf("query answered via crashed central registry: %+v", out)
	}
}

func TestDHTPlacementAndExactQuery(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 25})
	ring := w.AddDHTRing([]string{"lan0", "lan1", "lan2"})
	entry := ring[0]
	w.AddService("lan0", "s1", serviceCfg(entry.PeerInfo()), w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	w.AddService("lan1", "s2", serviceCfg(ring[1].PeerInfo()), w.SemanticProfile("urn:svc:cam", sim.C("CameraFeed")))
	cli := w.AddClient("lan2", "c1", clientCfg(ring[2].PeerInfo()))
	w.Run(2 * time.Second)
	total := 0
	for _, h := range ring {
		total += h.Node.Len()
	}
	if total != 2 {
		t.Fatalf("ring stores %d adverts, want 2", total)
	}
	// Exact category query works regardless of entry node.
	out := cli.Query(w.SemanticSpec(sim.C("RadarFeed"), 0), 5*time.Second)
	if !out.Completed || len(out.Adverts) != 1 {
		t.Fatalf("exact DHT query = %+v", out)
	}
}

func TestDHTCannotDoSubsumption(t *testing.T) {
	// The paper's structural claim (§3.3): hash-indexed registries
	// string-match only; a superclass query misses subtype services.
	w := sim.NewWorld(sim.Config{Seed: 26})
	ring := w.AddDHTRing([]string{"lan0", "lan1"})
	w.AddService("lan0", "s1", serviceCfg(ring[0].PeerInfo()), w.SemanticProfile("urn:svc:radar", sim.C("RadarFeed")))
	cli := w.AddClient("lan1", "c1", clientCfg(ring[1].PeerInfo()))
	w.Run(2 * time.Second)
	out := cli.Query(w.SemanticSpec(sim.C("SensorFeed"), 0), 5*time.Second)
	if out.Via == node.ViaRegistry && len(out.Adverts) != 0 {
		t.Fatalf("DHT answered a subsumption query with %d results — baseline too strong", len(out.Adverts))
	}
}

func TestDHTURIQueries(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 27})
	ring := w.AddDHTRing([]string{"lan0", "lan1"})
	uriDesc := &describe.URIDescription{TypeURI: "urn:type:weather", ServiceURI: "urn:svc:w1", Addr: "a"}
	w.AddService("lan0", "s1", serviceCfg(ring[0].PeerInfo()), uriDesc)
	cli := w.AddClient("lan1", "c1", clientCfg(ring[1].PeerInfo()))
	w.Run(2 * time.Second)
	out := cli.Query(node.QuerySpec{
		Kind:    describe.KindURI,
		Payload: (&describe.URIQuery{TypeURI: "urn:type:weather"}).Encode(),
	}, 5*time.Second)
	if !out.Completed || len(out.Adverts) != 1 {
		t.Fatalf("DHT URI query = %+v", out)
	}
	out = cli.Query(node.QuerySpec{
		Kind:    describe.KindURI,
		Payload: (&describe.URIQuery{TypeURI: "urn:type:other"}).Encode(),
	}, 5*time.Second)
	if out.Via == node.ViaRegistry && len(out.Adverts) != 0 {
		t.Fatal("DHT returned results for a non-existent type")
	}
}

func TestCentralResponseControl(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 28})
	central := w.AddCentral("lan0", "uddi")
	for i := 0; i < 8; i++ {
		w.AddService("lan0", fmt.Sprintf("s%d", i), serviceCfg(central.PeerInfo()),
			w.SemanticProfile(fmt.Sprintf("urn:svc:%d", i), sim.C("RadarFeed")))
	}
	cli := w.AddClient("lan0", "c1", clientCfg(central.PeerInfo()))
	w.Run(2 * time.Second)
	spec := w.SemanticSpec(sim.C("SensorFeed"), 0)
	spec.BestOnly = true
	out := cli.Query(spec, 5*time.Second)
	if len(out.Adverts) != 1 {
		t.Fatalf("central BestOnly = %d", len(out.Adverts))
	}
	spec = w.SemanticSpec(sim.C("SensorFeed"), 0)
	spec.MaxResults = 3
	out = cli.Query(spec, 5*time.Second)
	if len(out.Adverts) != 3 {
		t.Fatalf("central MaxResults=3 = %d", len(out.Adverts))
	}
}

func TestCentralRejectsBadPublishes(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 29})
	central := w.AddCentral("lan0", "uddi")
	tcEnv := w.AddClient("lan0", "c1", clientCfg(central.PeerInfo()))
	w.Run(time.Second)
	// Unsupported kind.
	tcEnv.Env.Send(central.Addr, wire.Publish{Advert: wire.Advertisement{
		ID: w.Gen.New(), Kind: 42, Payload: []byte{1},
	}})
	// Corrupt payload.
	tcEnv.Env.Send(central.Addr, wire.Publish{Advert: wire.Advertisement{
		ID: w.Gen.New(), Kind: 3, Payload: []byte{0xFF},
	}})
	w.Run(time.Second)
	if central.Central.Len() != 0 {
		t.Fatal("central accepted invalid publishes")
	}
	if central.Central.Stats.Publishes != 2 {
		t.Fatalf("publish stat = %d", central.Central.Stats.Publishes)
	}
}

func TestCentralAdopt(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 30})
	fed := w.AddRegistry("lan0", "r0", federationConfigForTest())
	tc := w.AddClient("lan0", "c1", clientCfg(fed.PeerInfo()))
	w.AddService("lan0", "s0", serviceCfg(fed.PeerInfo()), w.SemanticProfile("urn:svc:a", sim.C("RadarFeed")))
	w.Run(2 * time.Second)
	central := w.AddCentral("lan1", "uddi")
	central.Central.Adopt(fed.Reg.Store())
	if central.Central.Len() != 1 {
		t.Fatalf("Adopt moved %d adverts", central.Central.Len())
	}
	_ = tc
}

func TestDHTAttributeOnlyKVQueryUnroutable(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 31})
	ring := w.AddDHTRing([]string{"lan0", "lan1"})
	kv := &describe.KVDescription{ServiceURI: "urn:svc:k", TypeURI: "urn:type:x", Attrs: map[string]string{"a": "b"}, Addr: "e"}
	w.AddService("lan0", "s1", serviceCfg(ring[0].PeerInfo()), kv)
	cli := w.AddClient("lan1", "c1", clientCfg(ring[1].PeerInfo()))
	w.Run(2 * time.Second)
	// Attribute-only query has no token → DHT cannot route → empty.
	out := cli.Query(node.QuerySpec{
		Kind:    describe.KindKV,
		Payload: (&describe.KVQuery{Attrs: map[string]string{"a": "b"}}).Encode(),
	}, 5*time.Second)
	if out.Via == node.ViaRegistry && len(out.Adverts) != 0 {
		t.Fatal("DHT answered an unroutable query")
	}
	// Typed KV query routes and matches.
	out = cli.Query(node.QuerySpec{
		Kind:    describe.KindKV,
		Payload: (&describe.KVQuery{TypeURI: "urn:type:x"}).Encode(),
	}, 5*time.Second)
	if !out.Completed || len(out.Adverts) != 1 {
		t.Fatalf("typed KV DHT query = %+v", out)
	}
}

func TestDHTRenewAcked(t *testing.T) {
	w := sim.NewWorld(sim.Config{Seed: 32})
	ring := w.AddDHTRing([]string{"lan0"})
	svc := w.AddService("lan0", "s1", serviceCfg(ring[0].PeerInfo()), w.SemanticProfile("urn:svc:r", sim.C("RadarFeed")))
	w.Run(5 * time.Second) // several renew cycles
	if _, ok := svc.Svc.Bootstrapper().Current(); !ok {
		t.Fatal("service lost its DHT registry despite renew acks")
	}
	total := 0
	for _, h := range ring {
		total += h.Node.Len()
	}
	if total != 1 {
		t.Fatalf("DHT holds %d adverts", total)
	}
}

func federationConfigForTest() federation.Config { return federation.Config{} }

// captureIface records every datagram sent through it.
type captureIface struct{ sent [][]byte }

func (c *captureIface) Addr() transport.Addr { return "central" }
func (c *captureIface) Unicast(_ transport.Addr, b []byte) error {
	c.sent = append(c.sent, append([]byte(nil), b...))
	return nil
}
func (c *captureIface) Multicast([]byte) error { return nil }
func (c *captureIface) Close() error           { return nil }

// TestCentralTiesBreakOnAdvertID: two adverts of one service with equal
// scores (a churned service re-published under a fresh ID) rank in
// advert-ID order, so a result cap keeps the same advert on every
// registry instance, whatever order its map hands the hits out in.
func TestCentralTiesBreakOnAdvertID(t *testing.T) {
	onto := sim.DefaultOntology()
	models := describe.NewRegistry(describe.NewSemanticModel(onto))
	desc := &describe.SemanticDescription{Profile: &profile.Profile{
		ServiceIRI: "urn:svc:radar", Category: sim.C("RadarFeed"), Grounding: "urn:g",
	}}
	low, high := uuid.UUID{15: 1}, uuid.UUID{15: 2}
	q := &describe.SemanticQuery{Template: &profile.Template{Category: sim.C("SensorFeed")}}
	for i := 0; i < 64; i++ {
		iface := &captureIface{}
		central := baseline.NewCentral(&runtime.Env{Iface: iface, Gen: uuid.NewGenerator(uint64(i))}, models)
		for _, id := range []uuid.UUID{high, low} {
			central.HandleEnvelope(&wire.Envelope{Body: &wire.Publish{Advert: wire.Advertisement{
				ID: id, Kind: describe.KindSemantic, Payload: desc.Encode(),
			}}}, "client")
		}
		central.HandleEnvelope(&wire.Envelope{Body: &wire.Query{
			Kind: describe.KindSemantic, Payload: q.Encode(), MaxResults: 1, ReplyAddr: "client",
		}}, "client")
		env, err := wire.Unmarshal(iface.sent[len(iface.sent)-1])
		if err != nil {
			t.Fatal(err)
		}
		res, ok := env.Body.(wire.QueryResult)
		if !ok || len(res.Adverts) != 1 {
			t.Fatalf("registry %d: reply = %#v, want one advert", i, env.Body)
		}
		if got := res.Adverts[0].ID; got != low {
			t.Fatalf("registry %d: kept advert %v, want the lower ID %v", i, got, low)
		}
	}
}
