// Package core is the library façade: it assembles the paper's
// conceptual service discovery architecture — federated registries,
// leased advertisements, pluggable description models, semantic
// matchmaking, LAN/WAN registry discovery with decentralized fallback —
// into a single embeddable API.
//
// A System hosts any number of registry, service and client nodes on a
// deterministic in-memory network (the experiments' substrate). The
// same protocol state machines also run over real UDP via cmd/registryd
// and cmd/sdctl; core exists so applications and the examples/ programs
// can use the architecture as a library without touching wire-level
// types.
//
// Minimal usage:
//
//	sys := core.NewSystem(core.Options{})
//	sys.StartRegistry("hq", core.RegistryOptions{})
//	sys.StartService("hq", core.ServiceOptions{
//	    Profile: core.ServiceProfile{IRI: "urn:svc:radar-1", Category: sys.Class("RadarFeed"),
//	        Endpoint: "udp://10.0.0.1:99"},
//	})
//	cli := sys.StartClient("hq", core.ClientOptions{})
//	hits, _ := cli.Find(core.Query{Category: sys.Class("SensorFeed")})
package core

import (
	"errors"
	"fmt"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/federation"
	"semdisco/internal/match"
	"semdisco/internal/node"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/sim"
	"semdisco/internal/transport"
	"semdisco/internal/wire"
)

// Class re-exports the ontology class type so applications can use the
// façade without importing internal/ontology directly.
type Class = ontology.Class

// Options configures a System.
type Options struct {
	// Seed makes the whole system deterministic; 0 uses 1.
	Seed int64
	// Ontology is the shared semantic model. Nil installs the built-in
	// sensor/service taxonomy (see sim.DefaultOntology).
	Ontology *ontology.Ontology
}

// System is one embedded discovery deployment.
type System struct {
	world *sim.World
}

// NewSystem builds an empty system.
func NewSystem(opts Options) *System {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &System{world: sim.NewWorld(sim.Config{Seed: opts.Seed, Onto: opts.Ontology})}
}

// World exposes the underlying simulation for advanced scenarios
// (failure injection, traffic accounting).
func (s *System) World() *sim.World { return s.world }

// Ontology returns the shared semantic model.
func (s *System) Ontology() *ontology.Ontology { return s.world.Onto }

// Class resolves a local class name in the system ontology's namespace.
// It panics on unknown classes, turning typos into immediate failures.
func (s *System) Class(localName string) ontology.Class {
	c := ontology.Class(s.world.Onto.IRI + localName)
	if !s.world.Onto.HasClass(c) {
		panic(fmt.Sprintf("core: class %q not in ontology %s", localName, s.world.Onto.IRI))
	}
	return c
}

// Step advances the system clock, letting beacons, leases, renewals and
// federation maintenance run.
func (s *System) Step(d time.Duration) { s.world.Run(d) }

// RegistryOptions tunes a registry node.
type RegistryOptions struct {
	// BeaconInterval for passive discovery; default 5 s.
	BeaconInterval time.Duration
	// Federate lists other registries to seed (WAN connections);
	// same-LAN registries find each other automatically.
	Federate []*Registry
	// GatewayCoordination elects one WAN gateway per LAN.
	GatewayCoordination bool
	// PushReplication replicates advertisements to peer registries.
	PushReplication bool
	// SummaryPruning prunes query forwarding by advertisement
	// summaries.
	SummaryPruning bool
}

// Registry is a handle to a running registry node.
type Registry struct {
	h *sim.RegistryHandle
}

// StartRegistry deploys a federated registry on the named LAN segment.
func (s *System) StartRegistry(lan string, opts RegistryOptions) *Registry {
	cfg := federation.Config{
		BeaconInterval:      opts.BeaconInterval,
		GatewayCoordination: opts.GatewayCoordination,
		PushReplication:     opts.PushReplication,
		SummaryPruning:      opts.SummaryPruning,
	}
	for _, r := range opts.Federate {
		cfg.Seeds = append(cfg.Seeds, r.h.PeerInfo())
	}
	name := fmt.Sprintf("registry-%d", len(s.world.Registries))
	h := s.world.AddRegistry(lan, name, cfg)
	return &Registry{h: h}
}

// Crash abruptly fails the registry (no departure message).
func (r *Registry) Crash() { r.h.Crash() }

// Addr returns the registry's simulated transport address (used with
// System.World for failure/partition injection).
func (r *Registry) Addr() transport.Addr { return r.h.Addr }

// IsGateway reports whether this registry holds its LAN's WAN-gateway
// role.
func (r *Registry) IsGateway() bool { return r.h.Reg.IsGateway() }

// ServiceProfile describes one service for publication.
type ServiceProfile struct {
	// IRI uniquely identifies the service.
	IRI string
	// Name and Description are human-readable.
	Name        string
	Description string
	// Category is the service's ontology concept.
	Category ontology.Class
	// Inputs and Outputs are the consumed/produced concepts.
	Inputs, Outputs []ontology.Class
	// QoS attributes (matched against query minimums).
	QoS map[string]float64
	// Endpoint is the invocation address handed to discoverers.
	Endpoint string
	// Coverage optionally limits the geographic area (lat, lon,
	// radius km).
	Coverage *profile.Circle
}

func (p ServiceProfile) toProfile(ontoIRI string) (*profile.Profile, error) {
	pp := &profile.Profile{
		ServiceIRI:  p.IRI,
		Name:        p.Name,
		Text:        p.Description,
		Category:    p.Category,
		Inputs:      p.Inputs,
		Outputs:     p.Outputs,
		QoS:         p.QoS,
		Grounding:   p.Endpoint,
		Coverage:    p.Coverage,
		OntologyIRI: ontoIRI,
	}
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	return pp, nil
}

// ServiceOptions configures a service node.
type ServiceOptions struct {
	// Profile is the semantic description to publish (rich tier).
	Profile ServiceProfile
	// Lease is the advertisement lease to request; default 30 s.
	Lease time.Duration
}

// Service is a handle to a running service node.
type Service struct {
	h   *sim.ServiceHandle
	sys *System
}

// StartService deploys a service node publishing the given profile.
// The node discovers registries itself and maintains its lease.
func (s *System) StartService(lan string, opts ServiceOptions) (*Service, error) {
	pp, err := opts.Profile.toProfile(s.world.Onto.IRI)
	if err != nil {
		return nil, err
	}
	cfg := node.ServiceConfig{Lease: opts.Lease}
	name := fmt.Sprintf("service-%d", len(s.world.Services))
	h := s.world.AddService(lan, name, cfg, &describe.SemanticDescription{Profile: pp})
	return &Service{h: h, sys: s}, nil
}

// Crash abruptly fails the service; its advertisements age out of
// registries by lease expiry.
func (sv *Service) Crash() { sv.h.Crash() }

// Stop deregisters gracefully.
func (sv *Service) Stop() { sv.h.Svc.Stop() }

// Addr returns the service node's simulated transport address.
func (sv *Service) Addr() transport.Addr { return sv.h.Addr }

// Update republishes the service with changed content (bumps the
// advertisement version).
func (sv *Service) Update(p ServiceProfile) error {
	pp, err := p.toProfile(sv.sys.world.Onto.IRI)
	if err != nil {
		return err
	}
	if !sv.h.Svc.UpdateDescription(&describe.SemanticDescription{Profile: pp}) {
		return errors.New("core: no published description with that IRI")
	}
	return nil
}

// ClientOptions configures a client node.
type ClientOptions struct{}

// Client is a handle to a running client node.
type Client struct {
	h   *sim.ClientHandle
	sys *System
}

// StartClient deploys a client node on the named LAN.
func (s *System) StartClient(lan string, _ ClientOptions) *Client {
	name := fmt.Sprintf("client-%d", len(s.world.Clients))
	h := s.world.AddClient(lan, name, node.ClientConfig{})
	return &Client{h: h, sys: s}
}

// Query is a semantic service request.
type Query struct {
	// Category restricts results to services whose category the
	// requested concept subsumes (or relates to, per MinDegree).
	Category ontology.Class
	// RequiredOutputs/ProvidedInputs/MinQoS/Near follow the profile
	// template semantics.
	RequiredOutputs []ontology.Class
	ProvidedInputs  []ontology.Class
	MinQoS          map[string]float64
	Near            *profile.Point
	// MinDegree is the weakest acceptable match; default Subsumed.
	MinDegree match.Degree
	// MaxResults caps the results (registry-side); 0 = registry
	// default. BestOnly returns a single winner.
	MaxResults int
	BestOnly   bool
	// Scope is the WAN forwarding TTL (0 = local registry only).
	Scope uint8
	// Timeout bounds the whole discovery; default 10 s.
	Timeout time.Duration
}

// Hit is one discovered service.
type Hit struct {
	// ServiceIRI identifies the service.
	ServiceIRI string
	// Name is its display name.
	Name string
	// Category is its ontology concept.
	Category ontology.Class
	// Endpoint is where to invoke it.
	Endpoint string
	// Profile is the full decoded description.
	Profile *profile.Profile
}

// Via reports which mechanism served the query.
type Via = node.Via

// Result provenance re-exported for callers.
const (
	ViaNone     = node.ViaNone
	ViaRegistry = node.ViaRegistry
	ViaFallback = node.ViaFallback
)

// Find runs a discovery query, driving the system clock until the
// answer arrives (registry path, failover, or decentralized fallback).
func (c *Client) Find(q Query) ([]Hit, Via, error) {
	tpl := &profile.Template{
		Category:        q.Category,
		RequiredOutputs: q.RequiredOutputs,
		ProvidedInputs:  q.ProvidedInputs,
		MinQoS:          q.MinQoS,
		Near:            q.Near,
	}
	sq := &describe.SemanticQuery{Template: tpl, MinDegree: q.MinDegree}
	spec := node.QuerySpec{
		Kind:       describe.KindSemantic,
		Payload:    sq.Encode(),
		MaxResults: q.MaxResults,
		BestOnly:   q.BestOnly,
		TTL:        q.Scope,
	}
	timeout := q.Timeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	out := c.h.Query(spec, timeout)
	if !out.Completed {
		return nil, ViaNone, errors.New("core: query did not complete within the timeout")
	}
	hits := make([]Hit, 0, len(out.Adverts))
	for _, a := range out.Adverts {
		p, err := profile.Decode(a.Payload)
		if err != nil {
			continue
		}
		hits = append(hits, Hit{
			ServiceIRI: p.ServiceIRI,
			Name:       p.Name,
			Category:   p.Category,
			Endpoint:   p.Grounding,
			Profile:    p,
		})
	}
	return hits, out.Via, nil
}

// Watch registers a standing query at the client's registry: onHit
// fires for every matching service published from now on. The returned
// cancel function withdraws the subscription; it is also safe to call
// after the system stops. Watch returns an error when the client knows
// no registry (standing queries need one).
func (c *Client) Watch(q Query, onHit func(Hit)) (cancel func(), err error) {
	tpl := &profile.Template{
		Category:        q.Category,
		RequiredOutputs: q.RequiredOutputs,
		ProvidedInputs:  q.ProvidedInputs,
		MinQoS:          q.MinQoS,
		Near:            q.Near,
	}
	sq := &describe.SemanticQuery{Template: tpl, MinDegree: q.MinDegree}
	sub := c.h.Cli.Subscribe(node.QuerySpec{
		Kind:    describe.KindSemantic,
		Payload: sq.Encode(),
	}, 0, func(a wire.Advertisement) {
		p, err := profile.Decode(a.Payload)
		if err != nil {
			return
		}
		onHit(Hit{
			ServiceIRI: p.ServiceIRI,
			Name:       p.Name,
			Category:   p.Category,
			Endpoint:   p.Grounding,
			Profile:    p,
		})
	})
	if sub == nil {
		return nil, errors.New("core: no registry available for a standing query")
	}
	return sub.Cancel, nil
}

// FetchOntology retrieves an ontology document from the registry
// network's artifact repository and parses it.
func (c *Client) FetchOntology(iri string) (*ontology.Ontology, error) {
	var doc []byte
	var ok, done bool
	c.h.Cli.FetchArtifact(iri, 2*time.Second, func(d []byte, o bool) { doc, ok, done = d, o, true })
	deadline := c.sys.world.Net.Now().Add(5 * time.Second)
	for !done && c.sys.world.Net.Now().Before(deadline) {
		c.sys.world.Run(50 * time.Millisecond)
	}
	if !done || !ok {
		return nil, fmt.Errorf("core: ontology %s not resolvable", iri)
	}
	return ontology.FromTurtle(iri, string(doc))
}

// KnowsRegistry reports whether the client currently has a registry
// connection point.
func (c *Client) KnowsRegistry() bool {
	_, ok := c.h.Cli.Bootstrapper().Current()
	return ok
}

// Addr returns the client node's simulated transport address.
func (c *Client) Addr() transport.Addr { return c.h.Addr }
