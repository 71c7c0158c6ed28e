// Command sdctl is the CLI client for the live UDP deployment: it
// publishes services, queries for them, and fetches ontology artifacts
// from a running registry network (see cmd/registryd).
//
// Usage:
//
//	sdctl -registry 127.0.0.1:7701 query -category <classIRI> [-scope 2] [-best]
//	sdctl -registry 127.0.0.1:7701 publish -iri urn:svc:x -category <classIRI> \
//	      -endpoint udp://10.0.0.1:99 [-name "Radar one"] [-lease 30s] [-hold]
//	sdctl -registry 127.0.0.1:7701 watch -category <classIRI>
//	sdctl -registry 127.0.0.1:7701 artifact -iri <ontologyIRI>
//	sdctl -registry 127.0.0.1:7701 put-artifact -iri <iri> -file taxonomy.ttl
//	sdctl -mcast 239.77.77.77:7777 probe
//	sdctl stats -addr 127.0.0.1:8701
//
// With -hold, publish keeps running and renews its lease until
// interrupted; without it the advertisement ages out after one lease —
// a convenient demonstration of §4.8.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/discovery"
	"semdisco/internal/node"
	"semdisco/internal/obs"
	"semdisco/internal/ontology"
	"semdisco/internal/profile"
	"semdisco/internal/runtime"
	"semdisco/internal/sim"
	"semdisco/internal/transport"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

func main() {
	var (
		registryAddr = flag.String("registry", "", "registry address (required except for probe)")
		mcast        = flag.String("mcast", "", "multicast group for probe/fallback ('' disables)")
		timeout      = flag.Duration("timeout", 5*time.Second, "operation timeout")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: sdctl [flags] query|publish|watch|artifact|put-artifact|probe|stats [subflags]")
		os.Exit(2)
	}
	cmd, rest := flag.Arg(0), flag.Args()[1:]

	// stats only talks HTTP to a registryd -http endpoint; no UDP
	// node is needed, so handle it before binding sockets.
	if cmd == "stats" {
		runStats(rest, *timeout)
		return
	}

	nodeio, err := udpnet.Listen(udpnet.Config{Multicast: *mcast})
	if err != nil {
		log.Fatalf("sdctl: %v", err)
	}
	defer nodeio.Close()
	env := &runtime.Env{ID: uuid.New(), Iface: nodeio, Clock: nodeio}

	var seeds []string
	if *registryAddr != "" {
		seeds = []string{*registryAddr}
	}
	switch cmd {
	case "query":
		runQuery(nodeio, env, seeds, rest, *timeout)
	case "publish":
		runPublish(nodeio, env, seeds, rest, *timeout)
	case "artifact":
		runArtifact(nodeio, env, seeds, rest, *timeout)
	case "probe":
		runProbe(nodeio, env, *timeout)
	case "watch":
		runWatch(nodeio, env, seeds, rest, *timeout)
	case "put-artifact":
		runPutArtifact(nodeio, env, seeds, rest, *timeout)
	default:
		log.Fatalf("sdctl: unknown command %q", cmd)
	}
}

// runStats fetches a registryd's runtime metric snapshot (the daemon
// must run with -http) and prints it as aligned text; -json dumps
// the raw snapshot instead. See OBSERVABILITY.md for the metric set.
func runStats(args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8701", "registryd -http endpoint")
	asJSON := fs.Bool("json", false, "print the raw JSON snapshot")
	fs.Parse(args)
	snap, err := obs.Fetch(*addr, timeout)
	if err != nil {
		log.Fatalf("sdctl stats: %v", err)
	}
	if *asJSON {
		data, err := snap.MarshalJSONIndent()
		if err != nil {
			log.Fatalf("sdctl stats: %v", err)
		}
		os.Stdout.Write(data)
		fmt.Println()
		return
	}
	snap.WriteText(os.Stdout)
}

// runPutArtifact uploads a document (e.g. a taxonomy) into the
// registry's artifact repository.
func runPutArtifact(nodeio *udpnet.Node, env *runtime.Env, seeds []string, args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("put-artifact", flag.ExitOnError)
	iri := fs.String("iri", "", "artifact IRI")
	file := fs.String("file", "", "file to upload")
	fs.Parse(args)
	if *iri == "" || *file == "" {
		log.Fatal("sdctl put-artifact: -iri and -file are required")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		log.Fatalf("sdctl put-artifact: %v", err)
	}
	cli := newClient(nodeio, env, seeds)
	waitForRegistry(nodeio, cli, timeout)
	done := make(chan bool, 1)
	nodeio.Do(func() {
		cli.PutArtifact(*iri, data, timeout, func(ok bool) { done <- ok })
	})
	select {
	case ok := <-done:
		if !ok {
			log.Fatal("sdctl put-artifact: upload failed")
		}
		log.Printf("sdctl: stored %d bytes under %s", len(data), *iri)
	case <-time.After(timeout + time.Second):
		log.Fatal("sdctl put-artifact: timed out")
	}
}

// runWatch subscribes to a category and streams notifications until
// interrupted.
func runWatch(nodeio *udpnet.Node, env *runtime.Env, seeds []string, args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	category := fs.String("category", "", "watched category class IRI")
	leaseDur := fs.Duration("lease", time.Minute, "subscription lease")
	fs.Parse(args)
	if *category == "" {
		log.Fatal("sdctl watch: -category is required")
	}
	cli := newClient(nodeio, env, seeds)
	waitForRegistry(nodeio, cli, timeout)
	q := &describe.SemanticQuery{Template: &profile.Template{Category: ontology.Class(*category)}}
	var sub *node.Subscription
	nodeio.Do(func() {
		sub = cli.Subscribe(node.QuerySpec{
			Kind: describe.KindSemantic, Payload: q.Encode(),
		}, *leaseDur, func(a wire.Advertisement) {
			p, err := profile.Decode(a.Payload)
			if err != nil {
				return
			}
			fmt.Printf("+ %-30s %-40s %s\n", p.Name, p.ServiceIRI, p.Grounding)
		})
	})
	if sub == nil {
		log.Fatal("sdctl watch: no registry available")
	}
	log.Printf("sdctl: watching %s (ctrl-c to stop)", *category)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	nodeio.Do(sub.Cancel)
}

func newClient(nodeio *udpnet.Node, env *runtime.Env, seedAddrs []string) *node.Client {
	cli := node.NewClient(env, node.ClientConfig{
		// The default model set ranks decentralized-fallback results by
		// match quality instead of arrival order.
		Models: describe.NewRegistry(describe.URIModel{}, describe.KVModel{},
			describe.NewSemanticModel(sim.DefaultOntology())),
		Bootstrap: discovery.Config{SeedAddrs: seedAddrs, ProbeInterval: 500 * time.Millisecond},
	})
	nodeio.SetHandler(func(from transport.Addr, data []byte) {
		runtime.Dispatch(cli, env, from, data)
	})
	nodeio.Do(cli.Start)
	return cli
}

func runQuery(nodeio *udpnet.Node, env *runtime.Env, seeds []string, args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	category := fs.String("category", "", "requested category class IRI")
	scope := fs.Uint("scope", 0, "WAN forwarding TTL")
	best := fs.Bool("best", false, "return only the best match")
	max := fs.Int("max", 0, "max results (0 = registry default)")
	domain := fs.String("domain", "", "pin the query to a federation namespace (resolved via the domain directory instead of the WAN flood)")
	fs.Parse(args)
	if *category == "" {
		log.Fatal("sdctl query: -category is required")
	}
	cli := newClient(nodeio, env, seeds)
	waitForRegistry(nodeio, cli, timeout)
	q := &describe.SemanticQuery{Template: &profile.Template{Category: ontology.Class(*category)}}
	done := make(chan node.QueryResult, 1)
	nodeio.Do(func() {
		cli.Query(node.QuerySpec{
			Kind: describe.KindSemantic, Payload: q.Encode(),
			TTL: uint8(*scope), BestOnly: *best, MaxResults: *max,
			Domain: *domain,
		}, func(r node.QueryResult) { done <- r })
	})
	select {
	case r := <-done:
		fmt.Printf("%d result(s) via %s\n", len(r.Adverts), r.Via)
		for _, a := range r.Adverts {
			p, err := profile.Decode(a.Payload)
			if err != nil {
				continue
			}
			fmt.Printf("  %-30s %-40s %s\n", p.Name, p.ServiceIRI, p.Grounding)
		}
	case <-time.After(timeout):
		log.Fatal("sdctl query: timed out")
	}
}

func runPublish(nodeio *udpnet.Node, env *runtime.Env, seeds []string, args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("publish", flag.ExitOnError)
	iri := fs.String("iri", "", "service IRI")
	category := fs.String("category", "", "category class IRI")
	endpoint := fs.String("endpoint", "", "invocation endpoint")
	name := fs.String("name", "", "display name")
	leaseDur := fs.Duration("lease", 30*time.Second, "requested lease")
	hold := fs.Bool("hold", false, "keep renewing until interrupted")
	fs.Parse(args)
	if *iri == "" || *category == "" || *endpoint == "" {
		log.Fatal("sdctl publish: -iri, -category and -endpoint are required")
	}
	p := &profile.Profile{
		ServiceIRI: *iri, Name: *name, Category: ontology.Class(*category), Grounding: *endpoint,
	}
	if err := p.Validate(); err != nil {
		log.Fatalf("sdctl publish: %v", err)
	}
	svc := node.NewService(env, stdModels(), node.ServiceConfig{
		Lease:     *leaseDur,
		Bootstrap: discovery.Config{SeedAddrs: seeds, ProbeInterval: 500 * time.Millisecond},
	}, &describe.SemanticDescription{Profile: p})
	nodeio.SetHandler(func(from transport.Addr, data []byte) {
		runtime.Dispatch(svc, env, from, data)
	})
	nodeio.Do(svc.Start)
	// Wait until a registry is known (publication follows automatically).
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var ok bool
		nodeio.Do(func() { _, ok = svc.Bootstrapper().Current() })
		if ok {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Printf("sdctl: published %s (lease %v)", *iri, *leaseDur)
	if !*hold {
		time.Sleep(500 * time.Millisecond) // let the publish flush
		return
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	nodeio.Do(svc.Stop)
	log.Print("sdctl: deregistered")
}

func runArtifact(nodeio *udpnet.Node, env *runtime.Env, seeds []string, args []string, timeout time.Duration) {
	fs := flag.NewFlagSet("artifact", flag.ExitOnError)
	iri := fs.String("iri", "", "artifact IRI")
	fs.Parse(args)
	if *iri == "" {
		log.Fatal("sdctl artifact: -iri is required")
	}
	cli := newClient(nodeio, env, seeds)
	waitForRegistry(nodeio, cli, timeout)
	done := make(chan struct {
		data []byte
		ok   bool
	}, 1)
	nodeio.Do(func() {
		cli.FetchArtifact(*iri, timeout, func(d []byte, ok bool) {
			done <- struct {
				data []byte
				ok   bool
			}{d, ok}
		})
	})
	select {
	case r := <-done:
		if !r.ok {
			log.Fatalf("sdctl artifact: %s not found", *iri)
		}
		os.Stdout.Write(r.data)
	case <-time.After(timeout + time.Second):
		log.Fatal("sdctl artifact: timed out")
	}
}

func runProbe(nodeio *udpnet.Node, env *runtime.Env, timeout time.Duration) {
	cli := newClient(nodeio, env, nil)
	time.Sleep(timeout)
	var cur string
	var known int
	nodeio.Do(func() {
		if info, ok := cli.Bootstrapper().Current(); ok {
			cur = fmt.Sprintf("%s @ %s", info.ID.Short(), info.Addr)
		}
		known = cli.Bootstrapper().Known()
	})
	if cur == "" {
		log.Fatal("sdctl probe: no registries found")
	}
	fmt.Printf("current registry: %s (%d known)\n", cur, known)
}

// waitForRegistry blocks until the client's bootstrapper knows a
// registry or the timeout passes (queries then use the LAN fallback).
func waitForRegistry(nodeio *udpnet.Node, cli *node.Client, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var ok bool
		nodeio.Do(func() { _, ok = cli.Bootstrapper().Current() })
		if ok {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func stdModels() *describe.Registry {
	return describe.NewRegistry(
		describe.URIModel{},
		describe.KVModel{},
		describe.NewSemanticModel(sim.DefaultOntology()),
	)
}
