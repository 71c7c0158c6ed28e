// Command registryd runs one federated service discovery registry over
// real UDP — the live deployment of the architecture's registry role.
//
// Usage:
//
//	registryd -bind 127.0.0.1:7701 \
//	          -mcast 239.77.77.77:7777 \
//	          -seed 10.0.0.2:7701,10.0.0.3:7701 \
//	          -ontology taxonomy.ttl -push -gateway -v
//
// The registry beacons on the multicast group for LAN discovery,
// answers probes, federates with the seeded registries, leases and
// purges advertisements, and serves the loaded ontology from its
// artifact repository.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	stdruntime "runtime"
	"strings"
	"syscall"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/federation"
	"semdisco/internal/lease"
	"semdisco/internal/obs"
	"semdisco/internal/ontology"
	"semdisco/internal/rdf"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/sim"
	"semdisco/internal/transport"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
)

// Everything a deployment does not choose is fixed here at the value
// the harness measures: query evaluation on a GOMAXPROCS read pool, a
// 256-entry store result cache, no gateway result cache, 1024-record
// arena slabs, an fsynced WAL compacted every 100 000 records, and no
// datagram batching.
func main() {
	var (
		bind     = flag.String("bind", "127.0.0.1:0", "unicast listen address")
		mcast    = flag.String("mcast", "239.77.77.77:7777", "LAN multicast group ('' disables)")
		seedList = flag.String("seed", "", "comma-separated peer registry addresses (WAN seeding)")
		ontoPath = flag.String("ontology", "", "Turtle taxonomy file (default: built-in sensor taxonomy)")
		push     = flag.Bool("push", false, "replicate advertisements to peer registries")
		summary  = flag.Bool("summaries", false, "gossip advertisement summaries and prune forwarding")
		gateway  = flag.Bool("gateway", false, "coordinate one WAN gateway per LAN")
		role     = flag.String("role", "standalone", "federation role: standalone, federated (domain gateway), or root (registry of registries)")
		domain   = flag.String("domain", "", "federation namespace this gateway fronts (required with -role federated)")
		rootAddr = flag.String("root", "", "root registry address for directory-miss escalation")
		leaseMax = flag.Duration("lease-max", 10*time.Minute, "maximum granted lease")
		leaseDef = flag.Duration("lease-default", 30*time.Second, "default granted lease")
		beacon   = flag.Duration("beacon", 5*time.Second, "beacon interval")
		httpAddr = flag.String("http", "", "serve /status, /ontology, /stats and /stats.json on this address ('' disables)")
		walDir   = flag.String("wal-dir", "", "durable state directory: write-ahead log + snapshots ('' = memory-only, state lost on restart)")
		verbose  = flag.Bool("v", false, "trace protocol activity")
	)
	flag.Parse()

	seeds, err := splitAddrs(*seedList)
	if err != nil {
		log.Fatalf("registryd: -seed: %v", err)
	}
	if *rootAddr != "" {
		if *rootAddr, err = checkAddr(*rootAddr); err != nil {
			log.Fatalf("registryd: -root: %v", err)
		}
	}
	parsedRole, ok := federation.ParseRole(*role)
	if !ok {
		log.Fatalf("registryd: unknown -role %q (want standalone, federated or root)", *role)
	}
	if parsedRole == federation.RoleFederated && *domain == "" {
		log.Fatal("registryd: -role federated requires -domain")
	}

	onto, err := loadOntology(*ontoPath)
	if err != nil {
		log.Fatalf("registryd: %v", err)
	}
	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, describe.NewSemanticModel(onto))
	mkStore := func() *registry.Store {
		return registry.New(registry.Options{
			Models: models,
			Leases: lease.Policy{Max: *leaseMax, Default: *leaseDef},
		})
	}
	var store *registry.Store
	var wal *registry.WAL
	if *walDir != "" {
		var stats registry.RecoveryStats
		store, wal, stats, err = registry.Recover(registry.WALConfig{
			Dir:      *walDir,
			Fsync:    true,
			NewStore: mkStore,
		})
		if err != nil {
			log.Fatalf("registryd: %v", err)
		}
		log.Printf("registryd: recovered %d adverts, %d subscriptions from %s in %v (snapshot lsn %d: %d adverts; %d records replayed, %d torn frames dropped)",
			stats.Adverts, stats.Subs, *walDir, stats.Elapsed.Round(time.Millisecond),
			stats.SnapshotLSN, stats.SnapshotAdverts, stats.Replayed, stats.TornFrames)
	} else {
		store = mkStore()
	}
	store.PutArtifact(onto.IRI, ontologyDoc(onto))

	nodeio, err := udpnet.Listen(udpnet.Config{Bind: *bind, Multicast: *mcast})
	if err != nil {
		log.Fatalf("registryd: %v", err)
	}
	defer nodeio.Close()

	env := &runtime.Env{ID: uuid.New(), Iface: nodeio, Clock: nodeio, Gen: nil}
	if *verbose {
		env.Trace = func(format string, args ...any) { log.Printf("trace: "+format, args...) }
	}
	reg := federation.New(env, store, federation.Config{
		SeedAddrs:           seeds,
		BeaconInterval:      *beacon,
		PushReplication:     *push,
		SummaryPruning:      *summary,
		GatewayCoordination: *gateway,
		Role:                parsedRole,
		Domain:              *domain,
		RootAddr:            *rootAddr,
		ReadWorkers:         stdruntime.GOMAXPROCS(0),
	})
	nodeio.SetHandler(func(from transport.Addr, data []byte) {
		runtime.Dispatch(reg, env, from, data)
	})
	nodeio.Do(reg.Start)

	log.Printf("registryd %s listening on %s (multicast %v, ontology %s, %d classes)",
		env.ID.Short(), nodeio.Addr(), nodeio.MulticastReady(), onto.IRI, onto.NumClasses())

	if *httpAddr != "" {
		go serveHTTP(*httpAddr, nodeio, reg, onto)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	ticker := time.NewTicker(30 * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-sig:
			log.Printf("registryd: shutting down")
			nodeio.Do(reg.Stop)
			if wal != nil {
				// A clean shutdown leaves a fresh snapshot behind, so the
				// next boot replays (almost) nothing.
				if err := wal.Snapshot(); err != nil {
					log.Printf("registryd: shutdown snapshot: %v", err)
				}
				if err := wal.Close(); err != nil {
					log.Printf("registryd: wal close: %v", err)
				}
			}
			return
		case <-ticker.C:
			nodeio.Do(func() {
				s := reg.Stats()
				log.Printf("adverts=%d peers=%d queries=%d forwarded=%d dups=%d",
					reg.Store().Len(), len(reg.Peers()), s.QueriesReceived, s.QueriesForwarded, s.DuplicatesSuppressed)
			})
		}
	}
}

// splitAddrs parses a comma-separated address list such as -seed's.
// Each entry is trimmed and checked, so a stray space or comma fails at
// start-up instead of leaving a peer silently unreachable.
func splitAddrs(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var out []string
	for _, a := range strings.Split(list, ",") {
		a, err := checkAddr(a)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}

// checkAddr trims one peer address and resolves it as a UDP address;
// the error names the entry that failed.
func checkAddr(a string) (string, error) {
	a = strings.TrimSpace(a)
	if a == "" {
		return "", errors.New("empty address")
	}
	if _, err := net.ResolveUDPAddr("udp", a); err != nil {
		return "", fmt.Errorf("bad address %q: %w", a, err)
	}
	return a, nil
}

// serveHTTP exposes the read-only observability endpoints: GET /status
// returns registry state as JSON, GET /ontology the Turtle taxonomy,
// and GET /stats and /stats.json the process-wide runtime metrics (see
// OBSERVABILITY.md). Registry access is funnelled through the node
// executor so the handlers never race the protocol state machine; the
// metrics are atomics and need no executor.
func serveHTTP(addr string, nodeio *udpnet.Node, reg *federation.Registry, onto *ontology.Ontology) {
	mux := http.NewServeMux()
	stats := obs.Handler(obs.Default)
	mux.Handle("/stats", stats)
	mux.Handle("/stats.json", stats)
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		type peerJSON struct {
			ID   string `json:"id"`
			Addr string `json:"addr"`
		}
		var out struct {
			NodeID        string           `json:"nodeId"`
			Addr          string           `json:"addr"`
			Adverts       int              `json:"adverts"`
			Subscriptions int              `json:"subscriptions"`
			Gateway       bool             `json:"gateway"`
			Peers         []peerJSON       `json:"peers"`
			Stats         federation.Stats `json:"stats"`
		}
		nodeio.Do(func() {
			out.NodeID = reg.ID().String()
			out.Addr = string(reg.Addr())
			out.Adverts = reg.Store().Len()
			out.Subscriptions = reg.Store().NumSubscriptions()
			out.Gateway = reg.IsGateway()
			for _, p := range reg.Peers() {
				out.Peers = append(out.Peers, peerJSON{ID: p.ID.String(), Addr: p.Addr})
			}
			out.Stats = reg.Stats()
		})
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(out)
	})
	mux.HandleFunc("/ontology", func(w http.ResponseWriter, r *http.Request) {
		var doc []byte
		nodeio.Do(func() { doc, _ = reg.Store().Artifact(onto.IRI) })
		w.Header().Set("Content-Type", "text/turtle; charset=utf-8")
		w.Write(doc)
	})
	log.Printf("registryd: status and stats endpoints on http://%s/", addr)
	if err := http.ListenAndServe(addr, mux); err != nil {
		log.Printf("registryd: http endpoint failed: %v", err)
	}
}

func loadOntology(path string) (*ontology.Ontology, error) {
	if path == "" {
		return sim.DefaultOntology(), nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	o, err := ontology.FromTurtle("file://"+path, string(src))
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return o, nil
}

func ontologyDoc(o *ontology.Ontology) []byte {
	g := o.ToGraph()
	return []byte(rdf.EncodeNTriples(g))
}
