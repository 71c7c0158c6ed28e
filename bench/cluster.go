package main

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	stdruntime "runtime"
	"time"

	"semdisco/internal/describe"
	"semdisco/internal/federation"
	"semdisco/internal/lease"
	"semdisco/internal/registry"
	"semdisco/internal/runtime"
	"semdisco/internal/transport"
	"semdisco/internal/transport/udpnet"
	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// Deviations from `registryd` with no flags, stated in every output:
// multicast is off (ephemeral loopback ports only), and the xdomain
// gateways gossip the directory every second, a field registryd does
// not expose as a flag (its default is 10 s).
const deviations = "multicast off; xdomain DirectoryInterval 1s and root fronts domain \"root\""

const (
	convergeDeadline = 20 * time.Second
	directoryEvery   = time.Second
)

// regNode is one registry assembled with the constructor calls and
// defaults of cmd/registryd/main.go.
type regNode struct {
	io    *udpnet.Node
	store *registry.Store
	wal   *registry.WAL
	reg   *federation.Registry
}

type nodeSpec struct {
	role     federation.Role
	domain   string
	seedAddr string // the root, for gateways
	walDir   string // non-empty: registry.Recover with fsync on
}

// cluster is the set of registries one workload talks to.
type cluster struct {
	nodes []*regNode
	// entry receives the clients' datagrams; data holds the adverts.
	entry, data *regNode
	walDir      string
	recovery    registry.RecoveryStats
	// heapPerAdvert is the live-heap growth across populating the data
	// node, per advert; measured in traced sessions only, because it
	// costs two forced collections.
	heapPerAdvert float64
}

// storeFactory returns registryd's mkStore: default lease policy,
// result cache 256, plan cache default.
func storeFactory(in *inputs, tr *tracer) func() *registry.Store {
	var semantic describe.Model = describe.NewSemanticModel(in.onto)
	if tr != nil {
		semantic = tr.wrapModel(semantic)
	}
	models := describe.NewRegistry(describe.URIModel{}, describe.KVModel{}, semantic)
	return func() *registry.Store {
		return registry.New(registry.Options{
			Models:         models,
			Leases:         lease.Policy{Max: 10 * time.Minute, Default: 30 * time.Second},
			QueryCacheSize: 256,
		})
	}
}

func populate(st *registry.Store, adverts []wire.Advertisement) error {
	now := time.Now()
	for _, a := range adverts {
		if _, _, err := st.Publish(a, now); err != nil {
			return fmt.Errorf("populate: %w", err)
		}
	}
	return nil
}

func startNode(in *inputs, spec nodeSpec, adverts []wire.Advertisement, ids *uuid.Generator, tr *tracer) (*regNode, registry.RecoveryStats, error) {
	mkStore := storeFactory(in, tr)
	n := &regNode{}
	var stats registry.RecoveryStats
	if spec.walDir != "" {
		// A durable registry boots from its log, as registryd does after
		// a restart: the population is written with the barrier off
		// (20 000 fsyncs would dominate set-up), closed, and recovered
		// with fsync on.
		st, wal, _, err := registry.Recover(registry.WALConfig{Dir: spec.walDir, NewStore: mkStore})
		if err != nil {
			return nil, stats, err
		}
		err = populate(st, adverts)
		if cerr := wal.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, stats, err
		}
		n.store, n.wal, stats, err = registry.Recover(registry.WALConfig{Dir: spec.walDir, Fsync: true, NewStore: mkStore})
		if err != nil {
			return nil, stats, err
		}
	} else {
		n.store = mkStore()
		if err := populate(n.store, adverts); err != nil {
			return nil, stats, err
		}
	}

	nodeio, err := udpnet.Listen(udpnet.Config{Bind: "127.0.0.1:0", Multicast: ""})
	if err != nil {
		return nil, stats, err
	}
	n.io = nodeio
	var iface transport.Iface = nodeio
	var clock transport.Clock = nodeio
	if tr != nil {
		iface, clock = tr.wrapIface(nodeio), tr.wrapClock(nodeio)
	}
	env := &runtime.Env{ID: ids.New(), Iface: iface, Clock: clock}
	cfg := federation.Config{
		BeaconInterval:    5 * time.Second,
		Role:              spec.role,
		Domain:            spec.domain,
		RootAddr:          spec.seedAddr,
		ReadWorkers:       stdruntime.GOMAXPROCS(0),
		ResultCacheMaxTTL: 5 * time.Second,
	}
	if spec.seedAddr != "" {
		cfg.SeedAddrs = []string{spec.seedAddr}
	}
	if spec.role != federation.RoleStandalone {
		cfg.DirectoryInterval = directoryEvery
	}
	n.reg = federation.New(env, n.store, cfg)
	handler := func(from transport.Addr, data []byte) { runtime.Dispatch(n.reg, env, from, data) }
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	nodeio.SetHandler(handler)
	nodeio.Do(n.reg.Start)
	return n, stats, nil
}

func (n *regNode) addr() netip.AddrPort { return netip.MustParseAddrPort(string(n.io.Addr())) }

// stop shuts the node down the way registryd's signal handler does,
// minus the shutdown snapshot: the recovery check wants the raw log.
func (n *regNode) stop() error {
	n.io.Do(n.reg.Stop)
	n.io.Close()
	if n.wal != nil {
		return n.wal.Close()
	}
	return nil
}

// startCluster builds the topology of one workload and returns once it
// can answer: for xdomain, once all three directories hold all three
// domains.
func startCluster(in *inputs, wl *workloadDef, outDir string, seed int64, tr *tracer) (*cluster, error) {
	ids := uuid.NewGenerator(uint64(seed) ^ 0x6e6f6465)
	c := &cluster{}
	fail := func(err error) (*cluster, error) {
		c.close()
		return nil, err
	}
	add := func(spec nodeSpec, adverts []wire.Advertisement) (*regNode, error) {
		var before int64
		if tr != nil && len(adverts) > 0 {
			before = liveHeap()
		}
		n, stats, err := startNode(in, spec, adverts, ids, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil && len(adverts) > 0 {
			c.heapPerAdvert = float64(liveHeap()-before) / float64(len(adverts))
		}
		if spec.walDir != "" {
			c.recovery = stats
		}
		c.nodes = append(c.nodes, n)
		return n, nil
	}
	switch wl.topology {
	case topoStandalone, topoDurable:
		spec := nodeSpec{}
		if wl.topology == topoDurable {
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return fail(err)
			}
			dir, err := os.MkdirTemp(outDir, "wal-")
			if err != nil {
				return fail(err)
			}
			c.walDir, spec.walDir = dir, dir
		}
		n, err := add(spec, in.adverts)
		if err != nil {
			return fail(err)
		}
		c.entry, c.data = n, n
	case topoXDomain:
		root, err := add(nodeSpec{role: federation.RoleRoot, domain: "root"}, nil)
		if err != nil {
			return fail(err)
		}
		rootAddr := string(root.io.Addr())
		if c.data, err = add(nodeSpec{role: federation.RoleFederated, domain: "domB", seedAddr: rootAddr}, in.adverts); err != nil {
			return fail(err)
		}
		if c.entry, err = add(nodeSpec{role: federation.RoleFederated, domain: "domA", seedAddr: rootAddr}, nil); err != nil {
			return fail(err)
		}
		if err := c.awaitDirectory(len(c.nodes)); err != nil {
			return fail(err)
		}
	}
	return c, nil
}

func liveHeap() int64 {
	stdruntime.GC()
	var ms stdruntime.MemStats
	stdruntime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// awaitDirectory polls until every node's directory lists want live
// domains.
func (c *cluster) awaitDirectory(want int) error {
	deadline := time.Now().Add(convergeDeadline)
	for {
		converged := true
		for _, n := range c.nodes {
			live := 0
			n.io.Do(func() {
				for _, e := range n.reg.DirectorySnapshot() {
					if !e.Tombstone {
						live++
					}
				}
			})
			if live < want {
				converged = false
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("directory did not converge within %v", convergeDeadline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stopNodes stops every node and closes its log; the WAL directory
// stays for the recovery check.
func (c *cluster) stopNodes() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.stop())
	}
	c.nodes = nil
	return errors.Join(errs...)
}

// close stops every node and removes the WAL directory.
func (c *cluster) close() error {
	err := c.stopNodes()
	if c.walDir != "" {
		err = errors.Join(err, os.RemoveAll(c.walDir))
	}
	return err
}
