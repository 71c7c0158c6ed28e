package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"semdisco/internal/obs"
	"semdisco/internal/registry"
)

type topology uint8

const (
	topoStandalone topology = iota
	topoDurable
	topoXDomain
)

// workloadDef is one traffic mix and the registries it runs against.
type workloadDef struct {
	name     string
	why      string
	topology topology
	// mix is the fixed op cycle every client repeats.
	mix    []opKind
	cold   bool
	domain string
	ttl    uint8
}

var workloads = []*workloadDef{
	{
		name: "query-hot",
		why:  "32 repeated templates fit every cache, so transport, decode and dispatch do most of the work",
		mix:  []opKind{opQuery},
	},
	{
		name: "query-cold",
		why:  "12960 distinct templates miss the caches, so matcher and index do most of the work and transport little",
		mix:  []opKind{opQuery},
		cold: true,
	},
	{
		name:     "churn-durable",
		why:      "60% queries, 30% renews, 10% replaces on a WAL-backed store: fsync barrier, cache invalidation, shard locks",
		topology: topoDurable,
		mix: []opKind{opQuery, opRenew, opQuery, opQuery, opRenew,
			opQuery, opRenew, opQuery, opQuery, opReplace},
	},
	{
		name:     "xdomain",
		why:      "domain-pinned hot queries through gateway, directory and remote domain: two extra hops, two merges",
		topology: topoXDomain,
		mix:      []opKind{opQuery},
		domain:   "domB",
		ttl:      3,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// session is one assembled system: inputs, registries, connected
// clients.
type session struct {
	in      *inputs
	wl      *workloadDef
	cluster *cluster
	clients []*client
	tr      *tracer
	epoch   time.Time
	// recovered is what checkDurable rebuilt from the WAL directory,
	// kept open for the layer replay of a traced run.
	recovered    *registry.Store
	recoveredLog *registry.WAL
}

// openSession performs the whole set-up a run pays before its first
// measured op: generate inputs, populate and start the registries,
// wait for the directory, connect the clients and have each complete
// one query. It returns how long that took.
func openSession(cfg runConfig, wl *workloadDef, tr *tracer) (*session, time.Duration, error) {
	start := time.Now()
	s := &session{wl: wl, tr: tr, epoch: start}
	s.in = genInputs(cfg.seed, cfg.adverts)
	// Client sockets come first so a tracer knows their addresses
	// before any handler runs.
	for i := 0; i < numClients; i++ {
		c, err := openClient(i, s.in, wl, cfg.seed)
		if err != nil {
			s.close()
			return nil, 0, err
		}
		c.epoch = start
		if tr != nil {
			c.slot = tr.register(c.addr)
		}
		s.clients = append(s.clients, c)
	}
	if tr != nil {
		tr.epoch = start
	}
	var err error
	if s.cluster, err = startCluster(s.in, wl, cfg.outDir, cfg.seed, tr); err != nil {
		s.close()
		return nil, 0, err
	}
	for _, c := range s.clients {
		c.dst = s.cluster.entry.addr()
		if rec := c.do(opQuery, -1); !rec.ok {
			s.close()
			return nil, 0, fmt.Errorf("%s: first query got no reply within %v", wl.name, opTimeout)
		}
	}
	return s, time.Since(start), nil
}

func (s *session) close() error {
	for _, c := range s.clients {
		c.conn.Close()
	}
	s.clients = nil
	var err error
	if s.recoveredLog != nil {
		err = s.recoveredLog.Close()
		s.recoveredLog = nil
	}
	if s.cluster != nil {
		err = errors.Join(err, s.cluster.close())
	}
	return err
}

// boundary is the process and registry state at one slice edge.
type boundary struct {
	at  int64 // ns since the session epoch
	cpu time.Duration
	obs obs.Snapshot
}

func (s *session) boundary() boundary {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return boundary{at: int64(time.Since(s.epoch)), cpu: cpu, obs: obs.Default.Snapshot()}
}

// slices splits the measured window so every end-to-end figure can be
// reported as the median of its per-slice values: one noisy second on
// a shared box then moves one slice, not the result.
const slices = 5

// measurement is one warm-up plus measured window.
type measurement struct {
	bounds   []boundary // slices+1 edges
	recs     [][]opRecord
	memStart runtime.MemStats
	memEnd   runtime.MemStats
	gcPauses []int64 // ns, GCs that ended inside the window
	// evalCalls is how often the registries called Model.Evaluate in the
	// window; only a traced session counts them.
	evalCalls int64
}

// measure runs the clients for warm-up + window and records the window.
func (s *session) measure(warm, window time.Duration, progress *progress) *measurement {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, c := range s.clients {
		c.recs = c.recs[:0]
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.loop(&stop)
		}(c)
	}
	progress.set("warm-up", s.clients)
	time.Sleep(warm)

	m := &measurement{}
	var gc0 debug.GCStats
	debug.ReadGCStats(&gc0)
	runtime.ReadMemStats(&m.memStart)
	progress.set("measuring", s.clients)
	if s.tr != nil {
		m.evalCalls = -s.tr.evalCalls.Load()
	}
	begin := time.Now()
	m.bounds = append(m.bounds, s.boundary())
	for i := 1; i <= slices; i++ {
		time.Sleep(time.Until(begin.Add(window * time.Duration(i) / slices)))
		m.bounds = append(m.bounds, s.boundary())
	}
	if s.tr != nil {
		m.evalCalls += s.tr.evalCalls.Load()
	}
	runtime.ReadMemStats(&m.memEnd)
	var gc1 debug.GCStats
	debug.ReadGCStats(&gc1)
	stop.Store(true)
	wg.Wait()

	n := int(gc1.NumGC - gc0.NumGC)
	if n > len(gc1.Pause) {
		n = len(gc1.Pause)
	}
	for _, p := range gc1.Pause[:n] {
		m.gcPauses = append(m.gcPauses, int64(p))
	}
	for _, c := range s.clients {
		m.recs = append(m.recs, c.recs)
	}
	return m
}

// inWindow calls fn for every op that ended inside slice i (or inside
// the whole window when i < 0).
func (m *measurement) inWindow(i int, fn func(*opRecord)) {
	lo, hi := m.bounds[0].at, m.bounds[len(m.bounds)-1].at
	if i >= 0 {
		lo, hi = m.bounds[i].at, m.bounds[i+1].at
	}
	for _, recs := range m.recs {
		for j := range recs {
			if r := &recs[j]; r.end >= lo && r.end < hi {
				fn(r)
			}
		}
	}
}

// counts returns attempted and failed ops of the window. An op fails
// when no matching reply arrived within opTimeout or the registry
// refused it.
func (m *measurement) counts() (attempted, failed int) {
	m.inWindow(-1, func(r *opRecord) {
		attempted++
		if !r.ok {
			failed++
		}
	})
	return
}

func (m *measurement) seconds() float64 {
	return float64(m.bounds[len(m.bounds)-1].at-m.bounds[0].at) / 1e9
}

// delta returns how far a counter moved over the window (slice i when
// i >= 0), summed over names.
func (m *measurement) delta(i int, names ...string) float64 {
	first, last := m.bounds[0], m.bounds[len(m.bounds)-1]
	if i >= 0 {
		first, last = m.bounds[i], m.bounds[i+1]
	}
	var d int64
	for _, name := range names {
		a, _ := first.obs.Get(name)
		b, _ := last.obs.Get(name)
		d += b.Value - a.Value
	}
	return float64(d)
}

var wireByteCounters = []string{"transport.udp.sent.bytes", "transport.udp.recv.bytes"}

// endToEnd computes the five windowed end-to-end metrics, each the
// median of its per-slice values, and logs the slices.
func (m *measurement) endToEnd(log io.Writer) (map[string]float64, error) {
	var ops, p50, p99, cpu, bytes []float64
	for i := 0; i < slices; i++ {
		var lats []int64
		m.inWindow(i, func(r *opRecord) {
			if r.ok {
				lats = append(lats, r.lat)
			}
		})
		if len(lats) == 0 {
			return nil, errors.New("a slice of the window completed no op")
		}
		n := float64(len(lats))
		secs := float64(m.bounds[i+1].at-m.bounds[i].at) / 1e9
		ops = append(ops, n/secs)
		p50 = append(p50, quantile(lats, 0.50)/1e3)
		p99 = append(p99, quantile(lats, 0.99)/1e3)
		cpu = append(cpu, float64((m.bounds[i+1].cpu-m.bounds[i].cpu).Microseconds())/n)
		bytes = append(bytes, m.delta(i, wireByteCounters...)/n)
	}
	fmt.Fprintf(log, "per slice: ops/s %.0f, p50 us %.1f, p99 us %.0f, cpu us/op %.1f, wire B/op %.0f\n", ops, p50, p99, cpu, bytes)
	return map[string]float64{
		"ops_per_s":         median(ops),
		"lat_p50_us":        median(p50),
		"lat_p99_us":        median(p99),
		"cpu_us_per_op":     median(cpu),
		"wire_bytes_per_op": median(bytes),
	}, nil
}

// progress is what the watchdog prints if a run hangs.
type progress struct {
	mu      sync.Mutex
	phase   string
	clients []*client
}

func (p *progress) set(phase string, clients []*client) {
	p.mu.Lock()
	p.phase, p.clients = phase, clients
	p.mu.Unlock()
}

func (p *progress) String() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := "phase " + p.phase
	for _, c := range p.clients {
		s += fmt.Sprintf(", client %d attempted %d ops", c.id, c.attempts.Load())
	}
	return s
}
