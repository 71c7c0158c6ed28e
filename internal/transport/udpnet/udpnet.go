// Package udpnet runs the discovery protocol over real UDP sockets:
// unicast on a bound port plus optional multicast for LAN registry
// discovery (SOAP-over-UDP stands in as plain UDP datagrams; the wire
// format already carries everything the envelope needs).
//
// The protocol state machines require that handlers and timer callbacks
// never run concurrently. udpnet guarantees this by funnelling every
// received datagram and every timer through one executor goroutine per
// node — the live-network analogue of the simulator's event loop.
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"semdisco/internal/obs"
	"semdisco/internal/transport"
)

// Live-socket observability: datagram and byte counts in each
// direction plus executor-queue drops (the UDP analogue of a NIC ring
// overflow). Documented in OBSERVABILITY.md.
var (
	mSentPackets = obs.NewCounter("transport.udp.sent.packets", "count",
		"datagrams written to the socket (unicast + multicast)")
	mSentBytes = obs.NewCounter("transport.udp.sent.bytes", "bytes",
		"payload bytes written to the socket")
	mRecvPackets = obs.NewCounter("transport.udp.recv.packets", "count",
		"datagrams read from the sockets")
	mRecvBytes = obs.NewCounter("transport.udp.recv.bytes", "bytes",
		"payload bytes read from the sockets")
	mDrops = obs.NewCounter("transport.udp.drops", "count",
		"received datagrams dropped because the executor queue was full")
	mBatchSends = obs.NewCounter("transport.udp.batch.sendmmsg", "count",
		"sendmmsg batch-send syscalls (linux fast path)")
	mBatchRecvs = obs.NewCounter("transport.udp.batch.recvmmsg", "count",
		"recvmmsg batch-receive syscalls that returned 2+ datagrams")
)

// Config configures a UDP node.
type Config struct {
	// Bind is the unicast listen address, e.g. "127.0.0.1:0".
	Bind string
	// Multicast is the LAN discovery group, e.g. "239.77.77.77:7777".
	// Empty disables multicast (probes and beacons become no-ops, so
	// seeding is required — the WAN situation of §4.5).
	Multicast string
	// QueueLen bounds the executor queue; default 1024.
	QueueLen int
}

// Node is one live protocol endpoint. It implements transport.Iface,
// transport.Clock and transport.BatchSender.
type Node struct {
	conn   *net.UDPConn
	mconn  *net.UDPConn // multicast listener (nil when disabled)
	group  *net.UDPAddr
	addr   transport.Addr
	tasks  chan func()
	closed chan struct{}
	once   sync.Once

	mu      sync.Mutex
	handler transport.Handler

	// rmu guards the bounded destination-address resolution cache; the
	// renew/ack hot path sends to the same few peers over and over, so
	// re-resolving per datagram is pure overhead.
	rmu      sync.Mutex
	resolved map[transport.Addr]*net.UDPAddr
}

// maxResolveCache bounds the destination resolution cache and each read
// loop's source address cache.
const maxResolveCache = 1024

// sourceKey is a datagram's source as the socket reports it: comparable,
// and built without allocating. scope is the raw IPv6 zone index of the
// recvmmsg path, whose name costs an interface lookup.
type sourceKey struct {
	ap    netip.AddrPort
	scope uint32
}

// sourceCache maps sources to the transport.Addr handlers see, so the
// few peers a node hears from over and over cost one address formatting
// each, not one per datagram. One per read loop, hence no lock.
type sourceCache map[sourceKey]transport.Addr

func (c sourceCache) addr(k sourceKey) transport.Addr {
	a, ok := c[k]
	if !ok {
		if len(c) >= maxResolveCache {
			clear(c)
		}
		ip := k.ap.Addr()
		if k.scope != 0 {
			if ifi, err := net.InterfaceByIndex(int(k.scope)); err == nil {
				ip = ip.WithZone(ifi.Name)
			}
		}
		a = transport.Addr(net.UDPAddrFromAddrPort(netip.AddrPortFrom(ip, k.ap.Port())).String())
		c[k] = a
	}
	return a
}

// resolve returns the UDP address for a destination, caching results.
func (n *Node) resolve(to transport.Addr) (*net.UDPAddr, error) {
	n.rmu.Lock()
	if a, ok := n.resolved[to]; ok {
		n.rmu.Unlock()
		return a, nil
	}
	n.rmu.Unlock()
	dst, err := net.ResolveUDPAddr("udp", string(to))
	if err != nil {
		return nil, fmt.Errorf("udpnet: destination %q: %w", to, err)
	}
	n.rmu.Lock()
	if len(n.resolved) >= maxResolveCache {
		clear(n.resolved)
	}
	n.resolved[to] = dst
	n.rmu.Unlock()
	return dst, nil
}

// Listen binds the node's sockets and starts its executor and reader
// goroutines. Call SetHandler before any traffic is expected.
func Listen(cfg Config) (*Node, error) {
	if cfg.Bind == "" {
		cfg.Bind = "127.0.0.1:0"
	}
	if cfg.QueueLen == 0 {
		cfg.QueueLen = 1024
	}
	uaddr, err := net.ResolveUDPAddr("udp", cfg.Bind)
	if err != nil {
		return nil, fmt.Errorf("udpnet: bind address: %w", err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen: %w", err)
	}
	n := &Node{
		conn:     conn,
		addr:     transport.Addr(conn.LocalAddr().String()),
		tasks:    make(chan func(), cfg.QueueLen),
		closed:   make(chan struct{}),
		resolved: make(map[transport.Addr]*net.UDPAddr),
	}
	if cfg.Multicast != "" {
		group, err := net.ResolveUDPAddr("udp", cfg.Multicast)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udpnet: multicast address: %w", err)
		}
		n.group = group
		// Join on all interfaces; failure (no multicast route in the
		// environment) degrades to unicast-only operation.
		if mc, err := net.ListenMulticastUDP("udp", nil, group); err == nil {
			n.mconn = mc
			go n.readLoop(mc)
		}
	}
	go n.run()
	go n.readLoop(conn)
	return n, nil
}

// MulticastReady reports whether the node joined its multicast group
// (LAN discovery available).
func (n *Node) MulticastReady() bool { return n.mconn != nil }

// SetHandler installs the datagram handler.
func (n *Node) SetHandler(h transport.Handler) {
	n.mu.Lock()
	n.handler = h
	n.mu.Unlock()
}

// run is the executor: all handlers and timers run here, serialized.
func (n *Node) run() {
	for {
		select {
		case <-n.closed:
			return
		case fn := <-n.tasks:
			fn()
		}
	}
}

func (n *Node) readLoop(conn *net.UDPConn) {
	if readLoopOS(n, conn) {
		return // the platform batch receive loop ran until close
	}
	buf := make([]byte, 64*1024)
	sources := sourceCache{}
	for {
		sz, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		n.dispatch(sources.addr(sourceKey{ap: from}), buf[:sz])
	}
}

// dispatch copies one received datagram and hands it to the executor.
func (n *Node) dispatch(fromAddr transport.Addr, b []byte) {
	if fromAddr == n.addr {
		return // our own multicast loopback
	}
	data := make([]byte, len(b))
	copy(data, b)
	mRecvPackets.Inc()
	mRecvBytes.Add(uint64(len(b)))
	if !n.post(func() {
		n.mu.Lock()
		h := n.handler
		n.mu.Unlock()
		if h != nil {
			h(fromAddr, data)
		}
	}) {
		mDrops.Inc()
	}
}

// post enqueues a received datagram onto the executor, dropping when
// the node is closed or the queue is saturated (UDP semantics: better to
// drop than to block the reader); it reports whether the task was
// accepted.
func (n *Node) post(fn func()) bool {
	select {
	case <-n.closed:
		return false
	case n.tasks <- fn:
		return true
	default:
		return false // queue full: drop
	}
}

// enqueue puts a timer or re-entry callback onto the executor. Unlike a
// datagram it has no sender to retry it — a lost tick would end a
// self-rearming timer for good, a lost re-entry a computed answer — so
// it is never dropped while the node is open, and never blocks its
// caller either: behind a saturated queue it waits on a goroutine of
// its own until the executor drains or the node closes.
func (n *Node) enqueue(fn func()) {
	if n.post(fn) {
		return
	}
	go func() {
		select {
		case <-n.closed:
		case n.tasks <- fn:
		}
	}()
}

// Addr implements transport.Iface.
func (n *Node) Addr() transport.Addr { return n.addr }

// errClosed is returned when sending through a closed node.
var errClosed = errors.New("udpnet: node closed")

// Unicast implements transport.Iface.
func (n *Node) Unicast(to transport.Addr, data []byte) error {
	select {
	case <-n.closed:
		return errClosed
	default:
	}
	dst, err := n.resolve(to)
	if err != nil {
		return err
	}
	_, err = n.conn.WriteToUDP(data, dst)
	if err == nil {
		mSentPackets.Inc()
		mSentBytes.Add(uint64(len(data)))
	}
	return err
}

// UnicastBatch implements transport.BatchSender: all datagrams go to
// the network in one operation — a single sendmmsg syscall on linux,
// a plain write loop elsewhere. Best-effort like Unicast.
func (n *Node) UnicastBatch(msgs []transport.Outgoing) error {
	select {
	case <-n.closed:
		return errClosed
	default:
	}
	dsts := make([]*net.UDPAddr, len(msgs))
	for i, m := range msgs {
		dst, err := n.resolve(m.To)
		if err != nil {
			return err
		}
		dsts[i] = dst
	}
	sent := writeBatchOS(n, dsts, msgs)
	// Whatever the fast path did not cover goes out one write at a time.
	for i := sent; i < len(msgs); i++ {
		if _, err := n.conn.WriteToUDP(msgs[i].Data, dsts[i]); err != nil {
			return err
		}
		mSentPackets.Inc()
		mSentBytes.Add(uint64(len(msgs[i].Data)))
	}
	return nil
}

// Multicast implements transport.Iface. Without a multicast group this
// is a silent no-op: nodes then rely on seeding, like any WAN node.
func (n *Node) Multicast(data []byte) error {
	select {
	case <-n.closed:
		return errClosed
	default:
	}
	if n.group == nil {
		return nil
	}
	_, err := n.conn.WriteToUDP(data, n.group)
	if err == nil {
		mSentPackets.Inc()
		mSentBytes.Add(uint64(len(data)))
	}
	return err
}

// Close implements transport.Iface.
func (n *Node) Close() error {
	n.once.Do(func() {
		close(n.closed)
		n.conn.Close()
		if n.mconn != nil {
			n.mconn.Close()
		}
	})
	return nil
}

// Now implements transport.Clock.
func (n *Node) Now() time.Time { return time.Now() }

// After implements transport.Clock: the callback is funnelled through
// the executor so it never races a message handler. A zero delay is a
// re-entry, not a timer — work done off the executor handing its result
// back — and goes straight onto the queue.
func (n *Node) After(d time.Duration, fn func()) transport.CancelFunc {
	var canceled atomic.Bool
	run := func() {
		if !canceled.Load() {
			fn()
		}
	}
	if d <= 0 {
		n.enqueue(run)
		return func() { canceled.Store(true) }
	}
	t := time.AfterFunc(d, func() { n.enqueue(run) })
	return func() {
		canceled.Store(true)
		t.Stop()
	}
}

// Do runs fn on the executor and waits for it — the bridge external
// callers (CLI commands) use to interact with a node's state machine
// safely.
func (n *Node) Do(fn func()) {
	done := make(chan struct{})
	n.enqueue(func() {
		fn()
		close(done)
	})
	select {
	case <-done:
	case <-n.closed:
	}
}
