package udpnet

import (
	"sync"
	"testing"
	"time"

	"semdisco/internal/transport"
)

// waitFor polls until cond is true or the deadline passes; real-clock
// tests must tolerate scheduler jitter.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

func TestUnicastLoopback(t *testing.T) {
	a, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	var mu sync.Mutex
	var got []byte
	var from transport.Addr
	b.SetHandler(func(f transport.Addr, data []byte) {
		mu.Lock()
		defer mu.Unlock()
		got = append([]byte{}, data...)
		from = f
	})
	if err := a.Unicast(b.Addr(), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	ok := waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return string(got) == "hello"
	})
	if !ok {
		t.Fatal("datagram never arrived")
	}
	mu.Lock()
	defer mu.Unlock()
	if from != a.Addr() {
		t.Fatalf("from = %s, want %s", from, a.Addr())
	}
}

func TestHandlersSerialized(t *testing.T) {
	a, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	inHandler := 0
	maxConcurrent := 0
	var mu sync.Mutex
	count := 0
	b.SetHandler(func(transport.Addr, []byte) {
		mu.Lock()
		inHandler++
		if inHandler > maxConcurrent {
			maxConcurrent = inHandler
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inHandler--
		count++
		mu.Unlock()
	})
	for i := 0; i < 20; i++ {
		if err := a.Unicast(b.Addr(), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= 15 // UDP may drop a few under load
	})
	mu.Lock()
	defer mu.Unlock()
	if maxConcurrent != 1 {
		t.Fatalf("handlers ran %d-way concurrent; executor must serialize", maxConcurrent)
	}
	if count == 0 {
		t.Fatal("no datagrams processed")
	}
}

func TestAfterAndCancel(t *testing.T) {
	a, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var mu sync.Mutex
	fired := 0
	cancel := a.After(20*time.Millisecond, func() {
		mu.Lock()
		fired++
		mu.Unlock()
	})
	cancel()
	a.After(20*time.Millisecond, func() {
		mu.Lock()
		fired += 10
		mu.Unlock()
	})
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return fired >= 10
	})
	mu.Lock()
	defer mu.Unlock()
	if fired != 10 {
		t.Fatalf("fired = %d, want 10 (first canceled)", fired)
	}
}

func TestDoRunsOnExecutor(t *testing.T) {
	a, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	ran := false
	a.Do(func() { ran = true })
	if !ran {
		t.Fatal("Do did not run synchronously")
	}
}

func TestCloseStopsSends(t *testing.T) {
	a, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	a.Close()
	a.Close() // idempotent
	if err := a.Unicast(b.Addr(), []byte("x")); err == nil {
		t.Fatal("unicast after close succeeded")
	}
	if err := a.Multicast([]byte("x")); err == nil {
		t.Fatal("multicast after close succeeded")
	}
}

func TestMulticastDisabledIsNoop(t *testing.T) {
	a, err := Listen(Config{}) // no group
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.MulticastReady() {
		t.Fatal("multicast ready without a group")
	}
	if err := a.Multicast([]byte("x")); err != nil {
		t.Fatalf("disabled multicast errored: %v", err)
	}
}

func TestMulticastBetweenNodes(t *testing.T) {
	group := "239.77.77.99:17799"
	a, err := Listen(Config{Multicast: group})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Listen(Config{Multicast: group})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !a.MulticastReady() || !b.MulticastReady() {
		t.Skip("multicast unavailable in this environment")
	}
	var mu sync.Mutex
	var got string
	b.SetHandler(func(_ transport.Addr, data []byte) {
		mu.Lock()
		got = string(data)
		mu.Unlock()
	})
	// Multicast delivery may be flaky in constrained environments; try
	// a few times before deciding.
	delivered := false
	for attempt := 0; attempt < 5 && !delivered; attempt++ {
		if err := a.Multicast([]byte("mc")); err != nil {
			t.Fatal(err)
		}
		delivered = waitFor(t, 500*time.Millisecond, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return got == "mc"
		})
	}
	if !delivered {
		t.Skip("multicast datagrams not delivered in this environment")
	}
}

// TestCallbacksSurviveSaturatedQueue: datagrams are dropped when the
// executor queue is full, timer and re-entry callbacks are not — they
// have no sender to retry them. Neither blocks the caller; both run
// once the executor drains, in the executor, unless canceled.
func TestCallbacksSurviveSaturatedQueue(t *testing.T) {
	n, err := Listen(Config{QueueLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	gate, entered := make(chan struct{}), make(chan struct{})
	go n.Do(func() { close(entered); <-gate })
	<-entered // the executor is busy
	if !n.post(func() {}) || n.post(func() {}) {
		t.Fatal("a one-slot queue should take exactly one task")
	}

	ran := make(chan string, 4)
	n.After(0, func() { ran <- "re-entry" })
	n.After(time.Millisecond, func() { ran <- "timer" })
	n.After(0, func() { ran <- "canceled" })()
	time.Sleep(20 * time.Millisecond) // the timer fires into the full queue
	select {
	case name := <-ran:
		t.Fatalf("%s callback ran beside a busy executor", name)
	default:
	}
	close(gate)
	got := map[string]bool{}
	for len(got) < 2 {
		select {
		case name := <-ran:
			got[name] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("after the queue drained only %v ran, want re-entry and timer", got)
		}
	}
	if got["canceled"] {
		t.Fatal("canceled callback ran")
	}
}

// TestZeroDelayAfterIsQueueHandOff: After(0) puts the callback straight
// onto the executor queue, so re-entries run in the order they were
// made and ahead of anything queued later — no runtime timer, and no
// goroutine of its own, in between.
func TestZeroDelayAfterIsQueueHandOff(t *testing.T) {
	n, err := Listen(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var order []int
	n.Do(func() {
		// Posted from the executor itself, so none can run before all are queued.
		for i := 0; i < 100; i++ {
			n.After(0, func() { order = append(order, i) })
		}
	})
	n.Do(func() {}) // behind all of them
	for i, v := range order {
		if v != i {
			t.Fatalf("re-entries ran out of order: %v", order)
		}
	}
	if len(order) != 100 {
		t.Fatalf("%d of 100 re-entries ran by the time a later task did", len(order))
	}
}
