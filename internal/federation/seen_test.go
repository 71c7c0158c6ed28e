package federation

import (
	"testing"
	"time"

	"semdisco/internal/uuid"
	"semdisco/internal/wire"
)

// TestSeenSetBoundedByTimeAndSize: a repeated ID is recognized inside
// the window, the set never holds more than two generations of cap IDs
// however many arrive between rotations, and the second rotation after
// an ID was added forgets it.
func TestSeenSetBoundedByTimeAndSize(t *testing.T) {
	const perGen = 8
	s := newSeenSet(perGen)
	gen := uuid.NewGenerator(5)
	var last uuid.UUID
	for i := 0; i < 50*perGen; i++ {
		last = gen.New()
		if !s.add(last) {
			t.Fatalf("fresh ID %d reported as seen", i)
		}
		if s.add(last) {
			t.Fatalf("ID %d not recognized right after it was added", i)
		}
		if n := len(s.young) + len(s.old); n > 2*perGen {
			t.Fatalf("set holds %d IDs after %d adds, cap is 2 x %d", n, i+1, perGen)
		}
	}
	s.rotate()
	if s.add(last) {
		t.Fatal("ID forgotten after one rotation: the window is at least one period")
	}
	s.rotate()
	if len(s.old) != 0 {
		t.Fatalf("rotation kept %d IDs of the old generation", len(s.old))
	}
	if !s.add(last) {
		t.Fatal("ID still remembered after its generation was rotated out")
	}
}

// TestDuplicateQueryWindow: a registry suppresses a repeated query ID for
// at least SeenTTL and has forgotten it after two.
func TestDuplicateQueryWindow(t *testing.T) {
	h := newHarness(t)
	r := h.addRegistry("lan0", "r", Config{SeenTTL: time.Second})
	tc := h.addClient("lan0", "c")
	qid := h.query(tc, r, "Sensor", 0)
	resend := func() {
		h.query(tc, r, "Sensor", 0, func(q *wire.Query) { q.QueryID = qid })
		h.net.RunFor(100 * time.Millisecond)
	}
	h.net.RunFor(500 * time.Millisecond)
	for _, at := range []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond} {
		resend()
		if got := r.Stats().DuplicatesSuppressed; got == 0 || r.Stats().QueriesAnswered != 1 {
			t.Fatalf("repeat at %v: %d suppressed, %d answered", at, got, r.Stats().QueriesAnswered)
		}
		h.net.RunFor(900 * time.Millisecond)
	}
	// 2.5 s after the first sighting both rotations have passed.
	resend()
	if s := r.Stats(); s.DuplicatesSuppressed != 2 || s.QueriesAnswered != 2 {
		t.Fatalf("repeat after two periods: %d suppressed, %d answered; want it handled afresh", s.DuplicatesSuppressed, s.QueriesAnswered)
	}
}
