package uuid

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestNewIsV4(t *testing.T) {
	for i := 0; i < 100; i++ {
		u := New()
		if u.IsNil() {
			t.Fatal("New returned Nil")
		}
		if got := u[6] >> 4; got != 4 {
			t.Fatalf("version nibble = %d, want 4", got)
		}
		if got := u[8] >> 6; got != 2 {
			t.Fatalf("variant bits = %b, want 10", got)
		}
	}
}

func TestNewIsUniqueEnough(t *testing.T) {
	seen := make(map[UUID]bool)
	for i := 0; i < 10000; i++ {
		u := New()
		if seen[u] {
			t.Fatalf("duplicate UUID after %d draws: %s", i, u)
		}
		seen[u] = true
	}
}

func TestStringFormat(t *testing.T) {
	u := UUID{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0x4d, 0xef, 0x80, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07}
	want := "12345678-9abc-4def-8001-020304050607"
	if got := u.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if got := u.Short(); got != "12345678" {
		t.Fatalf("Short() = %q, want 12345678", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	f := func(b [16]byte) bool {
		u := UUID(b)
		got, err := Parse(u.String())
		return err == nil && got == u
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"12345678-9abc-4def-8001-02030405060",   // too short
		"12345678-9abc-4def-8001-0203040506070", // too long
		"12345678x9abc-4def-8001-020304050607",  // wrong separator
		"1234567g-9abc-4def-8001-020304050607",  // non-hex
		strings.Repeat("-", 36),
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	a, b := NewGenerator(42), NewGenerator(42)
	for i := 0; i < 1000; i++ {
		ua, ub := a.New(), b.New()
		if ua != ub {
			t.Fatalf("draw %d diverged: %s vs %s", i, ua, ub)
		}
		if ua.IsNil() {
			t.Fatal("generator produced Nil")
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a, b := NewGenerator(1), NewGenerator(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.New() == b.New() {
			same++
		}
	}
	if same != 0 {
		t.Fatalf("%d collisions between different seeds", same)
	}
}

func TestGeneratorNoDuplicates(t *testing.T) {
	g := NewGenerator(7)
	seen := make(map[UUID]bool)
	for i := 0; i < 10000; i++ {
		u := g.New()
		if seen[u] {
			t.Fatalf("duplicate at draw %d", i)
		}
		seen[u] = true
	}
}

func TestCompare(t *testing.T) {
	lo := UUID{0: 1}
	hi := UUID{0: 2}
	if Compare(lo, hi) != -1 || Compare(hi, lo) != 1 || Compare(lo, lo) != 0 {
		t.Fatal("Compare ordering wrong")
	}
	// Compare must agree with string ordering of the canonical form.
	f := func(x, y [16]byte) bool {
		a, b := UUID(x), UUID(y)
		c := Compare(a, b)
		s := strings.Compare(a.String(), b.String())
		return c == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
