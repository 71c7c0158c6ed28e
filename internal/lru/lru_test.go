package lru

import (
	"reflect"
	"testing"
)

// TestCache walks one cache of capacity 3 through a script and checks
// its full contents, least recently used first, after every step.
func TestCache(t *testing.T) {
	c := New[string, int](3)
	// contents lists the resident keys from least to most recently used
	// without touching them.
	contents := func() []string {
		var keys []string
		for el := c.order.Back(); el != nil; el = el.Prev() {
			keys = append(keys, el.Value.(*entry[string, int]).key)
		}
		return keys
	}
	for _, step := range []struct {
		name string
		op   func()
		want []string
	}{
		{"fill", func() { c.Put("a", 1); c.Put("b", 2); c.Put("c", 3) }, []string{"a", "b", "c"}},
		{"get touches", func() {
			if v, ok := c.Get("a"); !ok || v != 1 {
				t.Fatalf("Get(a) = %d, %v", v, ok)
			}
		}, []string{"b", "c", "a"}},
		{"miss leaves order", func() {
			if _, ok := c.Get("z"); ok {
				t.Fatal("Get(z) hit")
			}
		}, []string{"b", "c", "a"}},
		{"put evicts least recent", func() { c.Put("d", 4) }, []string{"c", "a", "d"}},
		{"replace in place", func() { c.Put("c", 30) }, []string{"a", "d", "c"}},
		{"remove", func() { c.Remove("a"); c.Remove("a") }, []string{"d", "c"}},
		{"refill without eviction", func() { c.Put("e", 5) }, []string{"d", "c", "e"}},
	} {
		step.op()
		if got := contents(); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("%s: contents %v, want %v", step.name, got, step.want)
		}
		if c.Len() != len(step.want) {
			t.Fatalf("%s: Len %d, want %d", step.name, c.Len(), len(step.want))
		}
	}
	if v, ok := c.Get("c"); !ok || v != 30 {
		t.Fatalf("replaced value: Get(c) = %d, %v, want 30", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("evicted key still served")
	}
}
