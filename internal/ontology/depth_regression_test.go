package ontology

import (
	"fmt"
	"testing"
)

// TestDepthWithDisconnectedCycles is the regression for a bug the
// random-taxonomy property test caught: subclass cycles with no path to
// Thing used a fallback depth that violated depth monotonicity. Depths
// are now computed on the SCC condensation; this fixed input exercises
// interlocking 2- and 3-cycles feeding reachable classes.
func TestDepthWithDisconnectedCycles(t *testing.T) {
	edges := []byte{0xa2, 0x19, 0x81, 0xce, 0x34, 0x5e, 0xc0, 0xa6, 0xf7, 0xbb, 0xd9, 0xcb, 0x33, 0x28, 0x2d, 0x5f, 0x19, 0x96, 0x4d}
	o := New(ns)
	const n = 12
	for i := 0; i < n; i++ {
		o.AddClass(c(fmt.Sprintf("C%d", i)))
	}
	for i, e := range edges {
		child := c(fmt.Sprintf("C%d", i%n))
		parent := c(fmt.Sprintf("C%d", int(e)%n))
		o.AddClass(child, parent)
	}
	o.Freeze()
	for i := 0; i < n; i++ {
		ci := c(fmt.Sprintf("C%d", i))
		if !o.Subsumes(Thing, ci) {
			t.Errorf("Thing !subsume %s", ci)
		}
		if !o.Subsumes(ci, ci) {
			t.Errorf("not reflexive %s", ci)
		}
		for _, p := range o.Parents(ci) {
			if !o.Subsumes(p, ci) {
				t.Errorf("parent %s !subsume child %s", p, ci)
			}
			if o.depth(ci) > o.depth(p)+1 && o.depth(p) >= 0 && !o.Subsumes(ci, p) {
				t.Errorf("depth(%s)=%d > depth(%s)=%d+1 not cycle", ci, o.depth(ci), p, o.depth(p))
			}
		}
		for _, a := range o.ancestors(ci) {
			for _, aa := range o.ancestors(a) {
				if !o.Subsumes(aa, ci) {
					t.Errorf("transitivity: %s anc-of %s anc-of %s but !subsume", aa, a, ci)
				}
			}
		}
	}
}
