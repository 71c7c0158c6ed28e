package ontology

import (
	"math/bits"
	"slices"
)

// ClassID is a dense interned identifier for a declared class, assigned
// at Freeze when the ontology compiles its taxonomy into array form.
// IDs are contiguous in [0, NumClasses) and follow the lexicographic
// order of the class IRIs, so ascending-ID iteration yields the same
// deterministic order as Classes.
type ClassID int32

// NoClass is the ClassID of an undeclared class.
const NoClass ClassID = -1

// compiledIndex is the dense form of the frozen taxonomy and the only
// one queries read: every class interned to a contiguous ID, the
// reflexive-transitive ancestor and descendant closures as bitset rows,
// and a depth array. Subsumes is a single word test, LCS is a bitwise
// AND plus a max-depth scan, and Similarity is pure arithmetic — no
// string-map traffic on the matchmaking hot path.
type compiledIndex struct {
	ids     map[Class]ClassID
	classes []Class  // by ID, lexicographically sorted
	depths  []int32  // by ID
	words   int      // uint64 words per bitset row
	anc     []uint64 // n×words; row i = reflexive-transitive ancestors of class i
	desc    []uint64 // n×words; row i = reflexive-transitive descendants of class i
	thing   ClassID
}

// compile interns the declared classes and computes the closures and
// depths. Subclass cycles are legal input (they assert class
// equivalence), so the parent graph is condensed into strongly
// connected components first (Tarjan) and both the closure and the
// depths are computed on the resulting DAG: every member of an SCC
// shares one ancestor row (containing all members) and one depth, and
// an SCC with no external superclass (a top-level equivalence cluster)
// sits directly under Thing at depth 1 without a Thing bit in its row.
// Called from Freeze once parents are resolved.
func (o *Ontology) compile() {
	classes := o.Classes()
	n := len(classes)
	ids := make(map[Class]ClassID, n)
	for i, c := range classes {
		ids[c] = ClassID(i)
	}
	parents := make([][]ClassID, n)
	for i, c := range classes {
		for _, p := range o.classes[c].parents {
			parents[i] = append(parents[i], ids[p])
		}
	}
	words := (n + 63) / 64
	ix := &compiledIndex{
		ids:     ids,
		classes: classes,
		depths:  make([]int32, n),
		words:   words,
		anc:     make([]uint64, n*words),
		desc:    make([]uint64, n*words),
		thing:   ids[Thing],
	}

	// Tarjan over parent edges (recursion is fine; ontologies are small
	// and shallow). It emits an SCC only after every SCC it points to —
	// here, its superclass SCCs — so each component's row and depth are
	// final before any subclass component reads them.
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	sccOf := make([]int, n)
	for i := range index {
		index[i] = -1
	}
	var stack []ClassID
	counter, sccs := 0, 0
	var strongconnect func(ClassID)
	strongconnect = func(v ClassID) {
		index[v], low[v] = counter, counter
		counter++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range parents[v] {
			if index[w] < 0 {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		var comp []ClassID
		for {
			w := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			onStack[w] = false
			sccOf[w] = sccs
			comp = append(comp, w)
			if w == v {
				break
			}
		}
		ix.condense(comp, sccs, sccOf, parents)
		sccs++
	}
	for v := range classes {
		if index[v] < 0 {
			strongconnect(ClassID(v))
		}
	}
	for i := 0; i < n; i++ {
		for w, word := range ix.row(ix.anc, ClassID(i)) {
			for word != 0 {
				a := w<<6 + bits.TrailingZeros64(word)
				ix.desc[a*words+(i>>6)] |= 1 << (i & 63)
				word &= word - 1
			}
		}
	}
	o.c = ix
}

// condense fills the ancestor rows and depths of one SCC (comp, numbered
// id) from its members and its external parents, whose rows are final.
func (ix *compiledIndex) condense(comp []ClassID, id int, sccOf []int, parents [][]ClassID) {
	row := ix.row(ix.anc, comp[0])
	for _, m := range comp {
		row[m>>6] |= 1 << (m & 63)
	}
	minParentDepth := int32(-1)
	for _, m := range comp {
		for _, p := range parents[m] {
			if sccOf[p] == id {
				continue
			}
			for w, word := range ix.row(ix.anc, p) {
				row[w] |= word
			}
			if minParentDepth == -1 || ix.depths[p] < minParentDepth {
				minParentDepth = ix.depths[p]
			}
		}
	}
	depth := minParentDepth + 1
	switch {
	case slices.Contains(comp, ix.thing):
		depth = 0
	case minParentDepth == -1:
		// No external superclass: a top-level (possibly cyclic)
		// cluster, conceptually a direct child of Thing.
		depth = 1
	}
	for _, m := range comp {
		copy(ix.row(ix.anc, m), row)
		ix.depths[m] = depth
	}
}

// ClassID returns the interned ID of c, or NoClass when c is undeclared.
func (o *Ontology) ClassID(c Class) ClassID {
	o.mustFrozen()
	if id, ok := o.c.ids[c]; ok {
		return id
	}
	return NoClass
}

// ClassIDBytes is ClassID for an IRI held as bytes. It builds no
// string, so a decoder can resolve an IRI it rebuilt in a scratch
// buffer and take a declared class's string from ClassByID.
func (o *Ontology) ClassIDBytes(b []byte) ClassID {
	o.mustFrozen()
	if id, ok := o.c.ids[Class(b)]; ok {
		return id
	}
	return NoClass
}

// ClassByID returns the class interned as id, or "" when id is out of
// range.
func (o *Ontology) ClassByID(id ClassID) Class {
	o.mustFrozen()
	if !o.c.valid(id) {
		return ""
	}
	return o.c.classes[id]
}

// ThingID returns the interned ID of Thing.
func (o *Ontology) ThingID() ClassID {
	o.mustFrozen()
	return o.c.thing
}

func (c *compiledIndex) valid(id ClassID) bool {
	return id >= 0 && int(id) < len(c.classes)
}

// row is the bitset row of id in the matrix m.
func (c *compiledIndex) row(m []uint64, id ClassID) []uint64 {
	return m[int(id)*c.words : (int(id)+1)*c.words]
}

// bit reports whether row `row` of the matrix m has bit `col` set.
func (c *compiledIndex) bit(m []uint64, row, col ClassID) bool {
	return m[int(row)*c.words+int(col>>6)]&(1<<(col&63)) != 0
}

// SubsumesID reports sub ⊑ super over interned IDs: one bounds check
// and one word test. Thing subsumes every valid ID (top-level
// equivalence clusters omit Thing from their closure row, so Thing is
// special-cased). Invalid IDs subsume nothing and are subsumed by
// nothing.
func (o *Ontology) SubsumesID(super, sub ClassID) bool {
	o.mustFrozen()
	c := o.c
	if !c.valid(super) || !c.valid(sub) {
		return false
	}
	if super == c.thing {
		return true
	}
	return c.bit(c.anc, sub, super)
}

// LCSID returns the deepest common subsumer of a and b over interned
// IDs (ties broken toward the smallest ID, i.e. the lexicographically
// smallest IRI). Invalid IDs yield ThingID.
func (o *Ontology) LCSID(a, b ClassID) ClassID {
	o.mustFrozen()
	c := o.c
	if !c.valid(a) || !c.valid(b) {
		return c.thing
	}
	return c.lcs(a, b)
}

// lcs is LCSID for two valid IDs.
func (c *compiledIndex) lcs(a, b ClassID) ClassID {
	ra, rb := c.row(c.anc, a), c.row(c.anc, b)
	// Thing, at depth 0, is always a (conceptual) subsumer.
	best, bestDepth := c.thing, int32(0)
	for w := range ra {
		shared := ra[w] & rb[w]
		for shared != 0 {
			id := ClassID(w<<6 + bits.TrailingZeros64(shared))
			if d := c.depths[id]; d > bestDepth {
				best, bestDepth = id, d
			}
			shared &= shared - 1
		}
	}
	return best
}

// SimilarityID is the Wu–Palmer similarity over interned IDs:
// 2·depth(lcs) / (depth(a)+depth(b)); identical IDs score 1, invalid
// IDs score 0.
func (o *Ontology) SimilarityID(a, b ClassID) float64 {
	o.mustFrozen()
	c := o.c
	if !c.valid(a) || !c.valid(b) {
		return 0
	}
	if a == b {
		return 1
	}
	da, db := c.depths[a], c.depths[b]
	if da+db == 0 {
		return 0
	}
	return 2 * float64(c.depths[c.lcs(a, b)]) / float64(da+db)
}

// DepthID returns the depth of an interned class (-1 for invalid IDs).
func (o *Ontology) DepthID(id ClassID) int {
	o.mustFrozen()
	if !o.c.valid(id) {
		return -1
	}
	return int(o.c.depths[id])
}

// relatedWord is word w of id's related set: its ancestor row OR its
// descendant row, plus Thing. Thing subsumes every class (SubsumesID
// special-cases it), yet a top-level equivalence cluster has no Thing
// bit in its ancestor row, so the bit is set here explicitly.
func (c *compiledIndex) relatedWord(id ClassID, w int) uint64 {
	word := c.anc[int(id)*c.words+w] | c.desc[int(id)*c.words+w]
	if w == int(c.thing>>6) {
		word |= 1 << (c.thing & 63)
	}
	return word
}

// RelatedIDs returns every ClassID standing in a subsumption relation
// with id — its reflexive-transitive ancestors and descendants, and
// Thing; for Thing, every ID — ascending, which is the lexicographic
// order of the classes. The semantic description model expands a query
// category into its summary-pruning tokens with it, and the registry
// posts standing semantic queries under this closure and filters
// candidates against it. Nil when id is invalid.
func (o *Ontology) RelatedIDs(id ClassID) []ClassID {
	o.mustFrozen()
	c := o.c
	if !c.valid(id) {
		return nil
	}
	if id == c.thing {
		out := make([]ClassID, len(c.classes))
		for i := range out {
			out[i] = ClassID(i)
		}
		return out
	}
	count := 0
	for w := 0; w < c.words; w++ {
		count += bits.OnesCount64(c.relatedWord(id, w))
	}
	out := make([]ClassID, 0, count)
	for w := 0; w < c.words; w++ {
		word := c.relatedWord(id, w)
		for word != 0 {
			out = append(out, ClassID(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}
