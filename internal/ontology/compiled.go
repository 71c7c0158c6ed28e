package ontology

import "math/bits"

// ClassID is a dense interned identifier for a declared class, assigned
// at Freeze when the ontology compiles its taxonomy into array form.
// IDs are contiguous in [0, NumClassIDs) and follow the lexicographic
// order of the class IRIs, so ascending-ID iteration yields the same
// deterministic order as the map-based enumeration helpers.
type ClassID int32

// NoClass is the ClassID of an undeclared class (or any class when the
// ontology was frozen without a compiled index).
const NoClass ClassID = -1

// compiledIndex is the dense form of the frozen taxonomy: every class
// interned to a contiguous ID, the reflexive-transitive ancestor and
// descendant closures as bitset rows, and depth/label arrays. With it,
// Subsumes is a single word test, LCS is a bitwise AND plus a max-depth
// scan, and Similarity is pure arithmetic — no string-map traffic on
// the matchmaking hot path.
type compiledIndex struct {
	ids     map[Class]ClassID
	classes []Class  // by ID, lexicographically sorted
	labels  []string // by ID; "" means unset
	depths  []int32  // by ID
	words   int      // uint64 words per bitset row
	anc     []uint64 // n×words; row i = reflexive-transitive ancestors of class i
	desc    []uint64 // n×words; row i = reflexive-transitive descendants of class i
	thing   ClassID
}

// compile builds the dense index from the frozen map-based closures and
// then releases the per-class ancestor maps — the bitsets replace them.
// Called from Freeze with the closures freshly computed.
func (o *Ontology) compile() {
	n := len(o.classes)
	classes := make([]Class, 0, n)
	for c := range o.classes {
		classes = append(classes, c)
	}
	sortClasses(classes)
	ids := make(map[Class]ClassID, n)
	for i, c := range classes {
		ids[c] = ClassID(i)
	}
	words := (n + 63) / 64
	ci := &compiledIndex{
		ids:     ids,
		classes: classes,
		labels:  make([]string, n),
		depths:  make([]int32, n),
		words:   words,
		anc:     make([]uint64, n*words),
		desc:    make([]uint64, n*words),
		thing:   ids[Thing],
	}
	for i, c := range classes {
		info := o.classes[c]
		ci.labels[i] = info.label
		ci.depths[i] = int32(info.depth)
		row := ci.anc[i*words : (i+1)*words]
		for a := range info.ancestors {
			aid := int(ids[a])
			row[aid>>6] |= 1 << (aid & 63)
			ci.desc[aid*words+(i>>6)] |= 1 << (i & 63)
		}
	}
	o.c = ci
	// The bitsets now carry the closure; drop the maps (members of one
	// SCC share a map, so nil-ing per class is safe and idempotent).
	for _, info := range o.classes {
		info.ancestors = nil
	}
}

func sortClasses(cs []Class) {
	// Insertion-free path via sort.Slice lives in ontology.go helpers;
	// kept here as a tiny wrapper to avoid an import cycle of concerns.
	sortClassSlice(cs)
}

// DisableCompiledIndex makes Freeze keep the map-based ancestor
// closures instead of compiling the dense index. Queries then run on
// the original map path. This exists for tests and benchmarks that
// compare the two implementations; production code should never call
// it. Returns ErrFrozen when the ontology is already frozen.
func (o *Ontology) DisableCompiledIndex() error {
	if o.frozen {
		return ErrFrozen
	}
	o.compileDisabled = true
	return nil
}

// Compiled reports whether the ontology carries the dense interned
// index (true for any ontology frozen without DisableCompiledIndex).
func (o *Ontology) Compiled() bool { return o.c != nil }

// ClassID returns the interned ID of c, or NoClass when c is undeclared
// or the ontology has no compiled index.
func (o *Ontology) ClassID(c Class) ClassID {
	if o.c == nil {
		return NoClass
	}
	if id, ok := o.c.ids[c]; ok {
		return id
	}
	return NoClass
}

// ClassByID returns the class interned as id, or "" when id is out of
// range or the ontology has no compiled index.
func (o *Ontology) ClassByID(id ClassID) Class {
	if o.c == nil || id < 0 || int(id) >= len(o.c.classes) {
		return ""
	}
	return o.c.classes[id]
}

// NumClassIDs returns the number of interned classes (equal to
// NumClasses when compiled, 0 otherwise).
func (o *Ontology) NumClassIDs() int {
	if o.c == nil {
		return 0
	}
	return len(o.c.classes)
}

// ThingID returns the interned ID of Thing (NoClass when uncompiled).
func (o *Ontology) ThingID() ClassID {
	if o.c == nil {
		return NoClass
	}
	return o.c.thing
}

func (c *compiledIndex) valid(id ClassID) bool {
	return id >= 0 && int(id) < len(c.classes)
}

// bit reports whether row `row` of the matrix m has bit `col` set.
func (c *compiledIndex) bit(m []uint64, row, col ClassID) bool {
	return m[int(row)*c.words+int(col>>6)]&(1<<(col&63)) != 0
}

// SubsumesID reports sub ⊑ super over interned IDs: one bounds check
// and one word test. Thing subsumes every valid ID (top-level
// equivalence clusters omit Thing from their closure row, matching the
// map-based semantics, so Thing is special-cased). Invalid IDs subsume
// nothing and are subsumed by nothing.
func (o *Ontology) SubsumesID(super, sub ClassID) bool {
	c := o.c
	if c == nil || !c.valid(super) || !c.valid(sub) {
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
	c := o.c
	if c == nil {
		return NoClass
	}
	if !c.valid(a) || !c.valid(b) {
		return c.thing
	}
	ra := c.anc[int(a)*c.words : (int(a)+1)*c.words]
	rb := c.anc[int(b)*c.words : (int(b)+1)*c.words]
	best := c.thing
	bestDepth := int32(-1)
	if c.depths[c.thing] == 0 { // Thing is always a (conceptual) subsumer
		bestDepth = 0
	}
	for w := 0; w < c.words; w++ {
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
	c := o.c
	if c == nil || !c.valid(a) || !c.valid(b) {
		return 0
	}
	if a == b {
		return 1
	}
	da, db := c.depths[a], c.depths[b]
	if da+db == 0 {
		return 0
	}
	lcs := o.LCSID(a, b)
	return 2 * float64(c.depths[lcs]) / float64(da+db)
}

// DepthID returns the depth of an interned class (-1 for invalid IDs).
func (o *Ontology) DepthID(id ClassID) int {
	c := o.c
	if c == nil || !c.valid(id) {
		return -1
	}
	return int(c.depths[id])
}

// rowClasses expands a bitset row into classes in ascending-ID
// (= lexicographic) order.
func (c *compiledIndex) rowClasses(m []uint64, row ClassID) []Class {
	r := m[int(row)*c.words : (int(row)+1)*c.words]
	count := 0
	for _, w := range r {
		count += bits.OnesCount64(w)
	}
	out := make([]Class, 0, count)
	for w, word := range r {
		for word != 0 {
			out = append(out, c.classes[w<<6+bits.TrailingZeros64(word)])
			word &= word - 1
		}
	}
	return out
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

// Related returns every class standing in a subsumption relation with c
// — its reflexive-transitive ancestors and descendants, and Thing; for
// Thing, every class — in deterministic (lexicographic) order. The
// semantic description model uses it to expand a query category into
// its summary-pruning token neighbourhood with a single bitset pass.
// Unknown classes yield nil.
func (o *Ontology) Related(cl Class) []Class {
	o.mustFrozen()
	if c := o.c; c != nil {
		id, ok := c.ids[cl]
		if !ok {
			return nil
		}
		ids := o.RelatedIDs(id)
		out := make([]Class, len(ids))
		for i, rid := range ids {
			out[i] = c.classes[rid]
		}
		return out
	}
	if cl == Thing {
		return o.Classes()
	}
	if !o.HasClass(cl) {
		return nil
	}
	anc := o.Ancestors(cl)
	seen := make(map[Class]bool, len(anc)+8)
	out := make([]Class, 0, len(anc)+8)
	for _, a := range append(anc, Thing) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for _, d := range o.Descendants(cl) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	sortClassSlice(out)
	return out
}

// RelatedIDs is Related in the interned-ID domain: every ClassID
// standing in a subsumption relation with id (reflexive-transitive
// ancestors and descendants, and Thing; every ID for Thing), ascending.
// The registry posts standing semantic queries under this closure and
// filters candidates against it. Nil when the ontology carries no
// compiled index or id is invalid — callers then fall back to the
// string-token domain, matching how every other interned path degrades.
func (o *Ontology) RelatedIDs(id ClassID) []ClassID {
	o.mustFrozen()
	c := o.c
	if c == nil || !c.valid(id) {
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
