package registry

import "slices"

// Candidate generation. A semantic query constrains three things an
// index can see: the category (its summary tokens, or the concept
// closure describe.ConceptIndexer reports), and each required output
// (describe.Model.OutputGroups: a matching advert declares an output in
// every group). Adverts are posted under their category tokens and under
// each declared output concept, so each constraint names a union of
// posting lists holding a superset of the adverts that satisfy it.
// collect sizes those unions per shard, scans the smallest, and tests
// every entry against the remaining constraints on keys the entry
// carries, so only adverts that clear all of them reach Model.Evaluate
// — and the record itself is touched only then.
//
// Soundness is the superset contract: every advert Model.Evaluate
// accepts is in every union it could be scanned from and passes every
// key test. Adverts without keys (undeclared outputs, token-less or
// undeclared categories) are therefore never skipped by a union they
// might belong to: an output group is stated only for requested outputs
// that undeclared advertised outputs can never serve, the category union
// keeps the token-less adverts, and the category is tested on its
// concept ID only when ConceptIndexer promises every match has one.
// Summaries stay category-only: the output postings are local and never
// gossiped.

// posting is one entry of a posting list: the record plus the filter
// keys a scan tests before dereferencing it.
type posting struct {
	st   *stored
	cat  int32    // declared category concept ID, -1 when none
	outs [2]int32 // the first two declared output IDs, -1 when absent
	more bool     // more than two declared outputs: the rest are st.outs[2:]
}

// posting builds the record's posting entry from its index keys.
func (st *stored) posting() posting {
	p := posting{st: st, cat: st.cat, outs: [2]int32{-1, -1}, more: len(st.outs) > 2}
	copy(p.outs[:], st.outs)
	return p
}

// firstIn returns the entry's smallest declared output in set, -1 when
// it has none. A scan over a group's union visits an entry only in the
// list of this output, so an advert declaring two outputs of one group
// is considered once.
func (p *posting) firstIn(set conceptSet) int32 {
	switch {
	case set.has(p.outs[0]):
		return p.outs[0]
	case set.has(p.outs[1]):
		return p.outs[1]
	case p.more:
		for _, o := range p.st.outs[2:] {
			if set.has(o) {
				return o
			}
		}
	}
	return -1
}

// meets reports whether the entry declares an output in every group
// except groups[skip] (skip -1 tests them all).
func (p *posting) meets(groups []outGroup, skip int) bool {
	for i := range groups {
		if i != skip && p.firstIn(groups[i].set) < 0 {
			return false
		}
	}
	return true
}

// unpost swap-removes the entry at pos and returns the shortened list
// plus the record whose entry moved into pos (nil when pos was last);
// the caller rewrites that record's position.
func unpost(list []posting, pos int32) ([]posting, *stored) {
	last := len(list) - 1
	moved := list[last]
	list[pos] = moved
	list[last] = posting{}
	if int(pos) == last {
		return list[:last], nil
	}
	return list[:last], moved.st
}

// conceptSet is a bitset over concept IDs.
type conceptSet []uint64

func newConceptSet(ids []int32) conceptSet {
	var s conceptSet
	for _, id := range ids {
		if id < 0 {
			continue
		}
		if w := int(id >> 6); w >= len(s) {
			s = append(s, make(conceptSet, w+1-len(s))...)
		}
		s[id>>6] |= 1 << (id & 63)
	}
	return s
}

func (s conceptSet) has(id int32) bool {
	return id >= 0 && int(id>>6) < len(s) && s[id>>6]&(1<<(id&63)) != 0
}

// outGroup is one output constraint of a plan: the concept IDs whose
// posting lists hold its union (non-negative, ascending), and the same
// IDs as a set.
type outGroup struct {
	ids []int32
	set conceptSet
}

func newOutGroups(groups [][]int32) []outGroup {
	if len(groups) == 0 {
		return nil
	}
	out := make([]outGroup, len(groups))
	for i, g := range groups {
		ids := slices.DeleteFunc(slices.Clone(g), func(id int32) bool { return id < 0 })
		slices.Sort(ids)
		ids = slices.Compact(ids)
		out[i] = outGroup{ids: ids, set: newConceptSet(ids)}
	}
	return out
}

// groupSize is the length of the group's union in this index, counting an
// advert once per output of the group it declares.
func (ki *kindIndex) groupSize(g *outGroup) int {
	n := 0
	for _, id := range g.ids {
		if int(id) >= len(ki.byOut) {
			break
		}
		n += len(ki.byOut[id])
	}
	return n
}

// categorySize is the length of the category union — the token lists
// plus the token-less adverts for a prunable plan, every advert
// otherwise — counted only until it reaches bound.
func (ki *kindIndex) categorySize(plan *queryPlan, qtoks []tok, bound int) int {
	if !plan.prunable {
		return len(ki.all)
	}
	n := len(ki.noTok)
	for _, t := range qtoks {
		if n >= bound {
			break
		}
		n += len(ki.byTok[t])
	}
	return n
}

// smallestGroup returns the index of the output group whose union to
// scan, or -1 to scan the category union. A group union is eligible
// only when the plan can test the category on the entry's key: it has
// the category's concept closure, or no category constraint at all.
func (ki *kindIndex) smallestGroup(plan *queryPlan, qtoks []tok) int {
	if len(plan.groups) == 0 || (plan.prunable && plan.catSet == nil) {
		return -1
	}
	best, bestN := -1, 0
	for i := range plan.groups {
		if n := ki.groupSize(&plan.groups[i]); best < 0 || n < bestN {
			best, bestN = i, n
		}
	}
	if ki.categorySize(plan, qtoks, bestN) < bestN {
		return -1
	}
	return best
}
