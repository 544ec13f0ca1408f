package dopt

import "binpart/internal/ir"

// locSet is a dense bitset over a function's location space. The
// liveness analyses run to a fixpoint over every block several times per
// Cleanup, so the sets use flat words instead of maps: one backing array
// per analysis call, no per-iteration allocation.
type locSet []uint64

func (s locSet) has(l ir.Loc) bool { return s[l>>6]&(1<<(uint(l)&63)) != 0 }
func (s locSet) set(l ir.Loc)      { s[l>>6] |= 1 << (uint(l) & 63) }
func (s locSet) clear(l ir.Loc)    { s[l>>6] &^= 1 << (uint(l) & 63) }

func (s locSet) reset() {
	for i := range s {
		s[i] = 0
	}
}

// or unions t into s and reports whether s gained any location.
func (s locSet) or(t locSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] | w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// newLocSets carves n+extra bitsets for a location space of size space
// out of one backing allocation. The first n are returned as a slice;
// scratch sets follow at indices n..n+extra-1 of the second return.
func newLocSets(n, extra, space int) ([]locSet, []locSet) {
	words := (space + 63) / 64
	backing := make([]uint64, (n+extra)*words)
	sets := make([]locSet, n+extra)
	for i := range sets {
		sets[i] = locSet(backing[i*words : (i+1)*words])
	}
	return sets[:n], sets[n:]
}
