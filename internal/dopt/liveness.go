package dopt

import "binpart/internal/ir"

// locSet is a dense bitset over a function's location space. Liveness
// runs to a fixpoint over every block several times per Cleanup, so the
// sets use flat words instead of maps, carved from a liveness workspace's
// one backing array.
type locSet []uint64

func (s locSet) has(l ir.Loc) bool { return s[l>>6]&(1<<(uint(l)&63)) != 0 }
func (s locSet) set(l ir.Loc)      { s[l>>6] |= 1 << (uint(l) & 63) }
func (s locSet) clear(l ir.Loc)    { s[l>>6] &^= 1 << (uint(l) & 63) }

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

// liveness is a reusable workspace for ABI-aware block liveness. One
// backing array holds, per block, the gen (upward-exposed uses) and kill
// (definitions and call clobbers) summaries and the live-in and live-out
// sets, plus one scratch set. OptimizeWith keeps one workspace per
// function, so Cleanup's rounds reuse its memory. Every solve clears the
// sets it hands out, and a function whose locations outgrow the sets
// resizes the workspace before any bit is read.
type liveness struct {
	words   int // uint64 words per set
	backing []uint64
	sets    []locSet

	gen, kill, liveIn, liveOut []locSet
	live                       locSet // scratch
}

// fit carves zeroed sets for n blocks, reusing the backing memory when it
// is large enough.
func (lv *liveness) fit(n int) {
	w := lv.words
	if need := (4*n + 1) * w; cap(lv.backing) >= need {
		lv.backing = lv.backing[:need]
		clear(lv.backing)
	} else {
		lv.backing = make([]uint64, need)
	}
	if cap(lv.sets) >= 4*n+1 {
		lv.sets = lv.sets[:4*n+1]
	} else {
		lv.sets = make([]locSet, 4*n+1)
	}
	for i := range lv.sets {
		lv.sets[i] = locSet(lv.backing[i*w : (i+1)*w])
	}
	lv.gen, lv.kill = lv.sets[:n], lv.sets[n:2*n]
	lv.liveIn, lv.liveOut = lv.sets[2*n:3*n], lv.sets[3*n:4*n]
	lv.live = lv.sets[4*n]
}

// summarize computes every block's gen and kill sets: the composition of
// the per-instruction transfer (clear the destination and, at a call, the
// clobbered registers; then add the uses) over the block, backwards. It
// reports false, leaving the sets partial, if a location falls outside
// the workspace's sets.
func (lv *liveness) summarize(f *ir.Func) bool {
	lv.fit(len(f.Blocks))
	var ub [2]ir.Loc
	for i, b := range f.Blocks {
		gen, kill := lv.gen[i], lv.kill[i]
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			if in.HasDst() {
				if int(in.Dst>>6) >= lv.words {
					return false
				}
				gen.clear(in.Dst)
				kill.set(in.Dst)
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					gen.clear(l)
					kill.set(l)
				}
			}
			for _, u := range effUses(in, ub[:0]) {
				if int(u>>6) >= lv.words {
					return false
				}
				gen.set(u)
			}
		}
	}
	return true
}

// solve computes block liveness with ABI-aware uses (calls read argument
// registers, returns read the ABI-live set) by a backward fixpoint over
// the gen/kill summaries, a word at a time. The returned sets belong to
// the workspace and stay valid until its next solve; treat them as
// read-only.
func (lv *liveness) solve(f *ir.Func) (liveIn, liveOut []locSet) {
	if lv.words == 0 || !lv.summarize(f) {
		lv.words = (f.LocSpace() + 63) / 64
		lv.summarize(f)
	}
	liveIn, liveOut = lv.liveIn, lv.liveOut
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			out := liveOut[i]
			for _, s := range f.Blocks[i].Succs {
				out.or(liveIn[s.Index])
			}
			in, gen, kill := liveIn[i], lv.gen[i], lv.kill[i]
			for w := range in {
				if nw := gen[w] | out[w]&^kill[w]; nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return liveIn, liveOut
}
