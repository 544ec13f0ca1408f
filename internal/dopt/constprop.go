// Package dopt implements the decompiler optimizations of the reproduced
// paper, in two groups:
//
// Instruction-set overhead removal:
//   - constant propagation (turns "addu rd, rs, $zero" register moves and
//     "addiu rd, $zero, imm" constant loads back into moves/constants,
//     then propagates)
//   - operator size reduction (bit-width analysis annotating each
//     operation with the width a synthesized functional unit needs)
//   - strength reduction (multiplication/division by powers of two become
//     shifts for synthesis)
//   - stack operation removal (callee-save boilerplate disappears, scalar
//     spill slots are promoted to virtual registers)
//
// Undoing software compiler optimizations:
//   - strength promotion (shift/add sequences computing x*C are folded
//     back into a single multiplication so the synthesis tool can choose
//     the best implementation)
//   - loop rerolling (bodies unrolled by the compiler are rolled back,
//     shrinking the CDFG and re-exposing the memory access pattern)
package dopt

import "binpart/internal/ir"

// ConstProp performs per-block constant and copy propagation. The zero
// register is treated as the constant 0, which is what collapses the
// MIPS idioms "addu rd, rs, $zero" (move) and "addiu rt, $zero, imm"
// (constant load). Returns the number of instructions simplified.
func ConstProp(f *ir.Func) int {
	// The per-block environment is an epoch-stamped dense array over the
	// function's location space: entering a block bumps the epoch instead
	// of clearing (or reallocating) the bindings, and a binding counts
	// only if its stamp matches the current epoch. ConstProp runs inside
	// Cleanup's fixpoint, so keeping this loop allocation-light matters.
	env := newConstEnv(f)
	changed := 0
	for _, b := range f.Blocks {
		env.enter()
		for i := range b.Instrs {
			in := &b.Instrs[i]
			beforeOp, beforeA, beforeB := in.Op, in.A, in.B
			switch {
			case in.Op.IsBinary():
				in.A, in.B = env.sub(in.A), env.sub(in.B)
				simplify(in)
			case in.Op == ir.Move || in.Op == ir.IJump || in.Op == ir.Load:
				in.A = env.sub(in.A)
			case in.Op == ir.Store:
				in.A, in.B = env.sub(in.A), env.sub(in.B)
			case in.Op == ir.Branch:
				in.A, in.B = env.sub(in.A), env.sub(in.B)
			}
			if in.Op != beforeOp || in.A != beforeA || in.B != beforeB {
				changed++
			}
			if in.HasDst() {
				env.invalidate(in.Dst)
				if in.Op == ir.Move && (in.A.IsConst || in.A.Loc != in.Dst) {
					env.define(in.Dst, in.A)
				}
			}
			if in.Op == ir.Call {
				// Calls clobber the caller-saved state.
				for _, l := range callClobbered {
					env.invalidate(l)
				}
			}
		}
	}
	return changed
}

// constEnv is ConstProp's per-block binding environment: location ->
// known Arg, valid only while the stamp matches the current epoch. Each
// location also heads a list, kept in one arena, of the copy bindings
// that read it, so redefining a location visits only those bindings
// instead of scanning the whole location space.
type constEnv struct {
	loc   []locEnv
	arena []copyLink
	epoch uint32
}

// locEnv is one location's binding and the head of its reader list
// (an arena index, or -1), each valid while its stamp matches the epoch.
type locEnv struct {
	val       ir.Arg
	stamp     uint32
	head      int32
	headStamp uint32
}

// copyLink is one arena entry: location reader holds a copy of the
// list's location.
type copyLink struct {
	reader ir.Loc
	next   int32
}

// newConstEnv sizes the environment for f. A block binds at most one
// copy per instruction, so the arena never outgrows the longest block.
func newConstEnv(f *ir.Func) constEnv {
	longest := 0
	for _, b := range f.Blocks {
		longest = max(longest, len(b.Instrs))
	}
	return constEnv{
		loc:   make([]locEnv, f.LocSpace()),
		arena: make([]copyLink, 0, longest),
	}
}

// enter starts a new block: every binding and reader list goes stale.
func (e *constEnv) enter() {
	e.epoch++
	e.arena = e.arena[:0]
}

func (e *constEnv) sub(a ir.Arg) ir.Arg {
	if a.IsConst {
		return a
	}
	if a.Loc == ir.RegZero {
		return ir.C(0)
	}
	if le := &e.loc[a.Loc]; le.stamp == e.epoch {
		return le.val
	}
	return a
}

func (e *constEnv) define(l ir.Loc, a ir.Arg) {
	le := &e.loc[l]
	le.val, le.stamp = a, e.epoch
	if a.IsConst {
		return
	}
	src := &e.loc[a.Loc]
	next := int32(-1)
	if src.headStamp == e.epoch {
		next = src.head
	}
	src.head, src.headStamp = int32(len(e.arena)), e.epoch
	e.arena = append(e.arena, copyLink{reader: l, next: next})
}

// invalidate drops the binding for l and every copy binding that reads
// it.
func (e *constEnv) invalidate(l ir.Loc) {
	le := &e.loc[l]
	le.stamp = 0
	if le.headStamp != e.epoch {
		return
	}
	le.headStamp = 0
	for n := le.head; n >= 0; n = e.arena[n].next {
		r := &e.loc[e.arena[n].reader]
		if r.stamp == e.epoch && !r.val.IsConst && r.val.Loc == l {
			r.stamp = 0
		}
	}
}

// callClobbered lists locations a call may redefine (MIPS o32
// caller-saved set plus HI/LO and the linkage registers).
var callClobbered = func() []ir.Loc {
	regs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 31}
	out := make([]ir.Loc, 0, len(regs)+2)
	for _, r := range regs {
		out = append(out, ir.Loc(r))
	}
	return append(out, ir.LocHI, ir.LocLO)
}()

// callUses lists locations a call may read (argument registers and sp).
var callUses = []ir.Loc{ir.RegA0, ir.RegA0 + 1, ir.RegA0 + 2, ir.RegA0 + 3, ir.RegSP}

// retUses lists locations live at a function return under this system's
// ABI: the 32-bit result, callee-saved registers, and the stack/frame/
// link registers. ($v1 would join for 64-bit results, which MicroC has
// none of; treating it as dead lets DCE remove leftover temporaries.)
var retUses = func() []ir.Loc {
	out := []ir.Loc{ir.RegV0, ir.RegSP, ir.RegFP, ir.RegRA}
	for r := 16; r <= 23; r++ {
		out = append(out, ir.Loc(r))
	}
	return out
}()

// simplify folds a binary instruction with known-constant inputs and
// applies algebraic identities, possibly rewriting it to a Move.
func simplify(in *ir.Instr) {
	if !in.Op.IsBinary() {
		return
	}
	if in.A.IsConst && in.B.IsConst {
		if v, ok := evalBinary(in.Op, in.A.Val, in.B.Val); ok {
			*in = ir.Instr{Op: ir.Move, Dst: in.Dst, A: ir.C(v), Addr: in.Addr}
			return
		}
	}
	isC := func(a ir.Arg, v int32) bool { return a.IsConst && a.Val == v }
	toMove := func(a ir.Arg) {
		*in = ir.Instr{Op: ir.Move, Dst: in.Dst, A: a, Addr: in.Addr}
	}
	switch in.Op {
	case ir.Add:
		if isC(in.B, 0) {
			toMove(in.A)
		} else if isC(in.A, 0) {
			toMove(in.B)
		}
	case ir.Sub:
		if isC(in.B, 0) {
			toMove(in.A)
		}
	case ir.Or, ir.Xor:
		if isC(in.B, 0) {
			toMove(in.A)
		} else if isC(in.A, 0) {
			toMove(in.B)
		}
	case ir.And:
		if isC(in.A, 0) || isC(in.B, 0) {
			toMove(ir.C(0))
		} else if isC(in.B, -1) {
			toMove(in.A)
		}
	case ir.Mul:
		if isC(in.A, 0) || isC(in.B, 0) {
			toMove(ir.C(0))
		} else if isC(in.B, 1) {
			toMove(in.A)
		} else if isC(in.A, 1) {
			toMove(in.B)
		}
	case ir.Shl, ir.ShrL, ir.ShrA:
		if isC(in.B, 0) {
			toMove(in.A)
		}
	}
}

// evalBinary folds an IR binary op over constants.
func evalBinary(op ir.Op, a, b int32) (int32, bool) {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.MulH:
		return int32(uint64(int64(a)*int64(b)) >> 32), true
	case ir.MulHU:
		return int32(uint64(ua) * uint64(ub) >> 32), true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return a, true
		}
		return a / b, true
	case ir.DivU:
		if b == 0 {
			return 0, false
		}
		return int32(ua / ub), true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return 0, true
		}
		return a % b, true
	case ir.RemU:
		if b == 0 {
			return 0, false
		}
		return int32(ua % ub), true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.Shl:
		return a << (ub & 31), true
	case ir.ShrL:
		return int32(ua >> (ub & 31)), true
	case ir.ShrA:
		return a >> (ub & 31), true
	case ir.SetLT:
		if a < b {
			return 1, true
		}
		return 0, true
	case ir.SetLTU:
		if ua < ub {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// FoldMoves collapses adjacent "x = op ...; y = x" pairs into
// "y = op ..." when the intermediate x is dead afterwards (not read again
// in the block and not live out of it). This removes the temp-and-move
// shape register allocation leaves behind and is what re-exposes
// induction variables ("r14 = add r25, 1; r25 = r14" becomes
// "r25 = add r25, 1"). Registers are freely reused by compilers, so the
// deadness check must be liveness-based rather than use-count-based.
func FoldMoves(f *ir.Func) int {
	_, liveOut := abiLiveness(f)
	return foldMoves(f, liveOut)
}

// foldMoves is FoldMoves given the block live-out of f as it stands.
func foldMoves(f *ir.Func, liveOut []locSet) int {
	folded := 0
	for _, b := range f.Blocks {
		for i := 1; i < len(b.Instrs); i++ {
			mv := &b.Instrs[i]
			if mv.Op != ir.Move || mv.A.IsConst {
				continue
			}
			x := mv.A.Loc
			if x == ir.RegZero || x == mv.Dst {
				continue
			}
			prev := &b.Instrs[i-1]
			if !prev.HasDst() || prev.Dst != x || prev.Op == ir.Move {
				continue
			}
			if usedLater(b, i+1, x) || liveOut[b.Index].has(x) {
				continue
			}
			prev.Dst = mv.Dst
			*mv = ir.Instr{Op: ir.Nop, Addr: mv.Addr}
			folded++
		}
	}
	return folded
}

// usedLater reports whether loc is read in b at or after index from,
// before being redefined.
func usedLater(b *ir.Block, from int, loc ir.Loc) bool {
	var ub [2]ir.Loc
	for i := from; i < len(b.Instrs); i++ {
		in := &b.Instrs[i]
		for _, u := range effUses(in, ub[:0]) {
			if u == loc {
				return true
			}
		}
		if in.Op == ir.Call {
			// The call may observe caller-saved state only via args,
			// which effUses covers; a clobber ends the live range.
			for _, l := range callClobbered {
				if l == loc {
					return false
				}
			}
		}
		if in.HasDst() && in.Dst == loc {
			return false
		}
	}
	return false
}

// abiLiveness computes block liveness with ABI-aware uses (calls read
// argument registers, returns read the ABI-live set) in a workspace of
// its own. The returned sets share one backing allocation; treat them as
// read-only.
func abiLiveness(f *ir.Func) (liveIn, liveOut []locSet) {
	return new(liveness).solve(f)
}

// effUses extends Instr.Uses with ABI effects: calls read the argument
// registers, returns read the ABI-live set. ABI ops return shared
// package-level slices and other ops append into buf, so a caller-held
// buffer of capacity two makes the call allocation-free; the result is
// only valid until buf's next reuse and must not be mutated.
func effUses(in *ir.Instr, buf []ir.Loc) []ir.Loc {
	switch in.Op {
	case ir.Call:
		return callUses
	case ir.Ret:
		return retUses
	case ir.Halt:
		return haltUses
	}
	return in.AppendUses(buf)
}

var haltUses = []ir.Loc{ir.RegV0}

// DeadCode removes pure instructions whose destinations are never live,
// using backwards per-instruction liveness with ABI-aware uses. Returns
// the number of instructions removed.
func DeadCode(f *ir.Func) int {
	lv := new(liveness)
	_, liveOut := lv.solve(f)
	return deadCode(f, liveOut, lv.live)
}

// deadCode is DeadCode given the block live-out of f as it stands and a
// scratch set as wide as liveOut's.
func deadCode(f *ir.Func, liveOut []locSet, live locSet) int {
	var ub [2]ir.Loc
	removed := 0
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		b := f.Blocks[i]
		copy(live, liveOut[i])
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			if in.HasDst() && !live.has(in.Dst) && pure(in) {
				*in = ir.Instr{Op: ir.Nop, Addr: in.Addr}
				removed++
				continue
			}
			if in.HasDst() {
				live.clear(in.Dst)
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					live.clear(l)
				}
			}
			for _, u := range effUses(in, ub[:0]) {
				live.set(u)
			}
		}
	}
	// Drop accumulated Nops.
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != ir.Nop {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	return removed
}

// pure reports whether removing the instruction is safe when its result
// is dead. Loads are pure in this memory model (no volatile/IO).
func pure(in *ir.Instr) bool {
	if in.Op.IsBinary() {
		return true
	}
	return in.Op == ir.Move || in.Op == ir.Load
}

// GlobalConstProp propagates constants across blocks in the simple
// single-definition case: a location whose only definition in the whole
// function is a constant move *in the entry block* holds that constant at
// every later program point (the entry block dominates everything, and a
// single def cannot be shadowed). Returns substitutions made.
func GlobalConstProp(f *ir.Func) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	defCount := map[ir.Loc]int{}
	constVal := map[ir.Loc]int32{}
	inEntry := map[ir.Loc]bool{}
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() {
				continue
			}
			defCount[in.Dst]++
			if in.Op == ir.Move && in.A.IsConst {
				constVal[in.Dst] = in.A.Val
				inEntry[in.Dst] = bi == 0
			} else {
				delete(constVal, in.Dst)
			}
		}
	}
	// Only locations with exactly one def: a constant move in the entry
	// block.
	sub := map[ir.Loc]int32{}
	for loc, v := range constVal {
		if defCount[loc] == 1 && inEntry[loc] {
			sub[loc] = v
		}
	}
	if len(sub) == 0 {
		return 0
	}
	n := 0
	seenDef := map[ir.Loc]bool{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			rewrite := func(a *ir.Arg) {
				if a.IsConst {
					return
				}
				if v, ok := sub[a.Loc]; ok && seenDef[a.Loc] {
					*a = ir.C(v)
					n++
				}
			}
			switch {
			case in.Op.IsBinary() || in.Op == ir.Branch || in.Op == ir.Store:
				rewrite(&in.A)
				rewrite(&in.B)
			case in.Op == ir.Move || in.Op == ir.Load || in.Op == ir.IJump:
				rewrite(&in.A)
			}
			if in.HasDst() {
				if _, ok := sub[in.Dst]; ok {
					seenDef[in.Dst] = true
				}
			}
		}
	}
	return n
}

// Cleanup iterates ConstProp, FoldMoves and DeadCode to a fixpoint; this
// is the paper's "constant propagation" overhead-removal stage.
func Cleanup(f *ir.Func) {
	cleanup(f, new(liveness))
}

// cleanup is Cleanup with its rounds' liveness sets taken from lv.
func cleanup(f *ir.Func, lv *liveness) {
	for i := 0; i < 8; i++ {
		c := ConstProp(f)
		c += GlobalConstProp(f)
		folded, removed := foldThenSweep(f, lv)
		if c+folded+removed == 0 {
			return
		}
	}
}

// foldThenSweep runs FoldMoves and then DeadCode on one liveness
// solution in lv. Folding "x = op ...; y = x" into "y = op ..." needs x
// dead at the block's exit and unread in it afterwards, and it drops
// only that definition of x and its read by the move, so no block's
// live-in or live-out changes and DeadCode sweeps with the same sets.
func foldThenSweep(f *ir.Func, lv *liveness) (folded, removed int) {
	_, liveOut := lv.solve(f)
	folded = foldMoves(f, liveOut)
	return folded, deadCode(f, liveOut, lv.live)
}
