package dopt

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// constPropRef is ConstProp with the full-scan invalidation constEnv
// replaced, kept as the differential reference: redefining a location
// scans the whole location space for copy bindings that read it.
func constPropRef(f *ir.Func) int {
	val := make([]ir.Arg, f.LocSpace())
	stamp := make([]uint32, len(val))
	var epoch uint32
	sub := func(a ir.Arg) ir.Arg {
		if a.IsConst {
			return a
		}
		if a.Loc == ir.RegZero {
			return ir.C(0)
		}
		if stamp[a.Loc] == epoch {
			return val[a.Loc]
		}
		return a
	}
	invalidate := func(l ir.Loc) {
		stamp[l] = 0
		for k := range val {
			if stamp[k] == epoch && !val[k].IsConst && val[k].Loc == l {
				stamp[k] = 0
			}
		}
	}
	changed := 0
	for _, b := range f.Blocks {
		epoch++
		for i := range b.Instrs {
			in := &b.Instrs[i]
			beforeOp, beforeA, beforeB := in.Op, in.A, in.B
			switch {
			case in.Op.IsBinary():
				in.A, in.B = sub(in.A), sub(in.B)
				simplify(in)
			case in.Op == ir.Move || in.Op == ir.IJump || in.Op == ir.Load:
				in.A = sub(in.A)
			case in.Op == ir.Store:
				in.A, in.B = sub(in.A), sub(in.B)
			case in.Op == ir.Branch:
				in.A, in.B = sub(in.A), sub(in.B)
			}
			if in.Op != beforeOp || in.A != beforeA || in.B != beforeB {
				changed++
			}
			if in.HasDst() {
				invalidate(in.Dst)
				if in.Op == ir.Move && (in.A.IsConst || in.A.Loc != in.Dst) {
					val[in.Dst], stamp[in.Dst] = in.A, epoch
				}
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					invalidate(l)
				}
			}
		}
	}
	return changed
}

// sameIR reports where two functions' IR first differs, or "".
func sameIR(a, b *ir.Func) string {
	if a.NextLoc != b.NextLoc || len(a.Blocks) != len(b.Blocks) {
		return "function shape"
	}
	for i := range a.Blocks {
		if !reflect.DeepEqual(a.Blocks[i].Instrs, b.Blocks[i].Instrs) {
			return fmt.Sprintf("block %d", i)
		}
	}
	if a.String() != b.String() {
		return "CFG"
	}
	return ""
}

// TestIndexedConstPropMatchesReference runs OptimizeWith's pass order on
// two copies of every recovered function in lockstep — one calling
// ConstProp, one calling constPropRef, every other pass shared — and
// requires identical IR and counts after every ConstProp call. The suite
// at -O0..-O3 and fixed-seed generated programs of every shape feed it;
// stack-slot promotion in the middle of the pipeline grows the location
// space with virtual locations.
func TestIndexedConstPropMatchesReference(t *testing.T) {
	calls := 0
	check := func(name, src string, level int) {
		img, err := mcc.Compile(src, mcc.Options{OptLevel: level})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decode := func() *decompile.Result {
			res, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		cur, ref, prod := decode(), decode(), decode()
		for fi, c := range cur.Funcs {
			r := ref.Funcs[fi]
			failed := false
			constProp := func() int {
				nc, nr := ConstProp(c), constPropRef(r)
				calls++
				if where := sameIR(c, r); (where != "" || nc != nr) && !failed {
					failed = true
					t.Errorf("%s %s: ConstProp call %d differs (%s; counts %d vs %d):\nindexed:\n%s\nreference:\n%s",
						name, c.Name, calls, where, nc, nr, c, r)
				}
				return nc
			}
			both := func(pass func(*ir.Func) int) int {
				n := pass(c)
				pass(r)
				return n
			}
			cleanup := func() {
				for i := 0; i < 8; i++ {
					n := constProp()
					n += both(GlobalConstProp)
					n += both(FoldMoves)
					n += both(DeadCode)
					if n == 0 {
						return
					}
				}
			}
			constProp()
			both(FoldMoves)
			both(DeadCode)
			cleanup()
			RemoveStackOps(c)
			RemoveStackOps(r)
			cleanup()
			Reroll(c)
			Reroll(r)
			PromoteStrength(c)
			PromoteStrength(r)
			cleanup()
			both(StrengthReduce)
			cleanup()
			ReduceWidths(c)
			ReduceWidths(r)

			p := prod.Funcs[fi]
			Optimize(p)
			if where := sameIR(c, p); where != "" {
				t.Errorf("%s %s: lockstep schedule drifted from Optimize (%s)", name, c.Name, where)
			}
		}
	}
	for _, bm := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			check(fmt.Sprintf("%s/O%d", bm.Name, lvl), bm.Source, lvl)
		}
	}
	for _, sh := range progen.Shapes() {
		for seed := int64(0); seed < 8; seed++ {
			check(fmt.Sprintf("%s/%d", sh.Name, seed), progen.Generate(seed, sh.Cfg).Source, int(seed)%4)
		}
	}
	if calls < 1000 {
		t.Fatalf("oracle compared only %d ConstProp calls", calls)
	}
	t.Logf("%d ConstProp calls identical", calls)
}

// randomIR builds a function of random blocks over a few machine and
// virtual locations, with calls mid-block, so that copies of
// caller-saved registers outlive the call that clobbers them — a case
// compiled code rarely produces in one block.
func randomIR(r *rand.Rand) *ir.Func {
	locs := []ir.Loc{ir.RegZero, ir.RegV0, ir.RegA0, ir.RegA0 + 1, 16, 17, ir.RegSP, ir.LocLO, ir.FirstVirtual, ir.FirstVirtual + 1}
	arg := func() ir.Arg {
		if r.Intn(4) == 0 {
			return ir.C(int32(r.Intn(5) - 1))
		}
		return ir.L(locs[r.Intn(len(locs))])
	}
	dst := func() ir.Loc { return locs[1+r.Intn(len(locs)-1)] }
	ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Shl}
	f := &ir.Func{Name: "rand", NextLoc: ir.FirstVirtual + 2}
	for nb := 1 + r.Intn(3); nb > 0; nb-- {
		b := &ir.Block{Index: len(f.Blocks)}
		for n := 5 + r.Intn(60); n > 0; n-- {
			var in ir.Instr
			switch k := r.Intn(12); {
			case k < 4:
				in = ir.Instr{Op: ir.Move, Dst: dst(), A: arg()}
			case k < 8:
				in = ir.Instr{Op: ops[r.Intn(len(ops))], Dst: dst(), A: arg(), B: arg()}
			case k == 8:
				in = ir.Instr{Op: ir.Load, Dst: dst(), A: arg(), Width: 4}
			case k == 9:
				in = ir.Instr{Op: ir.Store, A: arg(), B: arg(), Width: 4}
			default:
				in = ir.Instr{Op: ir.Call, Target: 0x400000}
			}
			b.Instrs = append(b.Instrs, in)
		}
		b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Branch, A: arg(), B: arg(), Cond: ir.CondLT})
		f.Blocks = append(f.Blocks, b)
	}
	return f
}

func cloneIR(f *ir.Func) *ir.Func {
	c := *f
	c.Blocks = nil
	for _, b := range f.Blocks {
		nb := *b
		nb.Instrs = append([]ir.Instr(nil), b.Instrs...)
		c.Blocks = append(c.Blocks, &nb)
	}
	return &c
}

// TestIndexedConstPropRandomIR checks ConstProp against constPropRef on
// random IR, including repeated runs as Cleanup makes them.
func TestIndexedConstPropRandomIR(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 2000; n++ {
		f := randomIR(r)
		cur, ref := cloneIR(f), cloneIR(f)
		for round := 0; round < 2; round++ {
			nc, nr := ConstProp(cur), constPropRef(ref)
			if where := sameIR(cur, ref); where != "" || nc != nr {
				t.Fatalf("function %d, round %d: indexed and reference differ (%s; counts %d vs %d)\ninput:\n%s\nindexed:\n%s\nreference:\n%s",
					n, round, where, nc, nr, f, cur, ref)
			}
		}
	}
}

// abiLivenessRef is abiLiveness before the gen/kill summaries and the
// workspace, kept as the differential reference: every fixpoint
// iteration re-runs each block's per-instruction transfer in freshly
// allocated sets.
func abiLivenessRef(f *ir.Func) (liveIn, liveOut []locSet) {
	n := len(f.Blocks)
	words := (f.LocSpace() + 63) / 64
	sets := make([]locSet, 2*n+1)
	for i := range sets {
		sets[i] = make(locSet, words)
	}
	liveIn, liveOut = sets[:n], sets[n:2*n]
	live := sets[2*n]
	var ub [2]ir.Loc
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			clear(live)
			for _, s := range b.Succs {
				live.or(liveIn[s.Index])
			}
			if liveOut[i].or(live) {
				changed = true
			}
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				in := &b.Instrs[j]
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
			if liveIn[i].or(live) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// deadCodeRef is DeadCode with its own copy of the liveness fixpoint, as
// it was before it took its block live-out from the workspace.
func deadCodeRef(f *ir.Func) int {
	_, liveOut := abiLivenessRef(f)
	live := make(locSet, (f.LocSpace()+63)/64)
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

// sameSets reports where two families of location sets first differ, or
// "". The sets may differ in length (a workspace sized for a larger
// function keeps its width); missing words read as zero.
func sameSets(what string, a, b []locSet) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d sets vs %d", what, len(a), len(b))
	}
	for i := range a {
		for w := 0; w < len(a[i]) || w < len(b[i]); w++ {
			var x, y uint64
			if w < len(a[i]) {
				x = a[i][w]
			}
			if w < len(b[i]) {
				y = b[i][w]
			}
			if x != y {
				return fmt.Sprintf("%s of block %d, word %d: %#x vs %#x", what, i, w, x, y)
			}
		}
	}
	return ""
}

// sameLiveness solves f in lv and with the reference and reports the
// first difference, or "".
func sameLiveness(lv *liveness, f *ir.Func) string {
	in, out := lv.solve(f)
	rin, rout := abiLivenessRef(f)
	if d := sameSets("live-in", in, rin); d != "" {
		return d
	}
	return sameSets("live-out", out, rout)
}

// sweepMatches runs foldThenSweep on cur in lv, and FoldMoves then
// deadCodeRef on ref, and returns cur's fold and removal count with the
// first difference, or "": in the liveness solution the pair read,
// against the reference fixpoint of the code it started from; in the
// IR; or in the counts. lv is not solved beforehand, so a solution left
// over from an earlier round would show.
func sweepMatches(lv *liveness, cur, ref *ir.Func) (int, string) {
	rin, rout := abiLivenessRef(cloneIR(cur))
	fc, dc := foldThenSweep(cur, lv)
	if d := sameSets("live-in", lv.liveIn, rin); d != "" {
		return 0, d
	}
	if d := sameSets("live-out", lv.liveOut, rout); d != "" {
		return 0, d
	}
	fr, dr := FoldMoves(ref), deadCodeRef(ref)
	if where := sameIR(cur, ref); where != "" || fc != fr || dc != dr {
		return 0, fmt.Sprintf("FoldMoves+DeadCode differ (%s; counts %d+%d vs %d+%d)", where, fc, dc, fr, dr)
	}
	return fc + dc, ""
}

// TestLivenessMatchesReference runs OptimizeWith's pass order on two
// copies of every recovered function in lockstep: one with a single
// liveness workspace for the whole pipeline, as OptimizeWith keeps it, and
// one through FoldMoves and deadCodeRef. At every FoldMoves/DeadCode
// pair the workspace's live-in and live-out must equal the reference
// fixpoint's, and both copies' IR and counts must agree (sweepMatches).
// Stack-slot promotion grows the location space mid-pipeline, so the
// workspace's resize path runs on real code. The suite at -O0..-O3 and
// fixed-seed generated programs of every shape feed it.
func TestLivenessMatchesReference(t *testing.T) {
	solves := 0
	check := func(name, src string, level int) {
		img, err := mcc.Compile(src, mcc.Options{OptLevel: level})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		decode := func() *decompile.Result {
			res, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return res
		}
		cur, ref := decode(), decode()
		for fi, c := range cur.Funcs {
			r := ref.Funcs[fi]
			lv := new(liveness)
			failed := false
			fail := func(format string, args ...any) {
				if !failed {
					failed = true
					t.Errorf("%s %s: "+format, append([]any{name, c.Name}, args...)...)
				}
			}
			sweep := func() int {
				solves++
				n, d := sweepMatches(lv, c, r)
				if d != "" {
					fail("%s", d)
				}
				return n
			}
			both := func(pass func(*ir.Func) int) int {
				n := pass(c)
				pass(r)
				return n
			}
			cleanup := func() {
				for i := 0; i < 8; i++ {
					n := both(ConstProp)
					n += both(GlobalConstProp)
					n += sweep()
					if n == 0 {
						return
					}
				}
			}
			both(ConstProp)
			sweep()
			cleanup()
			RemoveStackOps(c)
			RemoveStackOps(r)
			cleanup()
			Reroll(c)
			Reroll(r)
			PromoteStrength(c)
			PromoteStrength(r)
			cleanup()
			both(StrengthReduce)
			cleanup()
		}
	}
	for _, bm := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			check(fmt.Sprintf("%s/O%d", bm.Name, lvl), bm.Source, lvl)
		}
	}
	for _, sh := range progen.Shapes() {
		for seed := int64(0); seed < 8; seed++ {
			check(fmt.Sprintf("%s/%d", sh.Name, seed), progen.Generate(seed, sh.Cfg).Source, int(seed)%4)
		}
	}
	if solves < 1000 {
		t.Fatalf("oracle compared only %d liveness solves", solves)
	}
	t.Logf("%d liveness solves identical", solves)
}

// addRandomEdges gives randomIR's blocks successors, back edges and self
// loops included, so liveness has to iterate to its fixpoint.
func addRandomEdges(r *rand.Rand, f *ir.Func) {
	for _, b := range f.Blocks {
		for k := r.Intn(3); k > 0; k-- {
			b.Succs = append(b.Succs, f.Blocks[r.Intn(len(f.Blocks))])
		}
	}
}

// TestLivenessRandomIR checks the workspace against the reference on
// random IR with calls mid-block and random control flow, reusing one
// workspace across functions of different sizes and across
// FoldMoves/DeadCode rounds that shrink the live sets.
func TestLivenessRandomIR(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	lv := new(liveness)
	for n := 0; n < 2000; n++ {
		f := randomIR(r)
		addRandomEdges(r, f)
		cur, ref := cloneIR(f), cloneIR(f)
		for round := 0; round < 3; round++ {
			if _, d := sweepMatches(lv, cur, ref); d != "" {
				t.Fatalf("function %d, round %d: %s\ninput:\n%s", n, round, d, f)
			}
			ConstProp(cur)
			ConstProp(ref)
		}
	}
}

// TestLivenessWorkspaceGrows reuses a workspace after the function's
// location space grows past the sets it was sized for, between rounds
// as stack-slot promotion does: the new locations must be tracked, not
// dropped or read from stale words, and a later solve of a smaller
// function must not see bits the larger one left behind.
func TestLivenessWorkspaceGrows(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for n := 0; n < 200; n++ {
		f := randomIR(r)
		addRandomEdges(r, f)
		lv := new(liveness)
		if d := sameLiveness(lv, f); d != "" {
			t.Fatalf("function %d: %s", n, d)
		}
		words := lv.words
		// A chain of fresh virtual locations, 130 past the old space:
		// each is defined from the previous one and the last flows into
		// a store, so all of them are live somewhere in the block.
		b := f.Blocks[r.Intn(len(f.Blocks))]
		term := b.Instrs[len(b.Instrs)-1]
		body := b.Instrs[: len(b.Instrs)-1 : len(b.Instrs)-1]
		prev := ir.L(ir.RegA0)
		for k := 0; k < 130; k++ {
			l := f.NewLoc()
			body = append(body, ir.Instr{Op: ir.Add, Dst: l, A: prev, B: ir.C(1)})
			prev = ir.L(l)
		}
		b.Instrs = append(body, ir.Instr{Op: ir.Store, A: ir.L(ir.RegSP), B: prev, Width: 4}, term)
		if d := sameLiveness(lv, f); d != "" {
			t.Fatalf("function %d after growth: %s", n, d)
		}
		if lv.words <= words {
			t.Fatalf("function %d: workspace stayed at %d words", n, lv.words)
		}
		g := randomIR(r)
		addRandomEdges(r, g)
		if d := sameLiveness(lv, g); d != "" {
			t.Fatalf("function %d, smaller function in the grown workspace: %s", n, d)
		}
	}
}
