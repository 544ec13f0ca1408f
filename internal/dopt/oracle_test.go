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
