package alias

import (
	"fmt"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// analyzeRef is the map-rebuilding resolver Analyze replaced, kept as
// the differential reference: every step of an address chase rebuilds
// the in-block definition map of the prefix before the defining
// instruction, and strideOf rescans that prefix.
func analyzeRef(f *ir.Func, syms []dataSym, stepOf map[ir.Loc]int32) map[*ir.Instr]Ref {
	refs := map[*ir.Instr]Ref{}
	for _, b := range f.Blocks {
		lastDef := map[ir.Loc]int{}
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if instr.Op == ir.Load || instr.Op == ir.Store {
				base := instr.A
				if instr.Op == ir.Store {
					base = instr.B
				}
				refs[instr] = resolveRef(b, base, int32(instr.Off), lastDef, syms, stepOf, 8)
			}
			if instr.HasDst() {
				lastDef[instr.Dst] = i
			}
		}
	}
	return refs
}

func resolveRef(b *ir.Block, a ir.Arg, addend int32, lastDef map[ir.Loc]int, syms []dataSym, stepOf map[ir.Loc]int32, depth int) Ref {
	if depth == 0 {
		return Ref{}
	}
	if a.IsConst {
		return lookup(uint32(a.Val)+uint32(addend), syms)
	}
	if a.Loc == ir.RegSP || a.Loc == ir.RegFP {
		return Ref{Sym: "<stack>", Known: true}
	}
	di, ok := lastDef[a.Loc]
	if !ok {
		return Ref{}
	}
	in := &b.Instrs[di]
	switch in.Op {
	case ir.Move:
		if in.A.IsConst {
			return lookup(uint32(in.A.Val)+uint32(addend), syms)
		}
		return resolveBeforeRef(b, in.A, addend, di, syms, stepOf, depth-1)
	case ir.Add:
		switch {
		case in.A.IsConst && !in.B.IsConst:
			r := resolveBeforeRef(b, in.B, addend+in.A.Val, di, syms, stepOf, depth-1)
			if !r.Known {
				r = lookup(uint32(in.A.Val), syms)
				r.Stride = strideOfRef(b, in.B, di, stepOf, depth-1)
			}
			return r
		case !in.A.IsConst && in.B.IsConst:
			return resolveBeforeRef(b, in.A, addend+in.B.Val, di, syms, stepOf, depth-1)
		case !in.A.IsConst && !in.B.IsConst:
			if r := resolveBeforeRef(b, in.A, addend, di, syms, stepOf, depth-1); r.Known {
				r.Stride = strideOfRef(b, in.B, di, stepOf, depth-1)
				return r
			}
			if r := resolveBeforeRef(b, in.B, addend, di, syms, stepOf, depth-1); r.Known {
				r.Stride = strideOfRef(b, in.A, di, stepOf, depth-1)
				return r
			}
		}
	}
	return Ref{}
}

func resolveBeforeRef(b *ir.Block, a ir.Arg, addend int32, bound int, syms []dataSym, stepOf map[ir.Loc]int32, depth int) Ref {
	lastDef := map[ir.Loc]int{}
	for i := 0; i < bound; i++ {
		if b.Instrs[i].HasDst() {
			lastDef[b.Instrs[i].Dst] = i
		}
	}
	return resolveRef(b, a, addend, lastDef, syms, stepOf, depth)
}

func strideOfRef(b *ir.Block, a ir.Arg, bound int, stepOf map[ir.Loc]int32, depth int) int32 {
	if a.IsConst || depth == 0 {
		return 0
	}
	if s, ok := stepOf[a.Loc]; ok {
		return s
	}
	var def *ir.Instr
	for i := 0; i < bound; i++ {
		in := &b.Instrs[i]
		if in.HasDst() && in.Dst == a.Loc {
			def = in
		}
	}
	if def == nil {
		return 0
	}
	switch def.Op {
	case ir.Shl:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s << uint(def.B.Val&31)
			}
		}
	case ir.Mul:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s * def.B.Val
			}
		}
	case ir.Add:
		if !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s
			}
		}
	}
	return 0
}

// oracleCase is one program of the differential corpus.
type oracleCase struct {
	name, src string
	level     int
}

// oracleSources is the differential corpus: the 20 suite kernels at
// -O0..-O3 plus fixed-seed generated programs of every shape.
func oracleSources() []oracleCase {
	var out []oracleCase
	for _, bm := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			out = append(out, oracleCase{fmt.Sprintf("%s/O%d", bm.Name, lvl), bm.Source, lvl})
		}
	}
	for _, sh := range progen.Shapes() {
		for seed := int64(0); seed < 8; seed++ {
			p := progen.Generate(seed, sh.Cfg)
			out = append(out, oracleCase{fmt.Sprintf("%s/%d", sh.Name, seed), p.Source, int(seed) % 4})
		}
	}
	return out
}

// TestIndexedResolverMatchesReference requires the use-def-indexed
// resolver to produce the reference resolver's Ref for every load and
// store of every recovered function, before and after the dopt pipeline.
func TestIndexedResolverMatchesReference(t *testing.T) {
	refs := 0
	for _, c := range oracleSources() {
		img, err := mcc.Compile(c.src, mcc.Options{OptLevel: c.level})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		res, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		syms := dataSymbols(img)
		for _, f := range res.Funcs {
			for _, stage := range []string{"lifted", "optimized"} {
				if stage == "optimized" {
					dopt.Optimize(f)
				}
				loops := ir.FindLoops(f)
				stepOf := map[ir.Loc]int32{}
				for _, l := range loops {
					for _, iv := range l.IndVars {
						stepOf[iv.Loc] = iv.Step
					}
				}
				want := analyzeRef(f, syms, stepOf)
				got := Analyze(f, img, loops)
				if len(got.refs) != len(want) {
					t.Errorf("%s %s %s: %d refs, reference has %d", c.name, f.Name, stage, len(got.refs), len(want))
				}
				for in, w := range want {
					refs++
					if g := got.RefOf(in); g != w {
						t.Errorf("%s %s %s: %v at 0x%x: got %+v, reference %+v", c.name, f.Name, stage, in, in.Addr, g, w)
					}
				}
			}
		}
	}
	if refs < 1000 {
		t.Fatalf("oracle compared only %d references", refs)
	}
	t.Logf("%d references identical", refs)
}
