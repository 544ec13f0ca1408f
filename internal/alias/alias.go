// Package alias implements the memory-reference analysis the reproduced
// paper uses in two places: partitioning step 2 ("use alias information to
// find regions of code that access the same memory locations as the loops
// in the hardware partition", so arrays can move into FPGA block RAM) and
// memory disambiguation inside behavioral synthesis (accesses to distinct
// arrays need not be serialized).
//
// The analysis resolves each load/store to a base data object by chasing
// the address computation back to a constant section address, using the
// binary's data symbols for object extents. Stack-relative accesses
// resolve to a per-function pseudo object; anything else is unknown and
// conflicts with everything.
package alias

import (
	"sort"

	"binpart/internal/binimg"
	"binpart/internal/ir"
)

// Ref describes the resolved target of one memory access.
type Ref struct {
	// Sym is the data object's symbol name; "<stack>" for frame accesses,
	// "" when unresolved.
	Sym string
	// Base is the object's start address (0 for stack/unknown).
	Base uint32
	// Size is the object's byte size (0 if unknown).
	Size uint32
	// Stride is the access stride in bytes per loop iteration when the
	// address is driven by an induction variable; 0 if unknown/fixed.
	Stride int32
	// Known reports whether the object was resolved at all.
	Known bool
}

// Conflicts reports whether two references may touch the same memory.
func (r Ref) Conflicts(o Ref) bool {
	if !r.Known || !o.Known {
		return true
	}
	return r.Sym == o.Sym
}

// Info holds the per-function analysis results.
type Info struct {
	refs map[*ir.Instr]Ref
}

// RefOf returns the resolved reference of a load/store instruction.
func (in *Info) RefOf(i *ir.Instr) Ref {
	if r, ok := in.refs[i]; ok {
		return r
	}
	return Ref{}
}

// Footprint returns the sorted set of data objects the given blocks
// access, with unknown accesses reported via the second result.
func (in *Info) Footprint(blocks map[int]*ir.Block) (syms []string, hasUnknown bool) {
	seen := map[string]bool{}
	for _, b := range blocks {
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if instr.Op != ir.Load && instr.Op != ir.Store {
				continue
			}
			r := in.RefOf(instr)
			if !r.Known {
				hasUnknown = true
				continue
			}
			if r.Sym != "<stack>" && !seen[r.Sym] {
				seen[r.Sym] = true
				syms = append(syms, r.Sym)
			}
		}
	}
	sort.Strings(syms)
	return syms, hasUnknown
}

// FuncFootprint returns the data objects accessed anywhere in f.
func (in *Info) FuncFootprint(f *ir.Func) (syms []string, hasUnknown bool) {
	m := map[int]*ir.Block{}
	for _, b := range f.Blocks {
		m[b.Index] = b
	}
	return in.Footprint(m)
}

// Analyze resolves every memory access in f against the image's data
// symbols. loops is f's loop nest (ir.FindLoops(f)); its induction
// variables drive stride inference. Run it after the dopt pipeline:
// constant propagation must have exposed the base addresses first.
func Analyze(f *ir.Func, img *binimg.Image, loops []*ir.Loop) *Info {
	// Induction steps per loop for stride inference.
	stepOf := map[ir.Loc]int32{}
	for _, l := range loops {
		for _, iv := range l.IndVars {
			stepOf[iv.Loc] = iv.Step
		}
	}
	nRefs, maxLen := 0, 0
	for _, b := range f.Blocks {
		maxLen = max(maxLen, len(b.Instrs))
		for i := range b.Instrs {
			if op := b.Instrs[i].Op; op == ir.Load || op == ir.Store {
				nRefs++
			}
		}
	}
	info := &Info{refs: make(map[*ir.Instr]Ref, nRefs)}
	if nRefs == 0 {
		return info
	}
	c := chaser{
		syms:   dataSymbols(img),
		stepOf: stepOf,
		defs:   make([]int32, 2*maxLen),
		last:   make([]lastDef, f.LocSpace()),
	}
	for _, b := range f.Blocks {
		c.index(b)
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			switch instr.Op {
			case ir.Load:
				info.refs[instr] = c.resolve(instr.A, c.defs[2*i], int32(instr.Off), 8)
			case ir.Store:
				info.refs[instr] = c.resolve(instr.B, c.defs[2*i+1], int32(instr.Off), 8)
			}
		}
	}
	return info
}

// chaser resolves address operands within one block. index records, for
// every instruction, the in-block reaching definition of its A and B
// operands, so each step of an address chase is one array read instead of
// a rescan of the block prefix.
type chaser struct {
	syms   []dataSym
	stepOf map[ir.Loc]int32
	block  *ir.Block
	// defs[2*i] and defs[2*i+1] are the indices of the instructions
	// defining operands A and B of instruction i, or -1 when the operand
	// is a constant or is defined outside the block.
	defs []int32
	// last is the forward pass's location -> latest definition map, valid
	// for the current block only while its stamp matches epoch.
	last  []lastDef
	epoch uint32
}

type lastDef struct {
	idx   int32
	stamp uint32
}

// index fills defs for block b in one forward pass.
func (c *chaser) index(b *ir.Block) {
	c.block = b
	c.epoch++
	def := func(a ir.Arg) int32 {
		if a.IsConst {
			return -1
		}
		if d := c.last[a.Loc]; d.stamp == c.epoch {
			return d.idx
		}
		return -1
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		c.defs[2*i], c.defs[2*i+1] = def(in.A), def(in.B)
		if in.HasDst() {
			c.last[in.Dst] = lastDef{idx: int32(i), stamp: c.epoch}
		}
	}
}

// resolve chases an address operand, whose in-block reaching definition
// is di, to (object, stride). addend accumulates constant displacement.
func (c *chaser) resolve(a ir.Arg, di int32, addend int32, depth int) Ref {
	if depth == 0 {
		return Ref{}
	}
	if a.IsConst {
		return lookup(uint32(a.Val)+uint32(addend), c.syms)
	}
	if a.Loc == ir.RegSP || a.Loc == ir.RegFP {
		return Ref{Sym: "<stack>", Known: true}
	}
	if di < 0 {
		// Defined outside the block: if it is an induction variable, the
		// access walks memory but the base is unknown from here.
		return Ref{}
	}
	in := &c.block.Instrs[di]
	defA, defB := c.defs[2*di], c.defs[2*di+1]
	switch in.Op {
	case ir.Move:
		if in.A.IsConst {
			return lookup(uint32(in.A.Val)+uint32(addend), c.syms)
		}
		return c.resolve(in.A, defA, addend, depth-1)
	case ir.Add:
		switch {
		case in.A.IsConst && !in.B.IsConst:
			r := c.resolve(in.B, defB, addend+in.A.Val, depth-1)
			if !r.Known {
				// Classic pattern: constant base + variable offset.
				r = lookup(uint32(in.A.Val), c.syms)
				r.Stride = c.strideOf(in.B, defB, depth-1)
			}
			return r
		case !in.A.IsConst && in.B.IsConst:
			return c.resolve(in.A, defA, addend+in.B.Val, depth-1)
		case !in.A.IsConst && !in.B.IsConst:
			// base + offset where either side may be the constant-rooted
			// base; try both.
			if r := c.resolve(in.A, defA, addend, depth-1); r.Known {
				r.Stride = c.strideOf(in.B, defB, depth-1)
				return r
			}
			if r := c.resolve(in.B, defB, addend, depth-1); r.Known {
				r.Stride = c.strideOf(in.A, defA, depth-1)
				return r
			}
		}
	}
	return Ref{}
}

// strideOf infers the per-iteration byte stride of an offset expression,
// whose in-block reaching definition is di: an induction variable
// possibly scaled by a constant shift or multiply.
func (c *chaser) strideOf(a ir.Arg, di int32, depth int) int32 {
	if a.IsConst || depth == 0 {
		return 0
	}
	if s, ok := c.stepOf[a.Loc]; ok {
		return s
	}
	if di < 0 {
		return 0
	}
	def := &c.block.Instrs[di]
	switch def.Op {
	case ir.Shl:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := c.stepOf[def.A.Loc]; ok {
				return s << uint(def.B.Val&31)
			}
		}
	case ir.Mul:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := c.stepOf[def.A.Loc]; ok {
				return s * def.B.Val
			}
		}
	case ir.Add:
		if !def.A.IsConst {
			if s, ok := c.stepOf[def.A.Loc]; ok {
				return s
			}
		}
	}
	return 0
}

type dataSym struct {
	name string
	addr uint32
	size uint32
}

func dataSymbols(img *binimg.Image) []dataSym {
	var out []dataSym
	for _, s := range img.Symbols {
		if !img.InText(s.Addr) && s.Size > 0 {
			out = append(out, dataSym{s.Name, s.Addr, s.Size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

func lookup(addr uint32, syms []dataSym) Ref {
	i := sort.Search(len(syms), func(i int) bool { return syms[i].addr > addr })
	if i == 0 {
		return Ref{}
	}
	s := syms[i-1]
	if addr >= s.addr+s.size {
		return Ref{}
	}
	return Ref{Sym: s.name, Base: s.addr, Size: s.size, Known: true}
}
