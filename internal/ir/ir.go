// Package ir defines the instruction-set independent representation the
// decompiler lifts binaries into, plus the CFG/dominator/loop analyses that
// implement the paper's "CDFG creation" and "control structure recovery"
// stages. Downstream passes (internal/dopt) rewrite this IR; behavioral
// synthesis (internal/synth) consumes it.
//
// The IR is location-based rather than SSA: locations 0..31 are the lifted
// MIPS registers, 32/33 are HI/LO, and decompiler passes may allocate fresh
// virtual locations above those. Explicitness about machine registers is
// the point — the input is a binary, and the decompiler's job is to
// recover structure from exactly this level.
package ir

import (
	"fmt"
	"strings"
)

// Loc is a storage location: a lifted machine register or a virtual
// location introduced by a decompiler pass.
type Loc int32

// Machine locations.
const (
	LocHI Loc = 32
	LocLO Loc = 33
	// FirstVirtual is the first location id available to passes.
	FirstVirtual Loc = 34
)

// Well-known lifted register locations (MIPS numbering).
const (
	RegZero Loc = 0
	RegSP   Loc = 29
	RegFP   Loc = 30
	RegRA   Loc = 31
	RegV0   Loc = 2
	RegA0   Loc = 4
)

func (l Loc) String() string {
	switch {
	case l < 32:
		return fmt.Sprintf("r%d", int32(l))
	case l == LocHI:
		return "hi"
	case l == LocLO:
		return "lo"
	default:
		return fmt.Sprintf("v%d", int32(l))
	}
}

// Arg is an instruction operand: a location or a constant.
type Arg struct {
	IsConst bool
	Loc     Loc
	Val     int32
}

// L makes a location argument.
func L(l Loc) Arg { return Arg{Loc: l} }

// C makes a constant argument.
func C(v int32) Arg { return Arg{IsConst: true, Val: v} }

func (a Arg) String() string {
	if a.IsConst {
		return fmt.Sprintf("%d", a.Val)
	}
	return a.Loc.String()
}

// Op enumerates IR operations.
type Op int

const (
	Nop Op = iota

	// Dst = A op B.
	Add
	Sub
	Mul  // full 64-bit product semantics live in MulHi; Mul is low 32
	MulH // high 32 bits of signed product
	MulHU
	Div
	DivU
	Rem
	RemU
	And
	Or
	Xor
	Shl
	ShrL
	ShrA
	SetLT  // Dst = (A < B) signed
	SetLTU // Dst = (A <u B)

	// Dst = A.
	Move

	// Memory. Dst = mem[A+Off] / mem[B+Off] = A. Width 1, 2, or 4;
	// Signed selects sign extension on narrow loads.
	Load
	Store

	// Control. Branch compares A Cond B and jumps to Target on success.
	Branch
	Jump  // unconditional, Target
	IJump // indirect, target address in A — defeats CDFG recovery
	Call  // Target is callee address
	Ret
	Halt
)

var opNames = map[Op]string{
	Nop: "nop", Add: "add", Sub: "sub", Mul: "mul", MulH: "mulh",
	MulHU: "mulhu", Div: "div", DivU: "divu", Rem: "rem", RemU: "remu",
	And: "and", Or: "or", Xor: "xor", Shl: "shl", ShrL: "shrl", ShrA: "shra",
	SetLT: "setlt", SetLTU: "setltu", Move: "mov", Load: "load",
	Store: "store", Branch: "br", Jump: "jmp", IJump: "ijmp", Call: "call",
	Ret: "ret", Halt: "halt",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op%d", int(o))
}

// IsBinary reports whether the op computes Dst from A and B.
func (o Op) IsBinary() bool {
	switch o {
	case Add, Sub, Mul, MulH, MulHU, Div, DivU, Rem, RemU,
		And, Or, Xor, Shl, ShrL, ShrA, SetLT, SetLTU:
		return true
	}
	return false
}

// Commutative reports whether swapping A and B preserves the result.
func (o Op) Commutative() bool {
	switch o {
	case Add, Mul, MulH, MulHU, And, Or, Xor:
		return true
	}
	return false
}

// Cond is a branch condition.
type Cond int

const (
	CondNone Cond = iota
	CondEQ
	CondNE
	CondLT
	CondGE
	CondLE
	CondGT
	CondLTU
	CondGEU
)

var condNames = map[Cond]string{
	CondEQ: "==", CondNE: "!=", CondLT: "<", CondGE: ">=",
	CondLE: "<=", CondGT: ">", CondLTU: "<u", CondGEU: ">=u",
}

func (c Cond) String() string {
	if s, ok := condNames[c]; ok {
		return s
	}
	return "?"
}

// Negate returns the condition with inverted truth.
func (c Cond) Negate() Cond {
	switch c {
	case CondEQ:
		return CondNE
	case CondNE:
		return CondEQ
	case CondLT:
		return CondGE
	case CondGE:
		return CondLT
	case CondLE:
		return CondGT
	case CondGT:
		return CondLE
	case CondLTU:
		return CondGEU
	case CondGEU:
		return CondLTU
	}
	return CondNone
}

// Eval evaluates the condition over two 32-bit values.
func (c Cond) Eval(a, b int32) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondGE:
		return a >= b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	case CondLTU:
		return uint32(a) < uint32(b)
	case CondGEU:
		return uint32(a) >= uint32(b)
	}
	return false
}

// Instr is one IR instruction.
type Instr struct {
	Op     Op
	Dst    Loc
	A, B   Arg
	Off    int32 // load/store displacement
	Width  int   // load/store width in bytes
	Signed bool  // sign-extend narrow loads
	Cond   Cond  // Branch condition
	Target uint32
	Addr   uint32 // original program counter (provenance)
	// WidthBits, when nonzero, is the operator bit-width assigned by
	// operator size reduction; 0 means the full 32 bits.
	WidthBits int
	// Table holds the resolved target addresses of an IJump whose jump
	// table was recovered from the data section (the optional extension
	// to the paper's failing indirect-jump cases). A nil Table means the
	// indirect jump is unresolved and defeats CDFG recovery.
	Table []uint32
}

// HasDst reports whether the instruction writes Dst.
func (in *Instr) HasDst() bool {
	if in.Op.IsBinary() {
		return true
	}
	switch in.Op {
	case Move, Load:
		return true
	}
	return false
}

// Uses returns the locations the instruction reads.
func (in *Instr) Uses() []Loc {
	return in.AppendUses(nil)
}

// AppendUses appends the locations the instruction reads to dst and
// returns the extended slice. An instruction reads at most two
// locations, so a caller-held buffer of capacity two makes the hot
// analysis loops allocation-free.
func (in *Instr) AppendUses(dst []Loc) []Loc {
	add := func(a Arg) {
		if !a.IsConst {
			dst = append(dst, a.Loc)
		}
	}
	switch {
	case in.Op.IsBinary():
		add(in.A)
		add(in.B)
	case in.Op == Move || in.Op == IJump:
		add(in.A)
	case in.Op == Load:
		add(in.A)
	case in.Op == Store:
		add(in.A)
		add(in.B)
	case in.Op == Branch:
		add(in.A)
		add(in.B)
	}
	return dst
}

func (in *Instr) String() string {
	switch {
	case in.Op.IsBinary():
		return fmt.Sprintf("%s = %s %s, %s", in.Dst, in.Op, in.A, in.B)
	case in.Op == Move:
		return fmt.Sprintf("%s = %s", in.Dst, in.A)
	case in.Op == Load:
		sx := "u"
		if in.Signed {
			sx = "s"
		}
		return fmt.Sprintf("%s = load%d%s [%s%+d]", in.Dst, in.Width, sx, in.A, in.Off)
	case in.Op == Store:
		return fmt.Sprintf("store%d [%s%+d] = %s", in.Width, in.B, in.Off, in.A)
	case in.Op == Branch:
		return fmt.Sprintf("br %s %s %s -> 0x%x", in.A, in.Cond, in.B, in.Target)
	case in.Op == Jump:
		return fmt.Sprintf("jmp 0x%x", in.Target)
	case in.Op == IJump:
		return fmt.Sprintf("ijmp *%s", in.A)
	case in.Op == Call:
		return fmt.Sprintf("call 0x%x", in.Target)
	case in.Op == Ret:
		return "ret"
	case in.Op == Halt:
		return "halt"
	}
	return in.Op.String()
}

// Block is a basic block.
type Block struct {
	// Index is the block's position in Func.Blocks.
	Index int
	// Start is the address of the first lifted instruction.
	Start  uint32
	Instrs []Instr
	Succs  []*Block
	Preds  []*Block
}

// Terminator returns the last instruction, or nil for an empty block.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	return &b.Instrs[len(b.Instrs)-1]
}

// Func is a decompiled function: a CFG over lifted instructions.
type Func struct {
	Name   string
	Entry  uint32 // entry address
	Blocks []*Block
	// NextLoc is the next free virtual location id.
	NextLoc Loc
}

// NewLoc allocates a fresh virtual location.
func (f *Func) NewLoc() Loc {
	if f.NextLoc < FirstVirtual {
		f.NextLoc = FirstVirtual
	}
	l := f.NextLoc
	f.NextLoc++
	return l
}

// BlockAt returns the block starting at the given address.
func (f *Func) BlockAt(addr uint32) *Block {
	for _, b := range f.Blocks {
		if b.Start == addr {
			return b
		}
	}
	return nil
}

// Reindex renumbers Block.Index after structural edits.
func (f *Func) Reindex() {
	for i, b := range f.Blocks {
		b.Index = i
	}
}

// LocSpace returns the size of f's location space: one past the largest
// location any instruction references, covering physical registers,
// HI/LO, and every virtual location passes have allocated. Passes size
// dense per-location arrays with it.
func (f *Func) LocSpace() int {
	max := FirstVirtual
	if f.NextLoc > max {
		max = f.NextLoc
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && in.Dst >= max {
				max = in.Dst + 1
			}
			if !in.A.IsConst && in.A.Loc >= max {
				max = in.A.Loc + 1
			}
			if !in.B.IsConst && in.B.Loc >= max {
				max = in.B.Loc + 1
			}
		}
	}
	return int(max)
}

// NumInstrs counts instructions across all blocks.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

func (f *Func) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "func %s @0x%x\n", f.Name, f.Entry)
	for _, b := range f.Blocks {
		fmt.Fprintf(&sb, "b%d (0x%x):", b.Index, b.Start)
		for _, s := range b.Succs {
			fmt.Fprintf(&sb, " ->b%d", s.Index)
		}
		sb.WriteString("\n")
		for i := range b.Instrs {
			fmt.Fprintf(&sb, "\t%s\n", &b.Instrs[i])
		}
	}
	return sb.String()
}
