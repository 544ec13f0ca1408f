package mcc

import (
	"fmt"
	"strings"
)

// Temp is a virtual register in the three-address code.
type Temp int32

// Operand is a TAC operand: a temp or an immediate constant.
type Operand struct {
	IsConst bool
	Temp    Temp
	Val     int32
}

func tmp(t Temp) Operand   { return Operand{Temp: t} }
func cnst(v int32) Operand { return Operand{IsConst: true, Val: v} }

func (o Operand) String() string {
	if o.IsConst {
		return fmt.Sprintf("%d", o.Val)
	}
	return fmt.Sprintf("t%d", o.Temp)
}

// insKind enumerates TAC instruction kinds.
type insKind int

const (
	iNop   insKind = iota
	iMov           // Dst = A
	iBin           // Dst = A Op B
	iLoad          // Dst = mem[A + Off] (Width, SignExtend)
	iStore         // mem[B + Off] = A (Width)
	iAddrG         // Dst = address of global Sym
	iAddrL         // Dst = address of frame slot Slot
	iLabel         // Sym:
	iBr            // goto Sym
	iCBr           // if (A Op B) goto Sym
	iJT            // indirect jump to address in A (jump tables)
	iCall          // Dst = Sym(Args...)  (Dst optional: HasDst)
	iRet           // return A (optional: HasA)
)

// Binary operator strings used in iBin and iCBr. Signed and unsigned
// variants are distinct where MIPS distinguishes them.
//
//	+ - * / /u % %u & | ^ << >>s >>u < <u
//
// and for iCBr additionally: == != <= <=u > >u >= >=u.

// ins is one TAC instruction.
type ins struct {
	Kind insKind
	Op   string
	Dst  Temp
	A, B Operand
	Off  int32
	// Width/SignExtend qualify loads and stores.
	Width      int
	SignExtend bool
	Sym        string
	Slot       int
	Args       []Operand
	HasDst     bool
	HasA       bool
}

func (in ins) String() string {
	switch in.Kind {
	case iNop:
		return "nop"
	case iMov:
		return fmt.Sprintf("t%d = %s", in.Dst, in.A)
	case iBin:
		return fmt.Sprintf("t%d = %s %s %s", in.Dst, in.A, in.Op, in.B)
	case iLoad:
		sx := "z"
		if in.SignExtend {
			sx = "s"
		}
		return fmt.Sprintf("t%d = load%d%s [%s%+d]", in.Dst, in.Width, sx, in.A, in.Off)
	case iStore:
		return fmt.Sprintf("store%d [%s%+d] = %s", in.Width, in.B, in.Off, in.A)
	case iAddrG:
		return fmt.Sprintf("t%d = &%s", in.Dst, in.Sym)
	case iAddrL:
		return fmt.Sprintf("t%d = &slot%d", in.Dst, in.Slot)
	case iLabel:
		return in.Sym + ":"
	case iBr:
		return "goto " + in.Sym
	case iCBr:
		return fmt.Sprintf("if %s %s %s goto %s", in.A, in.Op, in.B, in.Sym)
	case iJT:
		return fmt.Sprintf("goto *%s", in.A)
	case iCall:
		var parts []string
		for _, a := range in.Args {
			parts = append(parts, a.String())
		}
		call := fmt.Sprintf("%s(%s)", in.Sym, strings.Join(parts, ", "))
		if in.HasDst {
			return fmt.Sprintf("t%d = %s", in.Dst, call)
		}
		return call
	case iRet:
		if in.HasA {
			return "ret " + in.A.String()
		}
		return "ret"
	}
	return "?"
}

// slotInfo describes one stack frame slot.
type slotInfo struct {
	Size  int
	Align int
	Name  string // for diagnostics
}

// jumpTable records a switch jump table to be emitted into the data
// section; Labels are TAC label names patched to addresses at link time.
type jumpTable struct {
	Sym    string // data symbol that will hold the table
	Labels []string
}

// tacFunc is one function in TAC form.
type tacFunc struct {
	Name   string
	NTemp  int
	Params []Temp // temps holding incoming $a0..$a3
	Ins    []ins
	Slots  []slotInfo
	Tables []jumpTable
	IsVoid bool
}

func (f *tacFunc) newTemp() Temp {
	t := Temp(f.NTemp)
	f.NTemp++
	return t
}

func (f *tacFunc) emit(in ins) { f.Ins = append(f.Ins, in) }

func (f *tacFunc) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (%d temps, %d slots)\n", f.Name, f.NTemp, len(f.Slots))
	for _, in := range f.Ins {
		if in.Kind == iLabel {
			fmt.Fprintf(&b, "%s\n", in)
		} else {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	return b.String()
}

// uses returns the temps read by the instruction.
func (in *ins) uses() []Temp {
	return in.appendUses(nil)
}

// appendUses appends the temps the instruction reads to dst and returns
// the extended slice; a caller-held buffer of capacity 4 (the argument
// register count bounds iCall) keeps the analysis loops allocation-free.
func (in *ins) appendUses(dst []Temp) []Temp {
	add := func(o Operand) {
		if !o.IsConst {
			dst = append(dst, o.Temp)
		}
	}
	switch in.Kind {
	case iMov, iJT:
		add(in.A)
	case iBin, iCBr:
		add(in.A)
		add(in.B)
	case iLoad:
		add(in.A)
	case iStore:
		add(in.A)
		add(in.B)
	case iCall:
		for _, a := range in.Args {
			add(a)
		}
	case iRet:
		if in.HasA {
			add(in.A)
		}
	}
	return dst
}

// def returns the temp written by the instruction, if any.
func (in *ins) def() (Temp, bool) {
	switch in.Kind {
	case iMov, iBin, iLoad, iAddrG, iAddrL:
		return in.Dst, true
	case iCall:
		if in.HasDst {
			return in.Dst, true
		}
	}
	return 0, false
}
