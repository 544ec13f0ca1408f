package mcc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomTAC builds a function of random straight-line TAC over a small
// temp pool, split into blocks by labels and conditional branches. Unlike
// lowered MicroC, whose copy propagation leaves few temps redefined in
// place, it redefines operand and result temps directly, so every user
// link of the indexed passes — including temp 0, which address keys name
// through their zero operands — decides some outcome.
func randomTAC(r *rand.Rand) *tacFunc {
	const temps = 6
	f := &tacFunc{Name: "rand", NTemp: temps}
	opnd := func() Operand {
		if r.Intn(4) == 0 {
			return cnst(int32(r.Intn(5) - 1))
		}
		return tmp(Temp(r.Intn(temps)))
	}
	dst := func() Temp { return Temp(r.Intn(temps)) }
	ops := []string{"+", "-", "*", "&", "|", "<<"}
	labels := 0
	for n := 10 + r.Intn(120); n > 0; n-- {
		switch k := r.Intn(16); {
		case k == 0:
			f.emit(ins{Kind: iLabel, Sym: fmt.Sprintf("L%d", labels)})
			labels++
		case k == 1:
			f.emit(ins{Kind: iCBr, Op: "<", A: opnd(), B: opnd(), Sym: "L0"})
		case k < 5:
			f.emit(ins{Kind: iMov, Dst: dst(), A: opnd()})
		case k < 11:
			f.emit(ins{Kind: iBin, Op: ops[r.Intn(len(ops))], Dst: dst(), A: opnd(), B: opnd()})
		case k == 11:
			f.emit(ins{Kind: iAddrG, Dst: dst(), Sym: fmt.Sprintf("g%d", r.Intn(2))})
		case k == 12:
			f.emit(ins{Kind: iAddrL, Dst: dst(), Slot: r.Intn(2)})
		case k == 13:
			f.emit(ins{Kind: iLoad, Dst: dst(), A: opnd(), Width: 4})
		default:
			f.emit(ins{Kind: iStore, A: opnd(), B: opnd(), Width: 4})
		}
	}
	f.emit(ins{Kind: iRet, HasA: true, A: opnd()})
	return f
}

func cloneTAC(f *tacFunc) *tacFunc {
	c := *f
	c.Ins = append([]ins(nil), f.Ins...)
	return &c
}

// TestIndexedOptRandomTAC checks propagate and localCSE against the
// reference implementations on random TAC: each pass alone, and the two
// in sequence over several rounds on one reused environment, as
// optimize runs them.
func TestIndexedOptRandomTAC(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		f := randomTAC(r)
		for _, seq := range []string{"p", "c", "pcpcpc"} {
			cur, ref := cloneTAC(f), cloneTAC(f)
			var env blockEnv
			for _, p := range seq {
				if p == 'p' {
					env.propagate(cur)
					propagateRef(ref)
				} else {
					env.localCSE(cur)
					localCSERef(ref)
				}
			}
			if !reflect.DeepEqual(cur, ref) {
				t.Fatalf("function %d, passes %q: indexed and reference differ\ninput:\n%s\nindexed:\n%s\nreference:\n%s", n, seq, f, cur, ref)
			}
		}
	}
}
