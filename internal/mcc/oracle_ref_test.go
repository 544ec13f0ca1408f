package mcc

import (
	"fmt"
	"reflect"
)

// The map-scanning propagate and localCSE that blockEnv replaced, kept as
// the differential reference: redefining a temp scans every live binding
// (or available expression) of the block for the ones that mention it.

func propagateRef(f *tacFunc) {
	for _, r := range blockRanges(f) {
		val := make(map[Temp]Operand) // temp -> known const or copy source
		invalidate := func(t Temp) {
			delete(val, t)
			for k, v := range val {
				if !v.IsConst && v.Temp == t {
					delete(val, k)
				}
			}
		}
		for i := r[0]; i < r[1]; i++ {
			in := &f.Ins[i]
			replaceUsesRef(in, val)
			if in.Kind == iBin {
				simplifyBin(in)
			}
			if d, ok := in.def(); ok {
				invalidate(d)
				switch in.Kind {
				case iMov:
					if in.A.IsConst || in.A.Temp != d {
						val[d] = in.A
					}
				case iBin:
					if in.A.IsConst && in.B.IsConst {
						if v, ok := foldTac(in.Op, in.A.Val, in.B.Val); ok {
							*in = ins{Kind: iMov, Dst: d, A: cnst(v)}
							val[d] = cnst(v)
						}
					}
				}
			}
		}
	}
}

func replaceUsesRef(in *ins, m map[Temp]Operand) {
	sub := func(o Operand) Operand {
		if o.IsConst {
			return o
		}
		if r, ok := m[o.Temp]; ok {
			return r
		}
		return o
	}
	switch in.Kind {
	case iMov, iJT:
		in.A = sub(in.A)
	case iBin, iCBr:
		in.A = sub(in.A)
		in.B = sub(in.B)
	case iLoad:
		in.A = sub(in.A)
	case iStore:
		in.A = sub(in.A)
		in.B = sub(in.B)
	case iCall:
		for i := range in.Args {
			in.Args[i] = sub(in.Args[i])
		}
	case iRet:
		if in.HasA {
			in.A = sub(in.A)
		}
	}
}

func localCSERef(f *tacFunc) {
	for _, r := range blockRanges(f) {
		avail := make(map[cseKey]Temp)
		invalidate := func(t Temp) {
			for k, v := range avail {
				if (!k.a.IsConst && k.a.Temp == t) || (!k.b.IsConst && k.b.Temp == t) || v == t {
					delete(avail, k)
				}
			}
		}
		for i := r[0]; i < r[1]; i++ {
			in := &f.Ins[i]
			var key cseKey
			cacheable := false
			switch in.Kind {
			case iBin:
				key = cseKey{op: in.Op, kind: iBin, a: in.A, b: in.B}
				cacheable = true
			case iAddrG:
				key = cseKey{kind: iAddrG, sym: in.Sym}
				cacheable = true
			case iAddrL:
				key = cseKey{kind: iAddrL, slot: in.Slot}
				cacheable = true
			}
			if cacheable {
				if t, ok := avail[key]; ok {
					*in = ins{Kind: iMov, Dst: in.Dst, A: tmp(t)}
					if d, ok := in.def(); ok {
						invalidate(d)
					}
					continue
				}
			}
			if d, ok := in.def(); ok {
				invalidate(d)
				if cacheable {
					avail[key] = d
				}
			}
		}
	}
}

// lowerAll parses, checks and lowers src the way Compile does, stopping
// before optimization.
func lowerAll(src string, level int) ([]*tacFunc, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Analyze(prog); err != nil {
		return nil, err
	}
	if level >= 3 {
		unrollProgram(prog)
	}
	var out []*tacFunc
	for _, fn := range prog.Funcs {
		tf, err := lowerFunc(fn, level == 0, level >= 1)
		if err != nil {
			return nil, err
		}
		out = append(out, tf)
	}
	return out, nil
}

// OptimizeOracle lowers src at the given level three times and runs
// optimize's pass schedule on two of the copies in lockstep: one with
// blockEnv's indexed propagate and localCSE, one with the reference
// implementations above, every other pass shared. It reports the first
// pass after which the two TACs differ, and checks that the lockstep
// schedule ends where optimize itself (run on the third copy) does. It
// returns the number of pass results compared.
func OptimizeOracle(src string, level int) (int, error) {
	cur, err := lowerAll(src, level)
	if err != nil {
		return 0, err
	}
	ref, _ := lowerAll(src, level)
	prod, _ := lowerAll(src, level)
	type pass struct {
		name     string
		cur, ref func(*tacFunc)
	}
	compared := 0
	for fi := range cur {
		var env blockEnv
		shared := func(name string, fn func(*tacFunc)) pass { return pass{name, fn, fn} }
		var sched []pass
		if level >= 1 {
			for round := 0; round < 4; round++ {
				sched = append(sched, pass{"propagate", env.propagate, propagateRef})
				if level >= 2 {
					sched = append(sched, pass{"localCSE", env.localCSE, localCSERef})
				}
				sched = append(sched, shared("simplifyBranches", simplifyBranches),
					shared("removeUnreachable", removeUnreachable), shared("deadCode", deadCode))
			}
			if level >= 2 {
				sched = append(sched, shared("strengthReduce", strengthReduce),
					pass{"propagate", env.propagate, propagateRef}, shared("deadCode", deadCode))
			}
			sched = append(sched, shared("pruneDeadTables", pruneDeadTables))
		}
		c, r := cur[fi], ref[fi]
		for pi, p := range sched {
			p.cur(c)
			p.ref(r)
			compared++
			if !reflect.DeepEqual(c, r) {
				return compared, fmt.Errorf("func %s: TAC differs after pass %d (%s):\nindexed:\n%s\nreference:\n%s", c.Name, pi, p.name, c, r)
			}
		}
		optimize(prod[fi], level)
		if !reflect.DeepEqual(c, prod[fi]) {
			return compared, fmt.Errorf("func %s: lockstep schedule drifted from optimize:\nlockstep:\n%s\noptimize:\n%s", c.Name, c, prod[fi])
		}
	}
	return compared, nil
}
