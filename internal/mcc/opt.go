package mcc

// TAC optimization passes. The pass set per level mirrors a classic C
// compiler, which matters here: the decompiler must cope with (and undo)
// exactly these artifacts.
//
//	O1: constant folding/propagation, copy propagation, algebraic
//	    simplification, branch folding, dead code elimination
//	O2: O1 + local common subexpression elimination + strength reduction
//	O3: O2 (+ loop unrolling, applied earlier at the AST level)

// optimize runs the pass pipeline for the given level on f in place.
func optimize(f *tacFunc, level int) {
	if level < 1 {
		return
	}
	var env blockEnv
	for round := 0; round < 4; round++ {
		env.propagate(f)
		if level >= 2 {
			env.localCSE(f)
		}
		simplifyBranches(f)
		removeUnreachable(f)
		deadCode(f)
	}
	if level >= 2 {
		strengthReduce(f)
		// Reduction introduces new temps and moves; clean up once more.
		env.propagate(f)
		deadCode(f)
	}
	pruneDeadTables(f)
}

// pruneDeadTables drops jump tables whose dispatch was eliminated (e.g. a
// constant switch tag folded the whole indirect jump away); otherwise the
// linker would try to patch labels of deleted case blocks.
func pruneDeadTables(f *tacFunc) {
	if len(f.Tables) == 0 {
		return
	}
	live := map[string]bool{}
	for i := range f.Ins {
		if f.Ins[i].Kind == iAddrG {
			live[f.Ins[i].Sym] = true
		}
	}
	out := f.Tables[:0]
	for _, t := range f.Tables {
		if live[t.Sym] {
			out = append(out, t)
		}
	}
	f.Tables = out
}

// blockRanges splits f.Ins into basic-block index ranges [start,end).
// Every TAC pass re-derives block structure through this, so it counts
// first and allocates the result exactly once.
func blockRanges(f *tacFunc) [][2]int {
	n, start := 0, 0
	for i := range f.Ins {
		switch f.Ins[i].Kind {
		case iLabel:
			if i > start {
				n++
			}
			start = i
		case iBr, iCBr, iJT, iRet:
			n++
			start = i + 1
		}
	}
	if start < len(f.Ins) {
		n++
	}
	out := make([][2]int, 0, n)
	start = 0
	for i := range f.Ins {
		switch f.Ins[i].Kind {
		case iLabel:
			if i > start {
				out = append(out, [2]int{start, i})
			}
			start = i
		case iBr, iCBr, iJT, iRet:
			out = append(out, [2]int{start, i + 1})
			start = i + 1
		}
	}
	if start < len(f.Ins) {
		out = append(out, [2]int{start, len(f.Ins)})
	}
	return out
}

// foldTac folds a TAC binary operator over two constants.
func foldTac(op string, a, b int32) (int32, bool) {
	switch op {
	case "/u":
		return foldBin("/", a, b, false)
	case "%u":
		return foldBin("%", a, b, false)
	case ">>s":
		return foldBin(">>", a, b, true)
	case ">>u":
		return foldBin(">>", a, b, false)
	case "<u":
		return foldBin("<", a, b, false)
	case "<=u":
		return foldBin("<=", a, b, false)
	case ">u":
		return foldBin(">", a, b, false)
	case ">=u":
		return foldBin(">=", a, b, false)
	default:
		return foldBin(op, a, b, true)
	}
}

// blockEnv is the per-block state of propagate and localCSE, sized once
// per function and reused across blocks and optimization rounds. The
// bindings are an epoch-stamped dense array over the temp space: entering
// a block bumps the epoch instead of clearing them, and a binding counts
// only while its stamp matches. Each temp also heads a list, kept in one
// arena, of the bindings that mention it, so redefining a temp visits
// only those bindings instead of scanning all of them — which keeps both
// passes linear in block length.
type blockEnv struct {
	epoch uint32
	temps []tempEnv
	arena []userLink
	// avail maps a localCSE expression to its index in exprs, which
	// holds the current block's expressions.
	avail map[cseKey]int32
	exprs []cseExpr
}

// tempEnv is one temp's propagate binding (a known constant or copy
// source) and the head of its user list (an arena index, or -1), each
// valid while its stamp matches the epoch.
type tempEnv struct {
	val    Operand
	valAt  uint32
	head   int32
	headAt uint32
}

// userLink is one arena entry: binding who mentions the list's temp.
// who is a temp for propagate and an exprs index for localCSE.
type userLink struct {
	who, next int32
}

// cseExpr is one available expression of the current block: key's value
// is held in val until a temp the entry mentions is redefined.
type cseExpr struct {
	key  cseKey
	val  Temp
	live bool
}

// prepare sizes the environment for f and returns its block ranges. A
// block adds at most three user links per instruction (localCSE's two
// operands and result), so the arena never outgrows the longest block.
func (e *blockEnv) prepare(f *tacFunc) [][2]int {
	if f.NTemp > len(e.temps) {
		e.temps = make([]tempEnv, f.NTemp)
	}
	ranges := blockRanges(f)
	longest := 0
	for _, r := range ranges {
		longest = max(longest, r[1]-r[0])
	}
	if cap(e.arena) < 3*longest {
		e.arena = make([]userLink, 0, 3*longest)
	}
	return ranges
}

// enter starts a new block: every binding and user list goes stale.
func (e *blockEnv) enter() {
	e.epoch++
	e.arena = e.arena[:0]
}

// link records that binding who mentions temp t.
func (e *blockEnv) link(t Temp, who int32) {
	te := &e.temps[t]
	next := int32(-1)
	if te.headAt == e.epoch {
		next = te.head
	}
	te.head, te.headAt = int32(len(e.arena)), e.epoch
	e.arena = append(e.arena, userLink{who: who, next: next})
}

// users returns the arena index of t's first user, or -1, and empties
// t's list: every caller is about to kill each user it visits.
func (e *blockEnv) users(t Temp) int32 {
	te := &e.temps[t]
	if te.headAt != e.epoch {
		return -1
	}
	te.headAt = 0
	return te.head
}

// bind records propagate's binding t -> o.
func (e *blockEnv) bind(t Temp, o Operand) {
	e.temps[t].val, e.temps[t].valAt = o, e.epoch
	if !o.IsConst {
		e.link(o.Temp, int32(t))
	}
}

// unbind drops the binding for t and every copy binding that reads t.
func (e *blockEnv) unbind(t Temp) {
	e.temps[t].valAt = 0
	for n := e.users(t); n >= 0; n = e.arena[n].next {
		k := &e.temps[e.arena[n].who]
		if k.valAt == e.epoch && !k.val.IsConst && k.val.Temp == t {
			k.valAt = 0
		}
	}
}

// sub returns the known value of operand o.
func (e *blockEnv) sub(o Operand) Operand {
	if !o.IsConst {
		if te := &e.temps[o.Temp]; te.valAt == e.epoch {
			return te.val
		}
	}
	return o
}

// substUses substitutes known values into the pure value uses of in;
// definitions are left alone.
func (e *blockEnv) substUses(in *ins) {
	switch in.Kind {
	case iMov, iJT:
		in.A = e.sub(in.A)
	case iBin, iCBr:
		in.A = e.sub(in.A)
		in.B = e.sub(in.B)
	case iLoad:
		in.A = e.sub(in.A)
	case iStore:
		in.A = e.sub(in.A)
		in.B = e.sub(in.B)
	case iCall:
		for i := range in.Args {
			in.Args[i] = e.sub(in.Args[i])
		}
	case iRet:
		if in.HasA {
			in.A = e.sub(in.A)
		}
	}
}

// propagate performs per-block constant and copy propagation plus algebraic
// simplification and constant folding.
func (e *blockEnv) propagate(f *tacFunc) {
	for _, r := range e.prepare(f) {
		e.enter()
		for i := r[0]; i < r[1]; i++ {
			in := &f.Ins[i]
			e.substUses(in)
			if in.Kind == iBin {
				simplifyBin(in)
			}
			if d, ok := in.def(); ok {
				e.unbind(d)
				switch in.Kind {
				case iMov:
					if in.A.IsConst || in.A.Temp != d {
						e.bind(d, in.A)
					}
				case iBin:
					if in.A.IsConst && in.B.IsConst {
						if v, ok := foldTac(in.Op, in.A.Val, in.B.Val); ok {
							*in = ins{Kind: iMov, Dst: d, A: cnst(v)}
							e.bind(d, cnst(v))
						}
					}
				}
			}
		}
	}
}

// simplifyBin applies algebraic identities in place, possibly turning the
// instruction into a move.
func simplifyBin(in *ins) {
	isC := func(o Operand, v int32) bool { return o.IsConst && o.Val == v }
	toMov := func(a Operand) { *in = ins{Kind: iMov, Dst: in.Dst, A: a} }
	switch in.Op {
	case "+":
		if isC(in.B, 0) {
			toMov(in.A)
		} else if isC(in.A, 0) {
			toMov(in.B)
		}
	case "-":
		if isC(in.B, 0) {
			toMov(in.A)
		} else if !in.A.IsConst && !in.B.IsConst && in.A.Temp == in.B.Temp {
			toMov(cnst(0))
		}
	case "*":
		if isC(in.B, 1) {
			toMov(in.A)
		} else if isC(in.A, 1) {
			toMov(in.B)
		} else if isC(in.A, 0) || isC(in.B, 0) {
			toMov(cnst(0))
		}
	case "&":
		if isC(in.B, 0) || isC(in.A, 0) {
			toMov(cnst(0))
		} else if isC(in.B, -1) {
			toMov(in.A)
		} else if isC(in.A, -1) {
			toMov(in.B)
		}
	case "|", "^":
		if isC(in.B, 0) {
			toMov(in.A)
		} else if isC(in.A, 0) {
			toMov(in.B)
		}
	case "<<", ">>s", ">>u":
		if isC(in.B, 0) {
			toMov(in.A)
		}
	case "/", "/u":
		if isC(in.B, 1) {
			toMov(in.A)
		}
	}
}

// cseKey identifies a pure computation for localCSE.
type cseKey struct {
	op   string
	kind insKind
	a, b Operand
	off  int32
	sym  string
	slot int
}

// localCSE eliminates repeated pure computations within a block.
func (e *blockEnv) localCSE(f *tacFunc) {
	ranges := e.prepare(f)
	longest := cap(e.arena) / 3
	if e.avail == nil {
		e.avail = make(map[cseKey]int32, longest)
	}
	if cap(e.exprs) < longest {
		e.exprs = make([]cseExpr, 0, longest)
	}
	for _, r := range ranges {
		e.enter()
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
				if x, ok := e.avail[key]; ok && e.exprs[x].live {
					*in = ins{Kind: iMov, Dst: in.Dst, A: tmp(e.exprs[x].val)}
					if d, ok := in.def(); ok {
						e.killExprs(d)
					}
					continue
				}
			}
			if d, ok := in.def(); ok {
				e.killExprs(d)
				if cacheable {
					e.addExpr(key, d)
				}
			}
		}
		for _, x := range e.exprs {
			delete(e.avail, x.key)
		}
		e.exprs = e.exprs[:0]
	}
}

// addExpr makes key available in d, linked under every temp the entry
// mentions. Address keys carry zero operands, which name temp 0, so
// redefining temp 0 kills them too.
func (e *blockEnv) addExpr(key cseKey, d Temp) {
	x := int32(len(e.exprs))
	e.exprs = append(e.exprs, cseExpr{key: key, val: d, live: true})
	e.avail[key] = x
	if !key.a.IsConst {
		e.link(key.a.Temp, x)
	}
	if !key.b.IsConst {
		e.link(key.b.Temp, x)
	}
	e.link(d, x)
}

// killExprs drops every available expression that reads or is held in t.
func (e *blockEnv) killExprs(t Temp) {
	for n := e.users(t); n >= 0; n = e.arena[n].next {
		e.exprs[e.arena[n].who].live = false
	}
}

// simplifyBranches folds constant conditional branches and removes jumps to
// the immediately following label.
func simplifyBranches(f *tacFunc) {
	out := f.Ins[:0]
	for _, in := range f.Ins {
		if in.Kind == iCBr && in.A.IsConst && in.B.IsConst {
			if v, ok := foldTac(cbrFoldOp(in.Op), in.A.Val, in.B.Val); ok {
				if v != 0 {
					out = append(out, ins{Kind: iBr, Sym: in.Sym})
				}
				continue
			}
		}
		out = append(out, in)
	}
	f.Ins = out
	// Drop br/cbr to the next label.
	out = f.Ins[:0]
	for i, in := range f.Ins {
		if (in.Kind == iBr || in.Kind == iCBr) && i+1 < len(f.Ins) &&
			f.Ins[i+1].Kind == iLabel && f.Ins[i+1].Sym == in.Sym {
			continue
		}
		out = append(out, in)
	}
	f.Ins = out
}

func cbrFoldOp(op string) string {
	// iCBr ops are already TAC comparison operators.
	return op
}

// removeUnreachable deletes instructions between an unconditional control
// transfer and the next label, then removes whole blocks no control flow
// can reach (e.g. arms of statically folded branches).
func removeUnreachable(f *tacFunc) {
	out := f.Ins[:0]
	dead := false
	for _, in := range f.Ins {
		if in.Kind == iLabel {
			dead = false
		}
		if dead {
			continue
		}
		out = append(out, in)
		if in.Kind == iBr || in.Kind == iRet || in.Kind == iJT {
			dead = true
		}
	}
	f.Ins = out
	removeUnreachableBlocks(f)
}

// removeUnreachableBlocks drops basic blocks unreachable from the entry.
// Indirect jumps (jump tables) conservatively keep every labeled block.
func removeUnreachableBlocks(f *tacFunc) {
	for i := range f.Ins {
		if f.Ins[i].Kind == iJT {
			return
		}
	}
	ranges := blockRanges(f)
	if len(ranges) == 0 {
		return
	}
	labelBlock := map[string]int{}
	for bi, r := range ranges {
		for j := r[0]; j < r[1] && f.Ins[j].Kind == iLabel; j++ {
			labelBlock[f.Ins[j].Sym] = bi
		}
	}
	reach := make([]bool, len(ranges))
	var visit func(bi int)
	visit = func(bi int) {
		if bi >= len(ranges) || reach[bi] {
			return
		}
		reach[bi] = true
		r := ranges[bi]
		last := f.Ins[r[1]-1]
		switch last.Kind {
		case iBr:
			if t, ok := labelBlock[last.Sym]; ok {
				visit(t)
			}
		case iCBr:
			if t, ok := labelBlock[last.Sym]; ok {
				visit(t)
			}
			visit(bi + 1)
		case iRet:
		default:
			visit(bi + 1)
		}
	}
	visit(0)
	out := f.Ins[:0]
	for bi, r := range ranges {
		if !reach[bi] {
			continue
		}
		out = append(out, f.Ins[r[0]:r[1]]...)
	}
	f.Ins = out
}

// deadCode removes pure instructions whose results are never used anywhere
// in the function. Loads are pure in MicroC (no volatile).
func deadCode(f *tacFunc) {
	used := newTempSet(f.NTemp)
	var ub [4]Temp
	for {
		used.reset()
		for i := range f.Ins {
			for _, t := range f.Ins[i].appendUses(ub[:0]) {
				used.set(t)
			}
		}
		changed := false
		out := f.Ins[:0]
		for _, in := range f.Ins {
			if d, ok := in.def(); ok && !used.has(d) {
				switch in.Kind {
				case iMov, iBin, iLoad, iAddrG, iAddrL:
					changed = true
					continue
				case iCall:
					// Keep the call, drop the unused result.
					in.HasDst = false
				}
			}
			out = append(out, in)
		}
		f.Ins = out
		if !changed {
			return
		}
	}
}

// strengthReduce rewrites multiplications by constants into shift/add/sub
// sequences when that takes at most 4 operations (the classic heuristic:
// cheaper than a pipelined multiply), and unsigned divisions/remainders by
// powers of two into shifts/masks. This is the compiler optimization the
// paper's "strength promotion" decompiler pass must undo.
func strengthReduce(f *tacFunc) {
	var out []ins
	for _, in := range f.Ins {
		if in.Kind == iBin {
			switch in.Op {
			case "*":
				c, x, ok := constOperand(&in)
				if ok {
					if seq, ok2 := mulSequence(f, x, c, in.Dst); ok2 {
						out = append(out, seq...)
						continue
					}
				}
			case "/u":
				if in.B.IsConst && isPow2(in.B.Val) {
					out = append(out, ins{Kind: iBin, Op: ">>u", Dst: in.Dst, A: in.A, B: cnst(log2(in.B.Val))})
					continue
				}
			case "%u":
				if in.B.IsConst && isPow2(in.B.Val) {
					out = append(out, ins{Kind: iBin, Op: "&", Dst: in.Dst, A: in.A, B: cnst(in.B.Val - 1)})
					continue
				}
			}
		}
		out = append(out, in)
	}
	f.Ins = out
}

func constOperand(in *ins) (int32, Operand, bool) {
	if in.B.IsConst && !in.A.IsConst {
		return in.B.Val, in.A, true
	}
	if in.A.IsConst && !in.B.IsConst {
		return in.A.Val, in.B, true
	}
	return 0, Operand{}, false
}

func isPow2(v int32) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int32) int32 {
	n := int32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// csdTerm is one signed power-of-two term of a constant multiplier.
type csdTerm struct {
	shift int32
	neg   bool
}

// csdRecode decomposes c into signed power-of-two terms using canonical
// signed-digit recoding, which minimizes the term count.
func csdRecode(c int64) []csdTerm {
	var terms []csdTerm
	for i := 0; c != 0 && i < 40; i++ {
		if c&1 != 0 {
			// Choose digit +1 or -1 so the remaining value is even.
			if c&3 == 3 { // ...11 -> digit -1, carry
				terms = append(terms, csdTerm{shift: int32(i), neg: true})
				c++
			} else {
				terms = append(terms, csdTerm{shift: int32(i)})
				c--
			}
		}
		c >>= 1
	}
	return terms
}

// mulSequence builds the shift/add/sub sequence computing dst = x*c, or
// reports false when a multiply instruction is cheaper.
func mulSequence(f *tacFunc, x Operand, c int32, dst Temp) ([]ins, bool) {
	if c == 0 {
		return []ins{{Kind: iMov, Dst: dst, A: cnst(0)}}, true
	}
	neg := c < 0
	terms := csdRecode(int64(abs64(int64(c))))
	// Cost: one shift per nonzero-shift term plus one add/sub per extra
	// term, plus a final negate. More than 4 ops: keep the multiply.
	cost := len(terms) - 1
	for _, t := range terms {
		if t.shift != 0 {
			cost++
		}
	}
	if neg {
		cost++
	}
	if cost > 4 || len(terms) == 0 {
		return nil, false
	}
	var seq []ins
	// acc holds the running sum as an operand.
	var acc Operand
	for i, t := range terms {
		var term Operand
		if t.shift == 0 {
			term = x
		} else {
			tt := f.newTemp()
			seq = append(seq, ins{Kind: iBin, Op: "<<", Dst: tt, A: x, B: cnst(t.shift)})
			term = tmp(tt)
		}
		if i == 0 {
			if t.neg {
				tt := f.newTemp()
				seq = append(seq, ins{Kind: iBin, Op: "-", Dst: tt, A: cnst(0), B: term})
				term = tmp(tt)
			}
			acc = term
			continue
		}
		tt := f.newTemp()
		op := "+"
		if t.neg {
			op = "-"
		}
		seq = append(seq, ins{Kind: iBin, Op: op, Dst: tt, A: acc, B: term})
		acc = tmp(tt)
	}
	if neg {
		tt := f.newTemp()
		seq = append(seq, ins{Kind: iBin, Op: "-", Dst: tt, A: cnst(0), B: acc})
		acc = tmp(tt)
	}
	seq = append(seq, ins{Kind: iMov, Dst: dst, A: acc})
	return seq, true
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
