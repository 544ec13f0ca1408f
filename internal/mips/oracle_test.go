package mips

import (
	"fmt"
	"testing"
)

// decodeRef is Decode as it was before the inverse tables, kept as the
// differential reference: SPECIAL functs, I-type ALU opcodes and
// load/store opcodes are found by ranging over the Encode maps.
func decodeRef(w uint32) (Inst, error) {
	op := w >> 26
	rs := Reg(w >> 21 & 0x1f)
	rt := Reg(w >> 16 & 0x1f)
	rd := Reg(w >> 11 & 0x1f)
	shamt := int32(w >> 6 & 0x1f)
	simm := int32(int16(w & 0xffff))
	uimm := int32(w & 0xffff)

	switch op {
	case opSpecial:
		fn := w & 0x3f
		switch fn {
		case fnSLL:
			if w == 0 {
				return Inst{Op: NOP}, nil
			}
			return Inst{Op: SLL, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSRL:
			return Inst{Op: SRL, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSRA:
			return Inst{Op: SRA, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSLLV:
			return Inst{Op: SLLV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnSRLV:
			return Inst{Op: SRLV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnSRAV:
			return Inst{Op: SRAV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnJR:
			return Inst{Op: JR, Rs: rs}, nil
		case fnJALR:
			return Inst{Op: JALR, Rd: rd, Rs: rs}, nil
		case fnBREAK:
			return Inst{Op: BREAK}, nil
		case fnMFHI:
			return Inst{Op: MFHI, Rd: rd}, nil
		case fnMTHI:
			return Inst{Op: MTHI, Rs: rs}, nil
		case fnMFLO:
			return Inst{Op: MFLO, Rd: rd}, nil
		case fnMTLO:
			return Inst{Op: MTLO, Rs: rs}, nil
		case fnMULT:
			return Inst{Op: MULT, Rs: rs, Rt: rt}, nil
		case fnMULTU:
			return Inst{Op: MULTU, Rs: rs, Rt: rt}, nil
		case fnDIV:
			return Inst{Op: DIV, Rs: rs, Rt: rt}, nil
		case fnDIVU:
			return Inst{Op: DIVU, Rs: rs, Rt: rt}, nil
		}
		for o, f := range rfuncts {
			if f == fn {
				return Inst{Op: o, Rd: rd, Rs: rs, Rt: rt}, nil
			}
		}
		return Inst{}, fmt.Errorf("mips: unknown SPECIAL funct 0x%02x in word 0x%08x", fn, w)
	case opRegimm:
		switch uint32(rt) {
		case rtBLTZ:
			return Inst{Op: BLTZ, Rs: rs, Imm: simm}, nil
		case rtBGEZ:
			return Inst{Op: BGEZ, Rs: rs, Imm: simm}, nil
		}
		return Inst{}, fmt.Errorf("mips: unknown REGIMM rt %d in word 0x%08x", rt, w)
	case opJ:
		return Inst{Op: J, Target: w << 6 >> 4}, nil
	case opJAL:
		return Inst{Op: JAL, Target: w << 6 >> 4}, nil
	case opBEQ:
		return Inst{Op: BEQ, Rs: rs, Rt: rt, Imm: simm}, nil
	case opBNE:
		return Inst{Op: BNE, Rs: rs, Rt: rt, Imm: simm}, nil
	case opBLEZ:
		return Inst{Op: BLEZ, Rs: rs, Imm: simm}, nil
	case opBGTZ:
		return Inst{Op: BGTZ, Rs: rs, Imm: simm}, nil
	case opLUI:
		return Inst{Op: LUI, Rt: rt, Imm: uimm}, nil
	}
	for o, code := range immOps {
		if code == op {
			imm := simm
			if o == ANDI || o == ORI || o == XORI {
				imm = uimm
			}
			return Inst{Op: o, Rs: rs, Rt: rt, Imm: imm}, nil
		}
	}
	for o, code := range memOps {
		if code == op {
			return Inst{Op: o, Rs: rs, Rt: rt, Imm: simm}, nil
		}
	}
	return Inst{}, fmt.Errorf("mips: unknown opcode 0x%02x in word 0x%08x", op, w)
}

// TestDecodeMatchesReference decodes every opcode × funct × rt
// combination, with the remaining fields (rs, rd, shamt) under several
// fill patterns, through Decode and decodeRef and requires the same
// instruction and the same error text. Together the three varied fields
// select every decode path, including each unknown-code error.
func TestDecodeMatchesReference(t *testing.T) {
	const otherBits = 0x1f<<21 | 0x1f<<11 | 0x1f<<6
	fills := []uint32{0, 0xffffffff, 0xaaaaaaaa, 0x55555555, 0x9e3779b9, 0x0badcafe}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	n := 0
	for op := uint32(0); op < 64; op++ {
		for fn := uint32(0); fn < 64; fn++ {
			for rt := uint32(0); rt < 32; rt++ {
				for _, fill := range fills {
					w := op<<26 | fill&otherBits | rt<<16 | fn
					got, gerr := Decode(w)
					want, werr := decodeRef(w)
					if got != want || errText(gerr) != errText(werr) {
						t.Fatalf("word 0x%08x: Decode = %+v, %v; reference = %+v, %v", w, got, gerr, want, werr)
					}
					n++
				}
			}
		}
	}
	if n != 64*64*32*len(fills) {
		t.Fatalf("checked %d words", n)
	}
}

// TestEncodeDecodeEveryOp round-trips every Op through Encode and Decode
// under several field fillings: the decoded instruction must have the
// same Op, disassemble identically (String prints exactly the fields the
// Op uses) and re-encode to the same word.
func TestEncodeDecodeEveryOp(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		ok := 0
		for _, imm := range []int32{0, 3, 31, -3, 0x7fff} {
			for _, regs := range [][3]Reg{{T0, T1, T2}, {RA, SP, A3}, {Zero, V1, S7}} {
				in := Inst{Op: op, Rd: regs[0], Rs: regs[1], Rt: regs[2], Imm: imm, Target: 0x00400100}
				if op == LUI && imm < 0 {
					continue // LUI keeps only the low 16 bits, unsigned
				}
				w, err := Encode(in)
				if err != nil {
					continue // an immediate the Op cannot encode
				}
				d, err := Decode(w)
				if err != nil {
					t.Fatalf("%v: Decode(0x%08x): %v", in, w, err)
				}
				if d.Op != op || d.String() != in.String() {
					t.Fatalf("%v: encoded 0x%08x decodes to %v", in, w, d)
				}
				if w2, err := Encode(d); err != nil || w2 != w {
					t.Fatalf("%v: re-encodes to 0x%08x (%v), want 0x%08x", d, w2, err, w)
				}
				ok++
			}
		}
		if ok == 0 {
			t.Fatalf("%v: no field filling encodes", op)
		}
	}
}

// TestEncodeAllocationFree pins that encoding allocates nothing on the
// success path, the multiply/divide group included.
func TestEncodeAllocationFree(t *testing.T) {
	ins := []Inst{
		{Op: MULT, Rs: T0, Rt: T1}, {Op: DIVU, Rs: A0, Rt: A1},
		{Op: ADDU, Rd: V0, Rs: A0, Rt: A1}, {Op: LW, Rt: T0, Rs: SP, Imm: 8},
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, in := range ins {
			if _, err := Encode(in); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("Encode allocates %.1f times per run", allocs)
	}
}
