package mips

import "fmt"

// MIPS primary opcodes and R-type function codes for the supported subset.
const (
	opSpecial = 0x00
	opRegimm  = 0x01
	opJ       = 0x02
	opJAL     = 0x03
	opBEQ     = 0x04
	opBNE     = 0x05
	opBLEZ    = 0x06
	opBGTZ    = 0x07
	opADDI    = 0x08
	opADDIU   = 0x09
	opSLTI    = 0x0a
	opSLTIU   = 0x0b
	opANDI    = 0x0c
	opORI     = 0x0d
	opXORI    = 0x0e
	opLUI     = 0x0f
	opLB      = 0x20
	opLH      = 0x21
	opLW      = 0x23
	opLBU     = 0x24
	opLHU     = 0x25
	opSB      = 0x28
	opSH      = 0x29
	opSW      = 0x2b

	fnSLL   = 0x00
	fnSRL   = 0x02
	fnSRA   = 0x03
	fnSLLV  = 0x04
	fnSRLV  = 0x06
	fnSRAV  = 0x07
	fnJR    = 0x08
	fnJALR  = 0x09
	fnBREAK = 0x0d
	fnMFHI  = 0x10
	fnMTHI  = 0x11
	fnMFLO  = 0x12
	fnMTLO  = 0x13
	fnMULT  = 0x18
	fnMULTU = 0x19
	fnDIV   = 0x1a
	fnDIVU  = 0x1b
	fnADD   = 0x20
	fnADDU  = 0x21
	fnSUB   = 0x22
	fnSUBU  = 0x23
	fnAND   = 0x24
	fnOR    = 0x25
	fnXOR   = 0x26
	fnNOR   = 0x27
	fnSLT   = 0x2a
	fnSLTU  = 0x2b

	rtBLTZ = 0x00
	rtBGEZ = 0x01
)

func rtype(fn uint32, rs, rt, rd Reg, shamt uint32) uint32 {
	return uint32(rs)<<21 | uint32(rt)<<16 | uint32(rd)<<11 | (shamt&0x1f)<<6 | fn
}

func itype(op uint32, rs, rt Reg, imm int32) uint32 {
	return op<<26 | uint32(rs)<<21 | uint32(rt)<<16 | uint32(uint16(imm))
}

var rfuncts = map[Op]uint32{
	ADD: fnADD, ADDU: fnADDU, SUB: fnSUB, SUBU: fnSUBU,
	AND: fnAND, OR: fnOR, XOR: fnXOR, NOR: fnNOR, SLT: fnSLT, SLTU: fnSLTU,
	SLLV: fnSLLV, SRLV: fnSRLV, SRAV: fnSRAV,
}

var shiftFuncts = map[Op]uint32{SLL: fnSLL, SRL: fnSRL, SRA: fnSRA}

var immOps = map[Op]uint32{
	ADDI: opADDI, ADDIU: opADDIU, SLTI: opSLTI, SLTIU: opSLTIU,
	ANDI: opANDI, ORI: opORI, XORI: opXORI,
}

var memOps = map[Op]uint32{
	LB: opLB, LBU: opLBU, LH: opLH, LHU: opLHU, LW: opLW,
	SB: opSB, SH: opSH, SW: opSW,
}

// Decode's inverse tables: the Op for each SPECIAL funct, I-type ALU
// opcode and load/store opcode, indexed by the 6-bit field. NOP (0) marks
// an unused code. They are built once from the maps above, which stay the
// single source of the encoding.
var (
	rfunctOp = invert(rfuncts)
	immOpOf  = invert(immOps)
	memOpOf  = invert(memOps)
)

func invert(m map[Op]uint32) (t [64]Op) {
	for o, code := range m {
		t[code] = o
	}
	return t
}

// Encode converts the instruction to its 32-bit machine encoding.
func Encode(i Inst) (uint32, error) {
	switch i.Op {
	case NOP:
		return 0, nil
	case BREAK:
		return fnBREAK, nil
	case SLL, SRL, SRA:
		if i.Imm < 0 || i.Imm > 31 {
			return 0, fmt.Errorf("mips: %s shift amount %d out of range", i.Op, i.Imm)
		}
		return rtype(shiftFuncts[i.Op], 0, i.Rt, i.Rd, uint32(i.Imm)), nil
	case MULT, MULTU, DIV, DIVU:
		var fn uint32
		switch i.Op {
		case MULT:
			fn = fnMULT
		case MULTU:
			fn = fnMULTU
		case DIV:
			fn = fnDIV
		case DIVU:
			fn = fnDIVU
		}
		return rtype(fn, i.Rs, i.Rt, 0, 0), nil
	case MFHI, MFLO:
		fn := fnMFHI
		if i.Op == MFLO {
			fn = fnMFLO
		}
		return rtype(uint32(fn), 0, 0, i.Rd, 0), nil
	case MTHI, MTLO:
		fn := fnMTHI
		if i.Op == MTLO {
			fn = fnMTLO
		}
		return rtype(uint32(fn), i.Rs, 0, 0, 0), nil
	case JR:
		return rtype(fnJR, i.Rs, 0, 0, 0), nil
	case JALR:
		return rtype(fnJALR, i.Rs, 0, i.Rd, 0), nil
	case LUI:
		return itype(opLUI, 0, i.Rt, i.Imm), nil
	case BEQ, BNE:
		op := uint32(opBEQ)
		if i.Op == BNE {
			op = opBNE
		}
		return itype(op, i.Rs, i.Rt, i.Imm), nil
	case BLEZ:
		return itype(opBLEZ, i.Rs, 0, i.Imm), nil
	case BGTZ:
		return itype(opBGTZ, i.Rs, 0, i.Imm), nil
	case BLTZ:
		return itype(opRegimm, i.Rs, Reg(rtBLTZ), i.Imm), nil
	case BGEZ:
		return itype(opRegimm, i.Rs, Reg(rtBGEZ), i.Imm), nil
	case J, JAL:
		op := uint32(opJ)
		if i.Op == JAL {
			op = opJAL
		}
		return op<<26 | (i.Target >> 2 & 0x03ffffff), nil
	}
	if fn, ok := rfuncts[i.Op]; ok {
		return rtype(fn, i.Rs, i.Rt, i.Rd, 0), nil
	}
	if op, ok := immOps[i.Op]; ok {
		if err := checkImm(i); err != nil {
			return 0, err
		}
		return itype(op, i.Rs, i.Rt, i.Imm), nil
	}
	if op, ok := memOps[i.Op]; ok {
		if i.Imm < -32768 || i.Imm > 32767 {
			return 0, fmt.Errorf("mips: %s offset %d out of range", i.Op, i.Imm)
		}
		return itype(op, i.Rs, i.Rt, i.Imm), nil
	}
	return 0, fmt.Errorf("mips: cannot encode %v", i)
}

func checkImm(i Inst) error {
	switch i.Op {
	case ANDI, ORI, XORI:
		if i.Imm < 0 || i.Imm > 0xffff {
			return fmt.Errorf("mips: %s immediate %d not a 16-bit unsigned value", i.Op, i.Imm)
		}
	default:
		if i.Imm < -32768 || i.Imm > 32767 {
			return fmt.Errorf("mips: %s immediate %d not a 16-bit signed value", i.Op, i.Imm)
		}
	}
	return nil
}

// Decode converts a 32-bit machine word to an instruction.
func Decode(w uint32) (Inst, error) {
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
		if o := rfunctOp[fn]; o != NOP {
			return Inst{Op: o, Rd: rd, Rs: rs, Rt: rt}, nil
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
	if o := immOpOf[op]; o != NOP {
		imm := simm
		if o == ANDI || o == ORI || o == XORI {
			imm = uimm
		}
		return Inst{Op: o, Rs: rs, Rt: rt, Imm: imm}, nil
	}
	if o := memOpOf[op]; o != NOP {
		return Inst{Op: o, Rs: rs, Rt: rt, Imm: simm}, nil
	}
	return Inst{}, fmt.Errorf("mips: unknown opcode 0x%02x in word 0x%08x", op, w)
}
