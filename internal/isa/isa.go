// Package isa defines the SPARC V8 instruction subset executed by the
// LEON2-like simulator (the paper's Section 2 platform is a LEON2, a
// SPARC V8 soft core): 32-bit instruction words in the three SPARC
// formats, a semantic opcode enumeration, integer condition codes,
// encoding, decoding, and disassembly.
//
// The subset covers everything the benchmark programs and the window
// overflow/underflow machinery need: the ALU (with and without condition
// codes), UMUL/SMUL/UDIV/SDIV, the Y register, loads and stores of word,
// half and byte width, SETHI, delayed branches with the annul bit, CALL,
// JMPL, SAVE/RESTORE and Ticc traps.
package isa

import "fmt"

// Number of architectural registers visible at once (8 globals + 24
// windowed).
const (
	NumRegs     = 32
	RegG0       = 0  // hardwired zero
	RegO7       = 15 // CALL writes its return address here
	RegSP       = 14 // %o6, stack pointer by convention
	RegFP       = 30 // %i6, frame pointer by convention
	RegI7       = 31 // return address of the caller's CALL
	WordBytes   = 4
	InstrBytes  = 4
	WindowShift = 16 // registers rotated per SAVE/RESTORE
)

// Opcode is the semantic operation of a decoded instruction.
type Opcode int

const (
	OpInvalid Opcode = iota

	// ALU register/immediate operations (format 3, op=10).
	OpAdd
	OpAddCC
	OpSub
	OpSubCC
	OpAnd
	OpAndCC
	OpOr
	OpOrCC
	OpXor
	OpXorCC
	OpAndN
	OpOrN
	OpXnor
	OpSll
	OpSrl
	OpSra
	OpUMul
	OpSMul
	OpUMulCC
	OpSMulCC
	OpUDiv
	OpSDiv

	// Y register access.
	OpRdY
	OpWrY

	// Memory (format 3, op=11).
	OpLd   // load word
	OpLdUB // load unsigned byte
	OpLdSB // load signed byte
	OpLdUH // load unsigned half
	OpLdSH // load signed half
	OpSt   // store word
	OpStB  // store byte
	OpStH  // store half

	// Control transfer.
	OpSethi
	OpBicc // conditional branch with annul bit
	OpCall
	OpJmpl
	OpSave
	OpRestore
	OpTicc // trap on condition (TA 0 halts the simulator)

	numOpcodes
)

var opcodeNames = map[Opcode]string{
	OpInvalid: "invalid",
	OpAdd:     "add", OpAddCC: "addcc",
	OpSub: "sub", OpSubCC: "subcc",
	OpAnd: "and", OpAndCC: "andcc",
	OpOr: "or", OpOrCC: "orcc",
	OpXor: "xor", OpXorCC: "xorcc",
	OpAndN: "andn", OpOrN: "orn", OpXnor: "xnor",
	OpSll: "sll", OpSrl: "srl", OpSra: "sra",
	OpUMul: "umul", OpSMul: "smul",
	OpUMulCC: "umulcc", OpSMulCC: "smulcc",
	OpUDiv: "udiv", OpSDiv: "sdiv",
	OpRdY: "rd", OpWrY: "wr",
	OpLd: "ld", OpLdUB: "ldub", OpLdSB: "ldsb", OpLdUH: "lduh", OpLdSH: "ldsh",
	OpSt: "st", OpStB: "stb", OpStH: "sth",
	OpSethi: "sethi", OpBicc: "b", OpCall: "call", OpJmpl: "jmpl",
	OpSave: "save", OpRestore: "restore", OpTicc: "t",
}

func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("Opcode(%d)", int(o))
}

// IsLoad reports whether the opcode reads data memory.
func (o Opcode) IsLoad() bool {
	switch o {
	case OpLd, OpLdUB, OpLdSB, OpLdUH, OpLdSH:
		return true
	}
	return false
}

// IsStore reports whether the opcode writes data memory.
func (o Opcode) IsStore() bool {
	switch o {
	case OpSt, OpStB, OpStH:
		return true
	}
	return false
}

// IsControlTransfer reports whether the opcode can change control flow.
func (o Opcode) IsControlTransfer() bool {
	switch o {
	case OpBicc, OpCall, OpJmpl, OpTicc:
		return true
	}
	return false
}

// SetsICC reports whether the opcode writes the integer condition codes.
func (o Opcode) SetsICC() bool {
	switch o {
	case OpAddCC, OpSubCC, OpAndCC, OpOrCC, OpXorCC, OpUMulCC, OpSMulCC:
		return true
	}
	return false
}

// IsMul reports whether the opcode uses the hardware multiplier.
func (o Opcode) IsMul() bool {
	switch o {
	case OpUMul, OpSMul, OpUMulCC, OpSMulCC:
		return true
	}
	return false
}

// IsDiv reports whether the opcode uses the hardware divider.
func (o Opcode) IsDiv() bool { return o == OpUDiv || o == OpSDiv }

// Cond is a SPARC branch/trap condition (the 4-bit cond field of Bicc and
// Ticc).
type Cond uint8

const (
	CondN   Cond = 0x0 // never
	CondE   Cond = 0x1 // equal (Z)
	CondLE  Cond = 0x2 // less or equal (Z or (N xor V))
	CondL   Cond = 0x3 // less (N xor V)
	CondLEU Cond = 0x4 // less or equal unsigned (C or Z)
	CondCS  Cond = 0x5 // carry set / less unsigned
	CondNeg Cond = 0x6 // negative
	CondVS  Cond = 0x7 // overflow set
	CondA   Cond = 0x8 // always
	CondNE  Cond = 0x9 // not equal
	CondG   Cond = 0xA // greater
	CondGE  Cond = 0xB // greater or equal
	CondGU  Cond = 0xC // greater unsigned
	CondCC  Cond = 0xD // carry clear / greater or equal unsigned
	CondPos Cond = 0xE // positive
	CondVC  Cond = 0xF // overflow clear
)

var condNames = [16]string{
	"n", "e", "le", "l", "leu", "cs", "neg", "vs",
	"a", "ne", "g", "ge", "gu", "cc", "pos", "vc",
}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("Cond(%d)", int(c))
}

// ICC is the SPARC integer condition code register: negative, zero,
// overflow and carry.
type ICC struct {
	N, Z, V, C bool
}

// Holds evaluates the condition against the condition codes, per the
// SPARC V8 Bicc truth table.
func (c Cond) Holds(icc ICC) bool {
	switch c {
	case CondN:
		return false
	case CondE:
		return icc.Z
	case CondLE:
		return icc.Z || (icc.N != icc.V)
	case CondL:
		return icc.N != icc.V
	case CondLEU:
		return icc.C || icc.Z
	case CondCS:
		return icc.C
	case CondNeg:
		return icc.N
	case CondVS:
		return icc.V
	case CondA:
		return true
	case CondNE:
		return !icc.Z
	case CondG:
		return !(icc.Z || (icc.N != icc.V))
	case CondGE:
		return icc.N == icc.V
	case CondGU:
		return !(icc.C || icc.Z)
	case CondCC:
		return !icc.C
	case CondPos:
		return !icc.N
	case CondVC:
		return !icc.V
	default:
		return false
	}
}

// Negate returns the logically opposite condition.
func (c Cond) Negate() Cond { return c ^ 0x8 }

// Instr is a decoded instruction. Exactly one of the addressing forms is
// meaningful depending on Op:
//
//   - ALU/memory/JMPL/SAVE/RESTORE/Ticc: Rd, Rs1 and either Rs2 (UseImm
//     false) or Imm (UseImm true, sign-extended simm13).
//   - SETHI: Rd and Imm (the 22-bit immediate, NOT pre-shifted).
//   - Bicc: Cond, Annul and Disp (word displacement relative to the branch).
//   - CALL: Disp (word displacement).
type Instr struct {
	Op     Opcode
	Rd     uint8
	Rs1    uint8
	Rs2    uint8
	Imm    int32
	UseImm bool
	Cond   Cond
	Annul  bool
	Disp   int32
}
