package cpu_test

import (
	"fmt"

	"testing"

	"liquidarch/internal/config"
	"liquidarch/internal/cpu"
	"liquidarch/internal/isa"
)

// fuzzScratch is the data region fuzz-generated loads and stores hit:
// past the text segment, inside buildCore's 1 MiB RAM.
const fuzzScratch = textBase + 0x8000

// fuzzGadget decodes 4 fuzz bytes into a fixed-length instruction gadget.
// Every gadget is exactly 4 instructions, so branch displacements are
// static and always land on the next gadget boundary — arbitrary fuzz
// input can only produce valid, halting programs.
func fuzzGadget(b0, b1, b2, b3 byte) []isa.Instr {
	// Destinations stay in %o0..%i7 (8..31): %g6 holds the scratch base,
	// %g7 the loop counter, and the gadgets must clobber neither.
	rd := 8 + b1%24
	rs1 := b2 % 32
	imm := int32(b3)
	aluOps := []isa.Opcode{
		isa.OpAdd, isa.OpAddCC, isa.OpSub, isa.OpSubCC,
		isa.OpAnd, isa.OpAndCC, isa.OpOr, isa.OpOrCC,
		isa.OpXor, isa.OpXorCC, isa.OpAndN, isa.OpOrN, isa.OpXnor,
		isa.OpSll, isa.OpSrl, isa.OpSra, isa.OpUMul, isa.OpSMul,
	}
	pad := func(g ...isa.Instr) []isa.Instr {
		for len(g) < 4 {
			g = append(g, nop())
		}
		return g
	}
	switch b0 % 8 {
	case 0: // register-register ALU
		op := aluOps[int(b3)%len(aluOps)]
		return pad(alu(op, rd, rs1, b3%32))
	case 1: // register-immediate ALU
		op := aluOps[int(b2)%len(aluOps)]
		return pad(aluImm(op, rd, rs1, imm-128))
	case 2: // sethi
		return pad(isa.Instr{Op: isa.OpSethi, Rd: rd, Imm: int32(b2)<<8 | int32(b3)})
	case 3: // load (width from b2, offset aligned to the width)
		switch b2 % 3 {
		case 0:
			return pad(isa.Instr{Op: isa.OpLd, Rd: rd, Rs1: 6, UseImm: true, Imm: imm &^ 3})
		case 1:
			return pad(isa.Instr{Op: isa.OpLdUH, Rd: rd, Rs1: 6, UseImm: true, Imm: imm &^ 1})
		default:
			return pad(isa.Instr{Op: isa.OpLdSB, Rd: rd, Rs1: 6, UseImm: true, Imm: imm})
		}
	case 4: // store, then a back-to-back word store (write-buffer stall)
		second := isa.Instr{Op: isa.OpSt, Rd: rd, Rs1: 6, UseImm: true, Imm: (imm + 64) &^ 3}
		switch b2 % 3 {
		case 0:
			return pad(isa.Instr{Op: isa.OpSt, Rd: rd, Rs1: 6, UseImm: true, Imm: imm &^ 3}, second)
		case 1:
			return pad(isa.Instr{Op: isa.OpStH, Rd: rd, Rs1: 6, UseImm: true, Imm: imm &^ 1}, second)
		default:
			return pad(isa.Instr{Op: isa.OpStB, Rd: rd, Rs1: 6, UseImm: true, Imm: imm}, second)
		}
	case 5: // load then immediately use the result (load interlock)
		return pad(
			isa.Instr{Op: isa.OpLd, Rd: rd, Rs1: 6, UseImm: true, Imm: imm &^ 3},
			alu(isa.OpAdd, rd, rd, rd))
	case 6: // compare and forward branch over one gadget slot
		return []isa.Instr{
			aluImm(isa.OpSubCC, 0, rs1, imm-128),
			{Op: isa.OpBicc, Cond: isa.Cond(b2 % 16), Annul: b2&16 != 0, Disp: 3},
			alu(aluOps[int(b3)%len(aluOps)], rd, rd, rs1), // delay slot, fusable ALU
			nop(), // branch target: next gadget
		}
	default: // Y-register round trip
		return pad(
			isa.Instr{Op: isa.OpWrY, Rs1: rs1, UseImm: true, Imm: imm},
			isa.Instr{Op: isa.OpRdY, Rd: rd})
	}
}

// fuzzProgram wraps the decoded gadgets in a counted loop so every hot
// path repeats enough to cross the superblock threshold, then halts.
func fuzzProgram(data []byte) []isa.Instr {
	prog := set32(6, fuzzScratch)                    // %g6 = scratch base
	prog = append(prog, aluImm(isa.OpAdd, 7, 0, 24)) // %g7 = trip count
	// Seed a few registers so gadget dataflow has material to chew on.
	for i := uint8(8); i < 12; i++ {
		prog = append(prog, isa.Instr{Op: isa.OpSethi, Rd: i, Imm: int32(i) * 0x1234})
	}
	loopHead := len(prog)
	for i := 0; i+4 <= len(data) && i < 32*4; i += 4 {
		prog = append(prog, fuzzGadget(data[i], data[i+1], data[i+2], data[i+3])...)
	}
	prog = append(prog,
		aluImm(isa.OpSubCC, 7, 7, 1), // %g7--
		isa.Instr{Op: isa.OpBicc, Cond: isa.CondNE, // bne loopHead
			Disp: int32(loopHead) - int32(len(prog)+1)},
		nop(), // delay slot
		halt())
	return prog
}

// fuzzResult is everything the three execution paths must agree on.
type fuzzResult struct {
	stats  string
	icc    isa.ICC
	y      uint32
	regs   [32]uint32
	sbHits uint64
}

func fuzzRun(t *testing.T, prog []isa.Instr, mode string) fuzzResult {
	t.Helper()
	c := buildCore(t, config.Default(), prog)
	switch mode {
	case "step":
		for !c.Halted() {
			if err := c.Step(); err != nil {
				t.Fatalf("step: %v (pc=%#x)", err, c.PC())
			}
		}
	case "fast":
		if err := c.Run(1 << 22); err != nil {
			t.Fatalf("fast run: %v (pc=%#x)", err, c.PC())
		}
	case "superblock":
		c.EnableSuperblocks(2)
		if err := c.Run(1 << 22); err != nil {
			t.Fatalf("superblock run: %v (pc=%#x)", err, c.PC())
		}
	}
	var res fuzzResult
	res.stats = statsString(c)
	res.icc = c.ICC()
	res.y = c.Y()
	for r := uint8(0); r < 32; r++ {
		res.regs[r] = c.Reg(r)
	}
	res.sbHits = c.SuperblockStats().Hits
	return res
}

// statsString flattens every counter the paths must agree on into one
// comparable, readable string.
func statsString(c *cpu.Core) string {
	return fmt.Sprintf("stats=%+v icache=%+v dcache=%+v",
		c.Stats(), c.ICacheStats(), c.DCacheStats())
}

// FuzzSuperblockDifferential feeds arbitrary bytes through the gadget
// decoder and demands the Step interpreter, the generic fast loop and the
// superblock executor agree on every architectural register, the
// condition codes, Y, and every cycle and cache counter. The loop harness
// guarantees the superblock compiler actually engages (threshold 2, 24
// trips), so the fuzzer explores block shapes — interior faults, line
// crossings, annulled slots, interlocks — no hand-written case list
// would.
func FuzzSuperblockDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 24, 5, 6, 7, 12, 9, 10, 11})
	f.Add([]byte{20, 0, 17, 200, 24, 13, 16, 40, 8, 7, 31, 9, 16, 22, 5, 250})
	f.Add([]byte{24, 24, 24, 24, 24, 24, 24, 24})                      // branch storm
	f.Add([]byte{12, 1, 0, 4, 16, 2, 0, 8, 12, 3, 1, 16, 20, 4, 2, 0}) // memory traffic
	f.Fuzz(func(t *testing.T, data []byte) {
		prog := fuzzProgram(data)
		step := fuzzRun(t, prog, "step")
		fast := fuzzRun(t, prog, "fast")
		sb := fuzzRun(t, prog, "superblock")
		if fast.stats != step.stats || fast.icc != step.icc || fast.y != step.y || fast.regs != step.regs {
			t.Fatalf("fast loop diverged from Step:\nstep: %+v\nfast: %+v", step, fast)
		}
		if sb.stats != step.stats || sb.icc != step.icc || sb.y != step.y || sb.regs != step.regs {
			t.Fatalf("superblock executor diverged from Step:\nstep: %+v\nsb:   %+v", step, sb)
		}
	})
}
