package platform_test

import (
	"fmt"
	"strings"
	"testing"

	"liquidarch/internal/asm"
	"liquidarch/internal/config"
	"liquidarch/internal/platform"
)

// Fuzzing the reconfigure-at-boundary path, in the style of the cpu
// package's FuzzSuperblockDifferential: arbitrary fuzz bytes become a
// valid halting program (a counted loop over arithmetic, memory traffic
// and a save/restore call chain of fuzzed depth) plus a fuzzed switch
// schedule over a palette of valid configurations. Whatever the bytes,
// four invariants must hold: the whole-run stats equal the
// concatenation of the per-segment stats, the architectural results
// match a plain single-configuration run (the instruction stream is
// configuration-independent), the replay is deterministic, and a replay
// timed from a recording of the program answers byte for byte the same.

// fuzzReplayProgram renders a halting program from four fuzz bytes:
// loop trip count, arithmetic constants, and the depth of a save/
// restore call chain executed every iteration. Depth reaches past
// seven so the 8-window configurations take overflow/underflow traps
// while the 16-window ones do not — the hardest state for a mid-run
// switch to carry across. Every window register is written before it
// is read, so the digest is architecture-defined on any window count.
func fuzzReplayProgram(a, b, c, d byte) (*asm.Program, error) {
	trips := 8 + int(a)%24
	depth := 1 + int(b)%9
	k1 := 1 + uint32(c)
	k2 := uint32(d) | 1 // odd, nonzero: safe divisor

	var sb strings.Builder
	fmt.Fprintf(&sb, `
        .text
start:
        set     0x40080000, %%g6     ! scratch word, 512 KB into RAM
        clr     %%g1                 ! digest
        mov     %d, %%g7             ! trip count
loop:
        add     %%g1, %d, %%g1
        xor     %%g1, %d, %%g1
        umul    %%g1, %d, %%o5
        add     %%g1, %%o5, %%g1
        wr      %%g0, %%y
        udiv    %%g1, %d, %%o5
        xor     %%g1, %%o5, %%g1
        st      %%g1, [%%g6 + 0]
        ld      [%%g6 + 0], %%o4
        add     %%g1, %%o4, %%g1
        call    sub1
        nop
        subcc   %%g7, 1, %%g7
        bne     loop
        nop
        clr     %%o0
        mov     %%g1, %%o1
        halt
`, trips, k1, k2, k1|1, k2)
	for lvl := 1; lvl <= depth; lvl++ {
		fmt.Fprintf(&sb, "sub%d:\n        save    %%sp, -96, %%sp\n", lvl)
		fmt.Fprintf(&sb, "        mov     %d, %%l1\n", lvl*3+int(k1)%7)
		fmt.Fprintf(&sb, "        xor     %%g1, %%l1, %%g1\n")
		if lvl < depth {
			fmt.Fprintf(&sb, "        call    sub%d\n        nop\n", lvl+1)
			// Read the local back after the nested chain returns: on a
			// small window file it was spilled and refilled meanwhile.
			fmt.Fprintf(&sb, "        add     %%g1, %%l1, %%g1\n")
		}
		fmt.Fprintf(&sb, "        ret\n        restore\n")
	}
	return asm.Assemble(sb.String())
}

// fuzzConfigPalette is the set of valid configurations fuzzed schedules
// draw from; entry 0 is the base.
func fuzzConfigPalette(t *testing.T) []config.Config {
	t.Helper()
	base := config.Default()
	win16 := base
	win16.IU.RegWindows = 16
	dline := base
	dline.DCache.LineWords = 8
	iu := base
	iu.IU.FastJump = !base.IU.FastJump
	iu.IU.ICCHold = !base.IU.ICCHold
	mixed := win16
	mixed.DCache.LineWords = 8
	mixed.IU.LoadDelay = 2
	palette := []config.Config{base, win16, dline, iu, mixed}
	for i, cfg := range palette {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("palette entry %d invalid: %v", i, err)
		}
	}
	return palette
}

func FuzzReplayDifferential(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{7, 8, 3, 9, 1, 2})
	f.Add([]byte{200, 6, 255, 254, 42, 99})
	f.Add([]byte{13, 3, 17, 5, 0xAB, 0xCD, 0x12, 0x34})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 6 {
			t.Skip()
		}
		prog, err := fuzzReplayProgram(data[0], data[1], data[2], data[3])
		if err != nil {
			t.Fatalf("fuzz program failed to assemble: %v", err)
		}
		palette := fuzzConfigPalette(t)

		// Bytes 4.. drive the schedule: each byte is (config, interval
		// count) for one step; the last step runs to completion.
		var steps []platform.ReplayStep
		for _, sb := range data[4:] {
			steps = append(steps, platform.ReplayStep{
				Config:    palette[int(sb)%len(palette)],
				Intervals: 1 + int(sb>>4)%4,
			})
			if len(steps) == 8 {
				break
			}
		}
		steps[len(steps)-1].Intervals = -1
		opts := platform.Options{IntervalInstructions: 300, MaxInstructions: 2_000_000}

		rep, err := replaySchedule(t, prog, steps, opts)
		if err != nil {
			t.Fatalf("ReplaySchedule: %v", err)
		}

		// Concatenation: the per-segment decomposition must tile the
		// whole-run totals exactly.
		st, ic, dc := sumSegments(rep)
		if st != rep.Stats || ic != rep.ICache || dc != rep.DCache {
			t.Fatalf("segment sums diverge from whole-run totals:\nsum   %+v\ntotal %+v", st, rep.Stats)
		}
		if err := rep.Stats.ConsistencyError(); err != nil {
			t.Fatalf("replay profile imbalance: %v", err)
		}

		// Architectural equivalence: any single-configuration run of the
		// same program retires the same stream and digest.
		plain, err := platform.RunWith(prog, palette[0], opts)
		if err != nil {
			t.Fatalf("plain run: %v", err)
		}
		if rep.Stats.Instructions != plain.Stats.Instructions {
			t.Fatalf("replay retired %d instructions, plain run %d", rep.Stats.Instructions, plain.Stats.Instructions)
		}
		if rep.ExitCode != plain.ExitCode || rep.Checksum != plain.Checksum {
			t.Fatalf("replay changed architectural results: exit %d/%d digest %#x/%#x",
				rep.ExitCode, plain.ExitCode, rep.Checksum, plain.Checksum)
		}

		// Determinism: an identical replay reproduces every field.
		again, err := platform.ReplaySchedule(prog, steps, opts)
		if err != nil {
			t.Fatalf("ReplaySchedule (second): %v", err)
		}
		if fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", rep) {
			t.Fatalf("replay not deterministic")
		}
	})
}
