package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// FuzzWeightSweep: the -sweep-weights parser either rejects its input
// or returns weightings whose every weight is finite. It never panics.
func FuzzWeightSweep(f *testing.F) {
	for _, s := range []string{
		"", "100:1", "100:1,1:100", "1:1:100", " 50 : 1 ,10:1:0",
		"NaN:1", "1:+Inf", "-Inf:1:1", "1e309:1", "0x1p-2:1", "1:2:3:4", ",", "1:",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ws, err := parseWeightSweep(s)
		if err != nil {
			return
		}
		for _, w := range ws {
			for _, v := range []float64{w.W1, w.W2, w.W3} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%q parsed to a non-finite weighting %+v", s, w)
				}
			}
		}
	})
}

// TestNonFiniteWeightsRejectedUpFront: a NaN or infinite weight, in a
// sweep or in -w1/-w2, is a usage error reported before any model is
// built (the measurement progress line never appears).
func TestNonFiniteWeightsRejectedUpFront(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep-weights", "NaN:1"},
		{"-sweep-weights", "100:1,1:Inf"},
		{"-w1", "NaN"},
		{"-w2", "-Inf"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(context.Background(),
			append([]string{"-app", "arith", "-scale", "tiny", "-space", "dcache"}, args...),
			&stdout, &stderr)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2 (stderr %q)", args, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "not finite") {
			t.Errorf("%v: stderr %q does not name the non-finite weight", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: the tool ran: %q", args, stdout.String())
		}
	}
}
