package core

import (
	"testing"
	"time"
)

// drawJitter replays the first n jitter draws of a path constructed
// from (seed, id), exactly as newEvPath seeds it.
func drawJitter(seed int64, id, n int, bound int64) []int64 {
	rng := pathRNG(seed, id)
	out := make([]int64, n)
	for i := range out {
		out[i] = splitmixDraw(&rng, bound)
	}
	return out
}

// TestBackoffJitterDeterministicPerSeed: the jitter stream is a pure
// function of (session seed, path id) — the property every fleet
// byte-identity guarantee leans on.
func TestBackoffJitterDeterministicPerSeed(t *testing.T) {
	const bound = int64(time.Second)
	a := drawJitter(42, 0, 64, bound)
	b := drawJitter(42, 0, 64, bound)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical (seed, id): %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= bound {
			t.Fatalf("draw %d = %d outside [0, %d)", i, a[i], bound)
		}
	}
}

// TestBackoffJitterDecorrelated is the retry-storm regression test: if
// sessions (or the two paths of one session) shared a jitter stream,
// a correlated fault — a replica kill failing hundreds of paths at one
// virtual instant — would march every retry back in lockstep,
// re-creating the stampede the jitter exists to break. Distinct seeds
// and distinct path ids must produce distinct streams.
func TestBackoffJitterDecorrelated(t *testing.T) {
	const bound = int64(time.Second)
	same := func(a, b []int64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	base := drawJitter(1, 0, 64, bound)
	if same(base, drawJitter(2, 0, 64, bound)) {
		t.Error("sessions with different seeds drew identical jitter streams")
	}
	if same(base, drawJitter(1, 1, 64, bound)) {
		t.Error("the two paths of one session drew identical jitter streams")
	}
	// Zero is a valid seed, not a degenerate stream.
	zero := drawJitter(0, 0, 64, bound)
	allEqual := true
	for _, v := range zero[1:] {
		if v != zero[0] {
			allEqual = false
			break
		}
	}
	if allEqual {
		t.Error("seed 0 produced a constant jitter stream")
	}
}

// TestBackoffJitterBounds: non-positive bounds must not panic or draw.
func TestBackoffJitterBounds(t *testing.T) {
	rng := uint64(7)
	before := rng
	if got := splitmixDraw(&rng, 0); got != 0 {
		t.Errorf("jitter(0) = %d, want 0", got)
	}
	if got := splitmixDraw(&rng, -5); got != 0 {
		t.Errorf("jitter(-5) = %d, want 0", got)
	}
	if rng != before {
		t.Error("jitter with non-positive bound consumed RNG state")
	}
}
