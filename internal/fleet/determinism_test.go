package fleet

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runBuiltin runs a builtin scenario and returns its report.
func runBuiltin(t *testing.T, name string, sessions int, seed int64) *Report {
	t.Helper()
	sc, err := Builtin(name, sessions, seed)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// diffReports fails the test with the first differing lines of two
// reports that were expected to be byte-identical.
func diffReports(t *testing.T, label, want, got string) {
	t.Helper()
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Errorf("%s: line %d differs\n  want: %s\n  got:  %s", label, i+1, wl[i], gl[i])
			return
		}
	}
	t.Errorf("%s: reports differ in length (%d vs %d lines)", label, len(wl), len(gl))
}

// TestBuiltinDeterminismMatrix is the whole-catalog fence: every
// builtin scenario, run twice with the same seed, must render
// byte-identical reports, and the report must pass the structural
// invariant checker (every session terminal, books settled and
// balanced, every windowed fault recovered). It covers every
// behavioural regime — pre-buffer-only crowds, full plays with
// steady-state gate cycles, edge tiers, fault plans, mid-session link
// events and mixed-scheduler cohorts — on any core count, with or
// without -race.
func TestBuiltinDeterminismMatrix(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sessions int
	}{
		{"flashcrowd", 24},
		{"densecrowd", 100},
		{"megacrowd", 500},
		{"coldedge", 40},
		{"edgemesh", 40},
		{"originstorm", 24},
		{"edgeflap", 24},
		// chaosfleet exercises the full resilience surface at once:
		// breakers, hedges, partitions, loss storms and flapping from a
		// seeded randomized plan.
		{"chaosfleet", 16},
		{"ramp", 30},
		{"wifiwave", 30},
		{"abtest", 30},
	} {
		a := runBuiltin(t, tc.name, tc.sessions, 7)
		b := runBuiltin(t, tc.name, tc.sessions, 7)
		if as, bs := a.String(), b.String(); as != bs {
			diffReports(t, tc.name+" double-run", as, bs)
			continue
		}
		if err := CheckInvariants(a); err != nil {
			t.Errorf("%s: invariants violated: %v", tc.name, err)
		}
	}
}

// TestEventedDeterministic is the scale smoke for the event-loop
// session engine: a 2000-session megacrowd run twice with the same seed
// must render byte-identical reports. CI runs this under -race, where
// the double run also shakes out loop-confinement violations.
func TestEventedDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-session double run in -short mode")
	}
	a := runBuiltin(t, "megacrowd", 2000, 59).String()
	b := runBuiltin(t, "megacrowd", 2000, 59).String()
	if a != b {
		t.Fatalf("same-seed evented megacrowd reports differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
}

// TestEventedGoroutineCeiling asserts the point of the event-loop
// session engine: a 2000-session fleet must run on a goroutine count
// bounded by a small constant — O(cores + servers), independent of the
// session count. A wall-clock sampler records the peak goroutine count
// over the whole run (spawn ramp, steady state and teardown alike); a
// goroutine-per-path engine would peak in the thousands.
func TestEventedGoroutineCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("2000-session run in -short mode")
	}
	var peak atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond): //detlint:allow wallclock -- goroutine-count sampler polls in real time, outside the emulation
			}
		}
	}()
	runBuiltin(t, "megacrowd", 2000, 7)
	close(stop)
	<-done
	const ceiling = 64
	if p := peak.Load(); p > ceiling {
		t.Fatalf("2000-session evented fleet peaked at %d goroutines, want <= %d", p, ceiling)
	} else {
		t.Logf("2000-session evented fleet peaked at %d goroutines", p)
	}
}
