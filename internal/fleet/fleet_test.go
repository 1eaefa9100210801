package fleet

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro"
)

func TestArrivalSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	batch, err := ArrivalSpec{Kind: ArrivalBatch, Start: 3 * time.Second}.times(4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range batch {
		if a != 3*time.Second {
			t.Fatalf("batch arrival = %v", a)
		}
	}
	spread, _ := ArrivalSpec{Kind: ArrivalSpread, Window: 8 * time.Second}.times(4, rng)
	want := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second}
	for i := range want {
		if spread[i] != want[i] {
			t.Fatalf("spread arrivals = %v", spread)
		}
	}
	// Poisson: ascending, deterministic per rng seed.
	p1, _ := ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second}.times(16, rand.New(rand.NewSource(9)))
	p2, _ := ArrivalSpec{Kind: ArrivalPoisson, Window: 2 * time.Second}.times(16, rand.New(rand.NewSource(9)))
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("poisson arrivals not deterministic per seed")
		}
		if i > 0 && p1[i] < p1[i-1] {
			t.Fatal("poisson arrivals not ascending")
		}
	}
	if _, err := (ArrivalSpec{Kind: "bogus"}).times(1, rng); err == nil {
		t.Fatal("unknown arrival kind accepted")
	}
}

func TestScenarioValidation(t *testing.T) {
	if err := (Scenario{Name: "empty"}).validate(); err == nil {
		t.Error("scenario without cohorts validated")
	}
	bad := Scenario{Cohorts: []Cohort{{Name: "c", Sessions: 1, Scheduler: SchedulerSpec{Kind: "nope"}}}}
	if err := bad.validate(); err == nil {
		t.Error("unknown scheduler validated")
	}
	badEv := Scenario{Cohorts: []Cohort{{Name: "c", Sessions: 1,
		Events: []Event{{Kind: EventWiFiDown}}}}}
	if err := badEv.validate(); err == nil {
		t.Error("zero-duration event validated")
	}
	if _, err := Builtin("nosuch", 0, 1); err == nil {
		t.Error("unknown builtin accepted")
	}
	// The goroutine session engine is gone; asking for it must fail
	// loudly rather than silently run on the event loop.
	for _, engine := range []string{"goroutine", "bogus"} {
		sc, err := Builtin("flashcrowd", 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc.Engine = engine
		if err := sc.validate(); err == nil {
			t.Errorf("engine %q validated", engine)
		}
		if _, err := Run(context.Background(), sc); err == nil {
			t.Errorf("engine %q ran", engine)
		}
	}
	for _, engine := range []string{"", EngineEventLoop} {
		sc, err := Builtin("flashcrowd", 6, 1)
		if err != nil {
			t.Fatal(err)
		}
		sc.Engine = engine
		if err := sc.validate(); err != nil {
			t.Errorf("engine %q rejected: %v", engine, err)
		}
	}
	for _, n := range BuiltinNames() {
		sc, err := Builtin(n, 0, 1)
		if err != nil {
			t.Errorf("builtin %s: %v", n, err)
		}
		if err := sc.validate(); err != nil {
			t.Errorf("builtin %s invalid: %v", n, err)
		}
		if sc.TotalSessions() <= 0 {
			t.Errorf("builtin %s has no sessions", n)
		}
	}
}

func TestMixDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for ci := int64(0); ci < 8; ci++ {
		for i := int64(0); i < 64; i++ {
			s := mix(1, ci, i)
			if seen[s] {
				t.Fatalf("seed collision at cohort %d session %d", ci, i)
			}
			seen[s] = true
		}
	}
	if mix(1, 0, 0) == mix(2, 0, 0) {
		t.Error("scenario seed does not propagate")
	}
}

// TestRunDeterministic is the subsystem's core guarantee: two runs of
// the same scenario and seed render byte-identical reports, and a
// different seed renders a different (but structurally valid) one.
func TestRunDeterministic(t *testing.T) {
	run := func(seed int64) string {
		sc, err := Builtin("flashcrowd", 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fleet.Errored != 0 {
			t.Fatalf("seed %d: %d sessions errored", seed, rep.Fleet.Errored)
		}
		if rep.Fleet.PreBuffered != 6 {
			t.Fatalf("seed %d: %d/6 sessions pre-buffered", seed, rep.Fleet.PreBuffered)
		}
		return rep.String()
	}
	a, b := run(41), run(41)
	if a != b {
		t.Fatalf("same-seed reports differ:\n--- run 1\n%s--- run 2\n%s", a, b)
	}
	if c := run(42); c == a {
		t.Fatal("different seed produced an identical report")
	}
}

// TestRunMixedCohorts exercises a two-cohort scenario with per-cohort
// schedulers and checks aggregate bookkeeping.
func TestRunMixedCohorts(t *testing.T) {
	sc, err := Builtin("abtest", 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cohorts) != 2 {
		t.Fatalf("cohorts = %d", len(rep.Cohorts))
	}
	if got := rep.Cohorts[0].Agg.Sessions + rep.Cohorts[1].Agg.Sessions; got != rep.Fleet.Sessions {
		t.Errorf("fleet sessions %d != cohort sum %d", rep.Fleet.Sessions, got)
	}
	if rep.Fleet.TotalBytes != rep.Cohorts[0].Agg.TotalBytes+rep.Cohorts[1].Agg.TotalBytes {
		t.Error("fleet bytes != cohort byte sum")
	}
	if f := rep.Fleet.Fairness(); f <= 0 || f > 1 {
		t.Errorf("fairness = %v outside (0,1]", f)
	}
	if rep.Fleet.WiFiShare() <= 0 || rep.Fleet.WiFiShare() >= 1 {
		t.Errorf("wifi share = %v, want interior split", rep.Fleet.WiFiShare())
	}
	// Origin accounting: one watch per path per session at minimum.
	var watch int64
	for _, l := range rep.Loads {
		if l.InFlight != 0 {
			t.Errorf("server %s left %d in flight", l.Addr, l.InFlight)
		}
		if l.Addr[:3] == "www" {
			watch += l.Total
		}
	}
	if watch < int64(2*rep.Fleet.Completed) {
		t.Errorf("watch requests = %d, want >= %d", watch, 2*rep.Fleet.Completed)
	}
}

// TestRunEvents checks that a degradation wave actually degrades: the
// affected cohort must stall or re-buffer more than an unaffected twin.
func TestRunEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("full-play event scenario in -short mode")
	}
	base := Cohort{
		Name:      "c",
		Sessions:  6,
		Paths:     msplayer.BothPaths,
		Scheduler: SchedulerSpec{Kind: "harmonic"},
		Arrival:   ArrivalSpec{Kind: ArrivalSpread, Window: 2 * time.Second},
		Video:     "shortclip01",
		Buffer:    shortPlayBuffer,
	}
	calm := base
	stormy := base
	stormy.Events = []Event{{
		Kind: EventWiFiDegrade, At: 5 * time.Second, Duration: 15 * time.Second,
		Factor: 0.02, Fraction: 1,
	}}
	// Degrade LTE too, so the cohort cannot fully compensate.
	stormy.Events = append(stormy.Events, Event{
		Kind: EventLTEDegrade, At: 5 * time.Second, Duration: 15 * time.Second,
		Factor: 0.05, Fraction: 1,
	})
	run := func(co Cohort) *Report {
		rep, err := Run(context.Background(), Scenario{Name: "ev", Seed: 11, Cohorts: []Cohort{co}})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	calmRep, stormRep := run(calm), run(stormy)
	if calmRep.Fleet.Errored != 0 || stormRep.Fleet.Errored != 0 {
		t.Fatalf("errors: calm %d, storm %d", calmRep.Fleet.Errored, stormRep.Fleet.Errored)
	}
	if stormRep.Fleet.StalledSessions <= calmRep.Fleet.StalledSessions &&
		stormRep.Fleet.Goodput.Mean() >= calmRep.Fleet.Goodput.Mean() {
		t.Errorf("degradation had no effect: calm stalls=%d goodput=%.2f, storm stalls=%d goodput=%.2f",
			calmRep.Fleet.StalledSessions, calmRep.Fleet.Goodput.Mean(),
			stormRep.Fleet.StalledSessions, stormRep.Fleet.Goodput.Mean())
	}
}
