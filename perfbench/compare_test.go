package main

import (
	"io"
	"strings"
	"testing"
)

// rec is an untraced flash_hd record at seed with one QoE value.
func rec(seed int64, p95 float64) record {
	return record{Workload: "flash_hd", Seed: seed, Correct: true,
		Stamp:   stamp{NProc: 2, GoMaxProcs: 2, GoVersion: "go1", GOGC: 400, Arch: "linux/amd64"},
		Metrics: map[string]float64{"sessions_per_s": 100, "cpu_ms_per_session": 7, "peak_rss_mb": 300, "setup_s": 0.0002, "prebuffer_p50_s": 8, "prebuffer_p95_s": p95, "goodput_mbps": 12}}
}

var testBounds = map[string]float64{"sessions_per_s": 0.25, "cpu_ms_per_session": 0.25, "peak_rss_mb": 0.2,
	"setup_s": 0.25, "prebuffer_p50_s": 0.15, "prebuffer_p95_s": 0.15, "goodput_mbps": 0.15}

// TestComparePairsSeeds checks that compare refuses unequal seed sets
// and holds a QoE metric to its value at each seed: a 5% worsening at
// one seed fails although it is well within the bound across seeds.
func TestComparePairsSeeds(t *testing.T) {
	base := []record{rec(1, 9), rec(2, 10)}
	for _, tc := range []struct {
		name string
		head []record
		ok   bool
		want string
	}{
		{"same", []record{rec(1, 9), rec(2, 10)}, true, "changed at 0 of 2 seeds"},
		{"better", []record{rec(1, 8.5), rec(2, 10)}, true, "changed at 1 of 2 seeds"},
		{"worse at one seed", []record{rec(1, 9), rec(2, 10.5)}, false, "WORSE at seeds [2]"},
		{"other seeds", []record{rec(1, 9), rec(3, 10)}, false, "refused: the base runs are at seeds [1 2], the new runs at seeds [1 3]"},
		{"missing seed", []record{rec(1, 9)}, false, "refused"},
	} {
		var out strings.Builder
		ok, err := compare(&out, base, tc.head, testBounds)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok || !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: ok=%v, want %v and %q in:\n%s", tc.name, ok, tc.ok, tc.want, out.String())
		}
	}
}

// TestCompareRefusesOtherMachineClass checks that host-cost metrics are
// not compared across machine classes and that the comparison fails.
func TestCompareRefusesOtherMachineClass(t *testing.T) {
	other := rec(1, 9)
	other.Stamp.NProc = 8
	var out strings.Builder
	ok, err := compare(&out, []record{rec(1, 9)}, []record{other}, testBounds)
	if err != nil {
		t.Fatal(err)
	}
	if ok || !strings.Contains(out.String(), "sessions_per_s       refused") {
		t.Errorf("ok=%v, want false and sessions_per_s refused in:\n%s", ok, out.String())
	}
	if _, err := compare(io.Discard, []record{rec(1, 9), other}, nil, testBounds); err == nil {
		t.Error("a side that mixes machine classes was accepted")
	}
}
