package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// repoRoot is the repository root, seen from this package's directory.
const repoRoot = ".."

// notRuntime are the directories whose code the benchmark never runs:
// commands, examples, the lint tool and the old experiment harness.
var notRuntime = []string{"cmd", "examples", "internal/detlint", "internal/bench", "perfbench"}

// TestLayerMapCoversRuntimePackages checks that every non-test Go file
// of the program's runtime packages belongs to a layer, so a new file
// cannot fall into an unattributed bucket.
func TestLayerMapCoversRuntimePackages(t *testing.T) {
	lm, err := newLayerMap(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var files int
	err = filepath.WalkDir(repoRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			for _, skip := range notRuntime {
				if rel == skip {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		files++
		if lm.layerOf(rel, 1) == "" {
			t.Errorf("%s belongs to no layer", rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 40 {
		t.Fatalf("walked only %d runtime files; is %s the repository root?", files, repoRoot)
	}
	// The clock layer owns clock.go, wheel.go and the Loop in event.go;
	// the rest of event.go is pipe plumbing.
	for _, c := range []struct {
		file string
		line int64
		want string
	}{
		{"internal/netem/clock.go", 1, layerClock},
		{"internal/netem/wheel.go", 1, layerClock},
		{loopFile, lm.loopLines[0][0], layerClock},
		{loopFile, 1, "netem.pipe"},
		{"internal/netem/trace/trace.go", 1, "trace"},
		{"internal/core/estimator/estimator.go", 1, "core"},
		{"internal/origin/dnsx/dnsx.go", 1, "origin"},
		{"testbed.go", 1, "msplayer"},
	} {
		if got := lm.layerOf(c.file, c.line); got != c.want {
			t.Errorf("layerOf(%s:%d) = %q, want %q", c.file, c.line, got, c.want)
		}
	}
}

// TestLayerTimesSumToProfileTotal profiles a small fleet run and checks
// that the attributed layer times, go.runtime included, add up to the
// profile's total samples, and that the program's layers got some.
func TestLayerTimesSumToProfileTotal(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles a fleet run")
	}
	lm, err := newLayerMap(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	sc := flashHD(1)
	sc.Engine = fleet.EngineEventLoop
	sc.Cohorts[0].Sessions = 100
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := fleet.Run(context.Background(), sc)
	pprof.StopCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := fleet.CheckInvariants(rep); err != nil {
		t.Fatal(err)
	}
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer, err := lm.attribute(prof)
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for l, ns := range byLayer {
		found := false
		for _, known := range layers {
			found = found || l == known
		}
		if !found {
			t.Errorf("attribution produced unknown layer %q", l)
		}
		sum += ns
	}
	if total := prof.total(); sum != total || total == 0 {
		t.Fatalf("layer times sum to %d ns, profile total is %d ns", sum, total)
	}
	if byLayer["netem.pipe"] == 0 || byLayer["httpx"] == 0 {
		t.Errorf("no samples in netem.pipe or httpx: %v", byLayer)
	}
}

// TestBenchmarkDefinitionMatchesMetrics checks BENCHMARK.json against
// the metrics and workloads the benchmark reports.
func TestBenchmarkDefinitionMatchesMetrics(t *testing.T) {
	d, err := readBenchDef(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, names, units, betters []string) {
		if len(got) != len(names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(names), len(got))
			return
		}
		for i, m := range got {
			if m.name != names[i] || m.unit != units[i] || m.better != betters[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the benchmark %s/%s/%s",
					kind, i, names[i], units[i], betters[i], m.name, m.unit, m.better)
			}
		}
	}
	var n, u, b []string
	for _, m := range d.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("end_to_end", e2eMetrics, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range d.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", layerMetrics, n, u, b)
	var ws []string
	for _, w := range d.Workloads {
		ws = append(ws, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not built by the benchmark", w.Name)
		}
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v, the benchmark builds %v", ws, workloadNames())
	}
}
