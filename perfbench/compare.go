package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareMain compares the untraced records of two --out files, per
// workload and end-to-end metric. Records pair by (workload, seed), and
// a workload whose two sides hold different seed sets is refused: the
// seed moves every metric, so medians over other seeds are not a
// comparison.
//
// Host-cost metrics compare each side's median over all its records
// against the bound BENCHMARK.json fixes, and only when both sides were
// measured on one machine class (the same stamp); otherwise they are
// refused, and the comparison fails. Simulated-QoE metrics compare on
// any machine, seed by seed: they are exact for a given seed, so their
// spread at a fixed seed is zero, and any change that makes one worse at
// any seed fails. (The bound in BENCHMARK.json covers their spread
// across seeds, which is what medians over unpaired seeds see.)
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.jsonl NEW.jsonl")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var sides [2][]record
	for i, path := range args {
		if sides[i], err = readRecords(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 2
		}
	}
	ok, err := compare(os.Stdout, sides[0], sides[1], bounds)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	if !ok {
		return 1
	}
	return 0
}

// compare writes the comparison of base and head to w and reports
// whether every compared metric stays within its bound.
func compare(w io.Writer, base, head []record, bounds map[string]float64) (bool, error) {
	var sides [2]map[string]map[int64][]record
	var stamps [2]*stamp
	for i, recs := range [2][]record{base, head} {
		sides[i] = map[string]map[int64][]record{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if !r.Correct {
				return false, fmt.Errorf("a run of %s at seed %d failed its correctness gate", r.Workload, r.Seed)
			}
			if stamps[i] == nil {
				s := r.Stamp
				stamps[i] = &s
			} else if *stamps[i] != r.Stamp {
				return false, fmt.Errorf("one side mixes machine classes (%+v and %+v)", *stamps[i], r.Stamp)
			}
			if sides[i][r.Workload] == nil {
				sides[i][r.Workload] = map[int64][]record{}
			}
			sides[i][r.Workload][r.Seed] = append(sides[i][r.Workload][r.Seed], r)
		}
	}
	sameClass := stamps[0] != nil && stamps[1] != nil && *stamps[0] == *stamps[1]
	if !sameClass {
		fmt.Fprintf(w, "machine classes differ (%+v vs %+v): host-cost metrics refused\n", deref(stamps[0]), deref(stamps[1]))
	}
	ok := sameClass
	for _, wl := range workloadNames() {
		base, head := sides[0][wl], sides[1][wl]
		if len(base) == 0 || len(head) == 0 {
			continue
		}
		seeds := seedsOf(base)
		if hs := seedsOf(head); !slices.Equal(seeds, hs) {
			fmt.Fprintf(w, "%s refused: the base runs are at seeds %v, the new runs at seeds %v\n", wl, seeds, hs)
			ok = false
			continue
		}
		fmt.Fprintf(w, "%s (seeds %v; %d base runs, %d new runs)\n", wl, seeds, len(flatten(base)), len(flatten(head)))
		for _, m := range e2eMetrics {
			if m.host && !sameClass {
				fmt.Fprintf(w, "  %-20s refused: measured on different machine classes\n", m.name)
				continue
			}
			if m.host {
				b, h := medianOf(flatten(base), m.name), medianOf(flatten(head), m.name)
				change := ratio(h-b, b)
				verdict := "ok"
				if worseBy(m, change) > bounds[m.name] {
					verdict = "WORSE than the bound"
					ok = false
				}
				fmt.Fprintf(w, "  %-20s %12.6g -> %12.6g %-5s %+7.2f%%  (bound %.0f%%) %s\n",
					m.name, b, h, m.unit, 100*change, 100*bounds[m.name], verdict)
				continue
			}
			var worse []int64
			changed := 0
			for _, sd := range seeds {
				b, h := medianOf(base[sd], m.name), medianOf(head[sd], m.name)
				if b != h {
					changed++
				}
				if worseBy(m, h-b) > 0 {
					worse = append(worse, sd)
				}
			}
			verdict := "ok"
			if len(worse) > 0 {
				verdict = fmt.Sprintf("WORSE at seeds %v", worse)
				ok = false
			}
			fmt.Fprintf(w, "  %-20s changed at %d of %d seeds (bound at a fixed seed: 0%%) %s\n",
				m.name, changed, len(seeds), verdict)
		}
	}
	return ok, nil
}

// worseBy is change with its sign set so that positive is worse for m.
func worseBy(m metric, change float64) float64 {
	if m.better == "higher" {
		return -change
	}
	return change
}

func seedsOf(bySeed map[int64][]record) []int64 {
	seeds := make([]int64, 0, len(bySeed))
	for sd := range bySeed {
		seeds = append(seeds, sd)
	}
	slices.Sort(seeds)
	return seeds
}

func flatten(bySeed map[int64][]record) []record {
	var recs []record
	for _, sd := range seedsOf(bySeed) {
		recs = append(recs, bySeed[sd]...)
	}
	return recs
}

func medianOf(recs []record, name string) float64 {
	var xs []float64
	for _, r := range recs {
		xs = append(xs, r.Metrics[name])
	}
	return median(xs)
}

func deref(s *stamp) stamp {
	if s == nil {
		return stamp{}
	}
	return *s
}

// benchDef is the part of BENCHMARK.json the benchmark reads.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchDef(path string) (*benchDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

func readBounds(path string) (map[string]float64, error) {
	d, err := readBenchDef(path)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range d.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}
