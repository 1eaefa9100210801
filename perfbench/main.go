// Command perfbench is the repository's benchmark: it runs one of four
// fleet workloads, each built here from a seed, on the event-loop
// engine, checks every run's simulated output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) by
// name with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// Every measured run is its own child process, run one at a time, so
// CPU time and peak RSS come from the child's rusage. See README.md.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload flash_hd --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh compare base.jsonl new.jsonl
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

const (
	gogc = 400 // the GC target cmd/fleet runs with
	// minRuns untraced children are made even when --seconds is short.
	minRuns = 3
	// runBudget stops starting untraced runs, and childTimeout kills a
	// hung child, so that an invocation ends within three minutes
	// whatever --seconds says: a run takes a few seconds.
	runBudget    = 60 * time.Second
	childTimeout = 45 * time.Second
	buildDir     = ".bench_build"
)

// metric describes one reported figure.
type metric struct {
	name, unit, better string
	host               bool // host cost: comparable only within one machine class
}

// e2eMetrics are printed by an untraced invocation, in this order.
var e2eMetrics = []metric{
	{"sessions_per_s", "1/s", "higher", true},
	{"cpu_ms_per_session", "ms", "lower", true},
	{"peak_rss_mb", "MB", "lower", true},
	{"setup_s", "s", "lower", true},
	{"prebuffer_p50_s", "s", "lower", false},
	{"prebuffer_p95_s", "s", "lower", false},
	{"goodput_mbps", "Mb/s", "higher", false},
}

// layerMetrics are printed by a traced invocation, in this order.
var layerMetrics = func() []metric {
	var ms []metric
	add := func(name, unit, better string) {
		ms = append(ms, metric{name: name, unit: unit, better: better})
	}
	for _, l := range layers {
		add(l+".self_ms_per_session", "ms", "lower")
	}
	add("trace.rate_calls_per_session", "count", "lower")
	add("trace.ns_per_rate_call", "ns", "lower")
	add("msplayer.deploy_ms", "ms", "lower")
	add("edge.deploy_ms", "ms", "lower")
	add("fleet.report_ms", "ms", "lower")
	for _, n := range []string{"requests_per_session", "chunks_per_session", "refills",
		"failovers", "timeouts", "breaker_opens", "half_open_probes", "hedges"} {
		add("core."+n, "count", "lower")
	}
	add("core.hedge_win_ratio", "ratio", "higher")
	add("core.hedge_waste_ratio", "ratio", "lower")
	add("origin.requests_per_session", "count", "lower")
	add("origin.mb_per_session", "MB", "lower")
	add("origin.aborted_ratio", "ratio", "lower")
	add("edge.hit_ratio", "ratio", "higher")
	add("edge.fills", "count", "lower")
	add("edge.evictions", "count", "lower")
	add("edge.backhaul_ratio", "ratio", "lower")
	add("go.allocs_per_session", "count", "lower")
	add("go.alloc_kb_per_session", "KiB", "lower")
	add("go.gc_cycles", "count", "lower")
	add("go.gc_cpu_share", "ratio", "lower")
	add("go.peak_goroutines", "count", "lower")
	add("bench.tracing_overhead", "ratio", "lower")
	add("bench.reference_ms", "ms", "lower")
	// Simulated QoE figures that are zero on most workloads (no full
	// plays stall, the gate admits no failed session, and only faults
	// make outage), so they cannot carry an end-to-end bound.
	add("stall_ratio", "ratio", "lower")
	add("failed_ratio", "ratio", "lower")
	add("outage_s", "s", "lower")
	return ms
}()

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(driverMain(os.Args[1:]))
}

func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	traced := fs.Bool("trace", false, "make the traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runChild(*name, *seed, *traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// run is one child's outcome as the driver sees it.
type run struct {
	res    *childResult
	cpuS   float64 // user+sys CPU seconds of the child
	rssMB  float64 // peak resident set of the child
	traced bool
}

// stamp identifies the machine class a result was measured on.
type stamp struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOGC       int    `json:"gogc"`
	Arch       string `json:"arch"`
}

// record is one invocation's result as --out appends it.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Stamp    stamp              `json:"stamp"`
	Digest   string             `json:"digest"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
}

// output is the last line of standard output.
type output struct {
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: crowd_sd, edge_churn, flash_hd or origin_storm")
	seed := fs.Int64("seed", 1, "workload seed; README.md names the held-out seed")
	seconds := fs.Int("seconds", 25, "how long to measure untraced runs")
	traceFlag := fs.Int("trace", 0, "1: after the untraced runs, make one traced run and print the per-layer metrics")
	out := fs.String("out", "", "append this invocation's record (with its machine stamp) to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		return 2
	}
	traced := *traceFlag == 1
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	st := stamp{NProc: runtime.NumCPU(), GoMaxProcs: min(runtime.NumCPU(), 2), GoVersion: runtime.Version(),
		GOGC: gogc, Arch: runtime.GOOS + "/" + runtime.GOARCH}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%v\n", *name, *seed, *seconds, traced)

	var runs []run
	var refs []float64 // referenceWork's time before each untraced run
	start := time.Now()
	measure := time.Duration(*seconds) * time.Second
	for len(runs) < minRuns || time.Since(start) < measure {
		if time.Since(start) > runBudget {
			break
		}
		refs = append(refs, referenceWork().Seconds())
		r, err := spawn(exe, *name, *seed, false, st.GoMaxProcs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		runs = append(runs, r)
	}
	if traced {
		r, err := spawn(exe, *name, *seed, true, st.GoMaxProcs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		runs = append(runs, r)
	}

	// The correctness gate.
	var problems []string
	attempted, failed := 0, 0
	digest := runs[0].res.Digest
	for i, r := range runs {
		attempted += r.res.Sessions
		failed += r.res.Failed
		for _, v := range r.res.Violations {
			problems = append(problems, fmt.Sprintf("run %d: %s", i+1, v))
		}
		if r.res.Digest != digest {
			problems = append(problems, fmt.Sprintf("run %d (traced=%v): report digest %.12s differs from run 1's %.12s",
				i+1, r.traced, r.res.Digest, digest))
		}
		if r.res.GoMaxProcs != st.GoMaxProcs {
			problems = append(problems, fmt.Sprintf("run %d: GOMAXPROCS %d, want %d", i+1, r.res.GoMaxProcs, st.GoMaxProcs))
		}
	}
	if p := checkSeenDigest(exe, *name, *seed, digest); p != "" {
		problems = append(problems, p)
	}

	untraced := runs
	if traced {
		untraced = runs[:len(runs)-1]
	}
	var rate, cpu, rss, setups, walls []float64
	for _, r := range untraced {
		n := float64(r.res.Sessions)
		rate = append(rate, n/r.res.WallS)
		cpu = append(cpu, r.cpuS*1000/n)
		rss = append(rss, r.rssMB)
		setups = append(setups, r.res.SetupS...)
		walls = append(walls, r.res.WallS)
	}
	// Host times are reported at the reference machine's speed: slow,
	// the machine took scale times the nominal reference time.
	scale := median(refs) / refNominal.Seconds()
	first := untraced[0].res
	values := map[string]float64{}
	var list []metric
	if traced {
		list = layerMetrics
		for k, v := range runs[len(runs)-1].res.Metrics {
			values[k] = v
		}
		values["bench.tracing_overhead"] = runs[len(runs)-1].res.WallS / median(walls)
		values["bench.reference_ms"] = median(refs) * 1000
	} else {
		list = e2eMetrics
		values["sessions_per_s"] = median(rate) * scale
		values["cpu_ms_per_session"] = median(cpu) / scale
		values["peak_rss_mb"] = median(rss)
		values["setup_s"] = median(setups) / scale
		for _, k := range []string{"prebuffer_p50_s", "prebuffer_p95_s", "goodput_mbps"} {
			values[k] = first.Metrics[k]
		}
	}

	fmt.Printf("stamp: nproc=%d gomaxprocs=%d go=%s gogc=%d arch=%s\n",
		st.NProc, st.GoMaxProcs, st.GoVersion, st.GOGC, st.Arch)
	fmt.Printf("runs: %d untraced (wall %.3fs median, %.3f-%.3fs quartiles)", len(untraced),
		median(walls), quantile(walls, 0.25), quantile(walls, 0.75))
	if traced {
		fmt.Printf(", 1 traced (wall %.3fs)", runs[len(runs)-1].res.WallS)
	}
	fmt.Printf("; %d sessions each\n", first.Sessions)
	fmt.Printf("machine speed: the reference work took %.4fs (median of %d), %.3f times the nominal %.3fs; "+
		"unscaled sessions_per_s %.6g, cpu_ms_per_session %.6g, setup_s %.6g\n",
		median(refs), len(refs), scale, refNominal.Seconds(), median(rate), median(cpu), median(setups))
	fmt.Printf("digest: %s (%s)\n", digest, recordedDigest(*name, *seed, digest))
	if !traced {
		fmt.Printf("samples: sessions_per_s, cpu_ms_per_session and peak_rss_mb over %d runs, setup_s over %d deploys; "+
			"pre-buffer quantiles over %d sessions\n", len(untraced), len(setups), first.Prebuffers)
	}
	res := output{Attempted: attempted, Failed: failed, Metrics: map[string]measured{}}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			problems = append(problems, "metric "+m.name+" was not measured")
		}
		fmt.Printf("  %-34s %14.6g %-6s (%s is better)\n", m.name, v, m.unit, m.better)
		res.Metrics[m.name] = measured{v, m.unit}
	}
	for _, p := range problems {
		fmt.Printf("GATE: %s\n", p)
	}
	res.Correct = len(problems) == 0 && failed == 0
	if *out != "" {
		rec := record{Workload: *name, Seed: *seed, Trace: traced, Stamp: st, Digest: digest,
			Correct: res.Correct, Metrics: values}
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: --out: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// spawn runs one child process to completion and collects its result
// and rusage.
func spawn(exe, name string, seed int64, traced bool, procs int) (run, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	args := []string{"child", "-workload", name, "-seed", strconv.FormatInt(seed, 10)}
	if traced {
		args = append(args, "-trace")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOGC="+strconv.Itoa(gogc), "GOMAXPROCS="+strconv.Itoa(procs))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return run{}, fmt.Errorf("child run of %s (traced=%v): %w", name, traced, err)
	}
	r := run{res: &childResult{}, traced: traced}
	if err := json.Unmarshal(stdout.Bytes(), r.res); err != nil {
		return run{}, fmt.Errorf("child run of %s: bad result: %w", name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return run{}, errors.New("child rusage unavailable on this platform")
	}
	r.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	r.rssMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
	return r, nil
}

// checkSeenDigest enforces the digest gate across invocations: every
// run of one build at one seed, traced or not, must render the same
// report. Digests are remembered per build (a hash of the benchmark
// binary, which links the whole program) under .bench_build.
func checkSeenDigest(exe, name string, seed int64, digest string) string {
	bin, err := os.ReadFile(exe)
	if err != nil {
		return fmt.Sprintf("cannot hash the benchmark binary: %v", err)
	}
	sum := sha256.Sum256(bin)
	key := fmt.Sprintf("%s/%s/%d", hex.EncodeToString(sum[:8]), name, seed)
	path := buildDir + "/seen-digests.json"
	seen := map[string]string{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &seen); err != nil {
			return fmt.Sprintf("%s: %v", path, err)
		}
	}
	if prev, ok := seen[key]; ok {
		if prev != digest {
			return fmt.Sprintf("report digest %.12s differs from %.12s, which an earlier invocation of this build got at this seed",
				digest, prev)
		}
		return ""
	}
	seen[key] = digest
	b, err := json.MarshalIndent(seen, "", "  ")
	if err == nil {
		err = os.MkdirAll(buildDir, 0o755)
	}
	if err == nil {
		err = os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return fmt.Sprintf("cannot remember the digest: %v", err)
	}
	return ""
}

// recordedDigest compares a digest with the one digests.json records
// for the workload and seed. A difference is not a gate failure: it
// says the simulated behaviour changed, which a review must explain.
func recordedDigest(name string, seed int64, digest string) string {
	b, err := os.ReadFile("perfbench/digests.json")
	if err != nil {
		return "no recorded digests"
	}
	var rec map[string]map[string]string
	if err := json.Unmarshal(b, &rec); err != nil {
		return "digests.json: " + err.Error()
	}
	want, ok := rec[name][strconv.FormatInt(seed, 10)]
	switch {
	case !ok:
		return "no recorded digest for this seed"
	case want == digest:
		return "matches the recorded digest"
	default:
		return fmt.Sprintf("DIFFERS from the recorded %.12s: simulated behaviour changed", want)
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords reads a JSON-lines file written by --out.
func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	dec := json.NewDecoder(bytes.NewReader(b))
	for {
		var r record
		if err := dec.Decode(&r); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, nil
}
