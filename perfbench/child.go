package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/edge"
	"repro/internal/fleet"
	"repro/internal/netem/trace"
)

// childResult is what one child process reports to the driver: one
// fleet.Run of one workload, checked, with its simulated QoE and, when
// traced, its per-layer figures. Host cost (CPU, peak RSS) is taken by
// the driver from the child's rusage.
type childResult struct {
	Sessions   int                `json:"sessions"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations,omitempty"`
	Digest     string             `json:"digest"`
	WallS      float64            `json:"wall_s"`
	SetupS     []float64          `json:"setup_s"`
	Prebuffers int                `json:"prebuffers"`
	Metrics    map[string]float64 `json:"metrics"`
	GoMaxProcs int                `json:"gomaxprocs"`
}

// setupReps is how many times each child deploys its workload's world
// for the setup_s samples.
const setupReps = 10

// runChild runs one workload once in this process.
func runChild(name string, seed int64, traced bool) (*childResult, error) {
	res := &childResult{
		Metrics:    map[string]float64{},
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	var tbMS, edgeMS []float64
	for i := 0; i < setupReps; i++ {
		s, err := setup(name, seed)
		if err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, s.total.Seconds())
		tbMS = append(tbMS, ms(s.testbed))
		edgeMS = append(edgeMS, ms(s.edges))
	}
	sc, err := buildWorkload(name, seed)
	if err != nil {
		return nil, err
	}
	res.Sessions = sc.TotalSessions()

	var tr *tracer
	if traced {
		tr = newTracer(&sc)
		if err := tr.start(); err != nil {
			return nil, err
		}
	}
	t0 := time.Now()
	rep, err := fleet.Run(context.Background(), sc)
	res.WallS = time.Since(t0).Seconds()
	if tr != nil {
		tr.stop()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: fleet.Run: %w", name, err)
	}

	t1 := time.Now()
	text := rep.String()
	invErr := fleet.CheckInvariants(rep)
	reportMS := ms(time.Since(t1))

	sum := sha256.Sum256([]byte(text))
	res.Digest = hex.EncodeToString(sum[:])
	if invErr != nil {
		res.Violations = append(res.Violations, invErr.Error())
	}
	if !rep.LoadsSettled {
		res.Violations = append(res.Violations, "origin books did not settle")
	}
	for _, cohort := range rep.Results {
		for _, r := range cohort {
			if r.Err != nil || r.Metrics == nil || !r.Metrics.PreBufferDone {
				res.Failed++
			}
		}
	}
	if res.Failed > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d of %d sessions errored or did not finish", res.Failed, res.Sessions))
	}

	agg := &rep.Fleet
	res.Prebuffers = agg.PreBuffered
	n := float64(res.Sessions)
	m := res.Metrics
	m["prebuffer_p50_s"] = agg.PreBuffer.Quantile(0.50)
	m["prebuffer_p95_s"] = agg.PreBuffer.Quantile(0.95)
	m["goodput_mbps"] = agg.Goodput.Mean()
	m["stall_ratio"] = agg.StallRate()
	m["failed_ratio"] = float64(res.Failed) / n
	m["outage_s"] = rep.FaultStallSeconds()
	if tr == nil {
		return res, nil
	}

	// Books: exact counts from the report.
	var chunks, requests int
	for _, cohort := range rep.Results {
		for _, r := range cohort {
			if r.Metrics == nil {
				continue
			}
			for _, p := range r.Metrics.Paths {
				chunks += p.Chunks
				requests += p.Requests
			}
		}
	}
	m["core.requests_per_session"] = float64(requests) / n
	m["core.chunks_per_session"] = float64(chunks) / n
	m["core.refills"] = float64(agg.Refills)
	m["core.failovers"] = float64(agg.Failovers)
	m["core.timeouts"] = float64(agg.Timeouts)
	m["core.breaker_opens"] = float64(agg.BreakerOpens)
	m["core.half_open_probes"] = float64(agg.HalfOpenProbes)
	m["core.hedges"] = float64(agg.Hedges)
	m["core.hedge_win_ratio"] = ratio(float64(agg.HedgesWon), float64(agg.Hedges))
	m["core.hedge_waste_ratio"] = ratio(float64(agg.HedgeWastedBytes), float64(agg.TotalBytes))
	var oReqs, oBytes, oAborted int64
	for _, l := range rep.Loads {
		oReqs += l.Total
		oBytes += l.Bytes
		oAborted += l.Aborted
	}
	m["origin.requests_per_session"] = float64(oReqs) / n
	m["origin.mb_per_session"] = float64(oBytes) / 1e6 / n
	m["origin.aborted_ratio"] = ratio(float64(oAborted), float64(oReqs))
	var hits, lookups, fills, evictions, backhaul, served int64
	for _, e := range rep.Edges {
		hits += e.Hits
		lookups += e.Hits + e.Misses
		fills += e.Fills
		evictions += e.Evictions
		backhaul += e.BackhaulBytes
		served += e.ServedBytes
	}
	m["edge.hit_ratio"] = ratio(float64(hits), float64(lookups))
	m["edge.fills"] = float64(fills)
	m["edge.evictions"] = float64(evictions)
	m["edge.backhaul_ratio"] = ratio(float64(backhaul), float64(served))

	m["msplayer.deploy_ms"] = median(tbMS)
	m["edge.deploy_ms"] = median(edgeMS)
	m["fleet.report_ms"] = reportMS
	if err := tr.finish(m, n); err != nil {
		return nil, err
	}
	return res, nil
}

type setupTimes struct{ total, testbed, edges time.Duration }

// setup times what a user pays before a run: building the scenario and
// deploying its world through the public constructors (the testbed,
// then each edge of the tier the way fleet.Run wires it), then tears
// the world down again.
func setup(name string, seed int64) (setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	sc, err := buildWorkload(name, seed)
	if err != nil {
		return st, err
	}
	p := *sc.Profile
	p.EventLoop = true
	t1 := time.Now()
	tb, err := msplayer.NewTestbed(p)
	if err != nil {
		return st, fmt.Errorf("%s: deploy testbed: %w", name, err)
	}
	defer tb.Close()
	st.testbed = time.Since(t1)
	if sc.EdgeTier != nil {
		t2 := time.Now()
		cluster := tb.Cluster()
		for ei, es := range sc.EdgeTier.Edges {
			var nets []edge.Network
			for _, nw := range []string{"wifi", "lte"} {
				ups := cluster.VideoServerAddrs(nw)
				nets = append(nets, edge.Network{Name: nw, Upstream: ups[ei%len(ups)]})
			}
			e, err := edge.Deploy(tb.Network(), edge.Config{
				Name:       fmt.Sprintf("edge%d", ei+1),
				Networks:   nets,
				ByteBudget: es.ByteBudget,
				PageSize:   es.PageSize,
				Policy:     es.Policy,
				Stampede:   es.Stampede,
				Catalog:    cluster.Catalog(),
				Secret:     cluster.Secret(),
				TokenTTL:   cluster.TokenTTL(),
				Handshake:  p.Handshake,
				Backhaul:   edge.Backhaul{RateMbps: sc.EdgeTier.BackhaulMbps, Delay: sc.EdgeTier.BackhaulDelay},
			})
			if err != nil {
				return st, fmt.Errorf("%s: deploy edge%d: %w", name, ei+1, err)
			}
			defer e.Close()
		}
		st.edges = time.Since(t2)
	}
	st.total = time.Since(t0)
	return st, nil
}

// tracer instruments one traced run from outside the program: a
// pass-through wrapper on every varying link's rate profile, runtime
// counters around fleet.Run, a goroutine-count sampler and a CPU
// profile.
type tracer struct {
	calls, ns atomic.Int64

	before, after []metrics.Sample
	baseG, peakG  int
	stopSampler   chan struct{}
	samplerDone   sync.WaitGroup
	profile       bytes.Buffer
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// newTracer installs the rate-call counter on the scenario's cohorts.
// Only links with lognormal variation get it: a steady link's profile
// is netem's constant-rate closure, which does no lookup work.
func newTracer(sc *fleet.Scenario) *tracer {
	tr := &tracer{}
	for i := range sc.Cohorts {
		co := &sc.Cohorts[i]
		co.WiFi = tr.wrap(co.WiFi, sc.Profile.WiFi)
		co.LTE = tr.wrap(co.LTE, sc.Profile.LTE)
	}
	return tr
}

func (tr *tracer) wrap(lp *msplayer.LinkProfile, base msplayer.LinkProfile) *msplayer.LinkProfile {
	if lp == nil {
		lp = &base
	}
	if lp.Sigma == 0 {
		return lp
	}
	inner := lp.Shape
	w := *lp
	w.Shape = func(r trace.Rate) trace.Rate {
		if inner != nil {
			r = inner(r)
		}
		return trace.RateFunc(func(t time.Time) float64 {
			t0 := time.Now()
			v := r.RateAt(t)
			tr.ns.Add(int64(time.Since(t0)))
			tr.calls.Add(1)
			return v
		})
	}
	return &w
}

func (tr *tracer) start() error {
	if err := pprof.StartCPUProfile(&tr.profile); err != nil {
		return err
	}
	tr.stopSampler = make(chan struct{})
	tr.samplerDone.Add(1)
	go func() {
		defer tr.samplerDone.Done()
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tr.stopSampler:
				return
			case <-tick.C:
				if g := runtime.NumGoroutine(); g > tr.peakG {
					tr.peakG = g
				}
			}
		}
	}()
	// Counted after the profiler and the sampler started, so the peak
	// counts only the goroutines the run itself adds.
	tr.baseG = runtime.NumGoroutine()
	tr.before = readMetrics()
	return nil
}

func (tr *tracer) stop() {
	pprof.StopCPUProfile()
	tr.after = readMetrics()
	close(tr.stopSampler)
	tr.samplerDone.Wait()
}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// delta is the change of the named runtime metric across the run.
func (tr *tracer) delta(name string) float64 {
	for i, s := range tr.before {
		if s.Name != name {
			continue
		}
		a, b := s.Value, tr.after[i].Value
		if a.Kind() == metrics.KindUint64 {
			return float64(b.Uint64() - a.Uint64())
		}
		return b.Float64() - a.Float64()
	}
	panic("perfbench: runtime metric " + name + " is not read")
}

// finish adds the traced figures to m; n is the session count.
func (tr *tracer) finish(m map[string]float64, n float64) error {
	calls := float64(tr.calls.Load())
	m["trace.rate_calls_per_session"] = calls / n
	m["trace.ns_per_rate_call"] = ratio(float64(tr.ns.Load()), calls)
	m["go.allocs_per_session"] = tr.delta("/gc/heap/allocs:objects") / n
	m["go.alloc_kb_per_session"] = tr.delta("/gc/heap/allocs:bytes") / 1024 / n
	m["go.gc_cycles"] = tr.delta("/gc/cycles/total:gc-cycles")
	m["go.gc_cpu_share"] = ratio(tr.delta("/cpu/classes/gc/total:cpu-seconds"), tr.delta("/cpu/classes/total:cpu-seconds"))
	m["go.peak_goroutines"] = float64(max(tr.peakG-tr.baseG, 0))

	prof, err := parseCPUProfile(tr.profile.Bytes())
	if err != nil {
		return err
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	lm, err := newLayerMap(root)
	if err != nil {
		return err
	}
	byLayer, err := lm.attribute(prof)
	if err != nil {
		return err
	}
	var sum int64
	for _, l := range layers {
		sum += byLayer[l]
		m[l+".self_ms_per_session"] = float64(byLayer[l]) / 1e6 / n
	}
	if sum != prof.total() {
		return fmt.Errorf("layer times sum to %d ns, profile total is %d ns", sum, prof.total())
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile interpolates linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
