// Package core implements MSPlayer itself: the chunk schedulers of §3.3
// (Ratio, EWMA, Harmonic), the chunk manager that assigns byte ranges to
// paths and reassembles them with at most one out-of-order chunk, the
// ON/OFF playout buffer of §4, and the per-path fetch loops with
// multi-source failover.
package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core/estimator"
)

// Chunk size limits from the paper and engineering guards.
const (
	// MinChunk is the 16 KB floor of Alg. 1's halving step.
	MinChunk = 16 << 10
	// MaxChunk bounds the doubling/ratio growth at 1 MB, the top of the
	// chunk-size range the paper evaluates (Fig. 3 sweeps 16 KB–1 MB;
	// commercial players it measures use 64 KB–4 MB). The cap keeps the
	// single stored out-of-order chunk — the scheduler's memory budget —
	// small, and keeps an unbounded fast-path multiplier from defeating
	// the finish-together goal on wildly asymmetric paths.
	MaxChunk = 1 << 20
	// DefaultBaseChunk is MSPlayer's default initial chunk size; the
	// paper settles on 256 KB after the Fig. 3 sweep.
	DefaultBaseChunk = 256 << 10
	// DefaultDelta is the throughput variation parameter δ of Alg. 1.
	DefaultDelta = 0.05
	// DefaultAlpha is the EWMA weight α evaluated in the paper.
	DefaultAlpha = 0.9
)

// Scheduler decides per-path chunk sizes. Implementations must be safe
// for concurrent use: a session's paths call Observe/Size from event-
// loop steps, which may run on different goroutines.
type Scheduler interface {
	// Name identifies the scheduler in experiment output.
	Name() string
	// Observe records a completed chunk transfer on path i.
	Observe(i int, size int64, d time.Duration)
	// Size returns the chunk size path i should request next.
	Size(i int) int64
}

func clampChunk(s int64) int64 {
	if s < MinChunk {
		return MinChunk
	}
	if s > MaxChunk {
		return MaxChunk
	}
	return s
}

// clampSlowChunk bounds the slow path's adjusted chunk to half of
// MaxChunk. The fast path requests γ ≥ 2 times the slow path's size
// when the bandwidth ratio calls for it; if the slow path were allowed
// to ratchet all the way to MaxChunk, the fast path's multiplier would
// clamp away and both paths would issue identical chunks, defeating the
// finish-together sizing on asymmetric paths.
func clampSlowChunk(s int64) int64 {
	if s < MinChunk {
		return MinChunk
	}
	if s > MaxChunk/2 {
		return MaxChunk / 2
	}
	return s
}

func throughput(size int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(size) / d.Seconds()
}

// RatioScheduler is the paper's baseline: the slower path always
// requests the base size B, the faster path requests
// ⌈w_fast/w_slow⌉·B based on the most recent throughput samples.
type RatioScheduler struct {
	Base int64

	mu   sync.Mutex
	last [2]*estimator.LastSample
}

// NewRatioScheduler returns a Ratio scheduler with base chunk size b.
func NewRatioScheduler(b int64) *RatioScheduler {
	if b <= 0 {
		b = DefaultBaseChunk
	}
	return &RatioScheduler{
		Base: b,
		last: [2]*estimator.LastSample{estimator.NewLastSample(), estimator.NewLastSample()},
	}
}

// Name implements Scheduler.
func (r *RatioScheduler) Name() string { return "ratio" }

// Observe implements Scheduler.
func (r *RatioScheduler) Observe(i int, size int64, d time.Duration) {
	if i < 0 || i > 1 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last[i].Observe(throughput(size, d))
}

// Size implements Scheduler.
func (r *RatioScheduler) Size(i int) int64 {
	if i < 0 || i > 1 {
		return clampChunk(r.Base)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	wi, okI := r.last[i].Estimate()
	wo, okO := r.last[1-i].Estimate()
	if !okI || !okO || wi <= wo {
		// Unknown or slower path: fixed base size.
		return clampChunk(r.Base)
	}
	gamma := math.Ceil(wi / wo)
	return clampChunk(int64(gamma * float64(r.Base)))
}

// DCSAScheduler implements Alg. 1 (dynamic chunk size adjustment) on top
// of a pluggable bandwidth estimator: the slow path doubles its chunk
// when the measured throughput beats the estimate by (1+δ) and halves it
// (16 KB floor) when it falls below (1−δ); the fast path requests
// γ = ⌈ŵ_fast/ŵ_slow⌉ times the slow path's chunk so both transfers
// complete at roughly the same time.
type DCSAScheduler struct {
	name  string
	Base  int64
	Delta float64

	mu   sync.Mutex
	est  [2]estimator.Estimator
	size [2]int64 // current chunk size per path (slow-path state)
}

// NewEWMAScheduler returns a DCSA scheduler driven by the Eq. 1 EWMA
// estimator with weight alpha.
func NewEWMAScheduler(b int64, delta, alpha float64) *DCSAScheduler {
	return newDCSA("ewma", b, delta,
		estimator.NewEWMA(alpha), estimator.NewEWMA(alpha))
}

// NewHarmonicScheduler returns a DCSA scheduler driven by the Eq. 2
// incremental harmonic-mean estimator — MSPlayer's default.
func NewHarmonicScheduler(b int64, delta float64) *DCSAScheduler {
	return newDCSA("harmonic", b, delta,
		estimator.NewHarmonic(), estimator.NewHarmonic())
}

func newDCSA(name string, b int64, delta float64, e0, e1 estimator.Estimator) *DCSAScheduler {
	if b <= 0 {
		b = DefaultBaseChunk
	}
	if delta <= 0 {
		delta = DefaultDelta
	}
	s := &DCSAScheduler{name: name, Base: b, Delta: delta, est: [2]estimator.Estimator{e0, e1}}
	s.size[0], s.size[1] = clampChunk(b), clampChunk(b)
	return s
}

// Name implements Scheduler.
func (s *DCSAScheduler) Name() string { return s.name }

// Observe implements Scheduler: it runs the slow-path branch of Alg. 1
// against the pre-update estimate, then feeds the sample to the
// estimator.
func (s *DCSAScheduler) Observe(i int, size int64, d time.Duration) {
	if i < 0 || i > 1 {
		return
	}
	w := throughput(size, d)
	if w <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wi, okI := s.est[i].Estimate()
	wo, okO := s.est[1-i].Estimate()
	if okI && (!okO || wi < wo) { // slow path (Alg. 1 lines 4-11)
		switch {
		case w > (1+s.Delta)*wi:
			s.size[i] = clampSlowChunk(s.size[i] * 2)
		case w < (1-s.Delta)*wi:
			s.size[i] = clampSlowChunk((s.size[i] + 1) / 2)
		}
	}
	s.est[i].Observe(w)
}

// Size implements Scheduler (Alg. 1 lines 2-3 and 12-15).
func (s *DCSAScheduler) Size(i int) int64 {
	if i < 0 || i > 1 {
		return clampChunk(s.Base)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	wi, okI := s.est[i].Estimate()
	wo, okO := s.est[1-i].Estimate()
	if !okI {
		return clampChunk(s.Base) // line 3: initial chunk size
	}
	if !okO || wi < wo {
		return clampChunk(s.size[i]) // slow path keeps its adjusted size
	}
	gamma := math.Ceil(wi / math.Max(wo, 1))
	return clampChunk(int64(gamma * float64(s.size[1-i])))
}

// Estimates returns the current per-path bandwidth estimates (bytes/sec)
// for introspection by tests and the experiment harness.
func (s *DCSAScheduler) Estimates() (w0, w1 float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w0, _ = s.est[0].Estimate()
	w1, _ = s.est[1].Estimate()
	return w0, w1
}

// FixedScheduler always requests the same chunk size: the behaviour of
// the commercial single-path players the paper compares against (Adobe
// Flash at 64 KB, HTML5 at 256 KB).
type FixedScheduler struct {
	ChunkSize int64
}

// NewFixedScheduler returns a fixed-size scheduler.
func NewFixedScheduler(size int64) *FixedScheduler {
	return &FixedScheduler{ChunkSize: clampChunk(size)}
}

// Name implements Scheduler.
func (f *FixedScheduler) Name() string { return fmt.Sprintf("fixed-%dKB", f.ChunkSize>>10) }

// Observe implements Scheduler (no adaptation).
func (f *FixedScheduler) Observe(int, int64, time.Duration) {}

// Size implements Scheduler.
func (f *FixedScheduler) Size(int) int64 { return f.ChunkSize }

// BulkScheduler requests whatever remains of the current buffering goal
// as a single range, matching how commercial players accumulate the
// pre-buffer "as one large chunk" (paper §6). The goal callback is wired
// by the player.
type BulkScheduler struct {
	goal func() int64
}

// NewBulkScheduler returns a bulk scheduler; the player installs the
// goal before fetching starts.
func NewBulkScheduler() *BulkScheduler { return &BulkScheduler{} }

// SetGoal installs the remaining-bytes callback.
func (b *BulkScheduler) SetGoal(goal func() int64) { b.goal = goal }

// Name implements Scheduler.
func (b *BulkScheduler) Name() string { return "bulk" }

// Observe implements Scheduler (no adaptation).
func (b *BulkScheduler) Observe(int, int64, time.Duration) {}

// Size implements Scheduler.
func (b *BulkScheduler) Size(int) int64 {
	if b.goal == nil {
		return MaxChunk
	}
	g := b.goal()
	if g < MinChunk {
		return MinChunk
	}
	return g // deliberately uncapped: one request per buffering goal
}
