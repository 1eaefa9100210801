package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/netem"
	"repro/internal/origin"
)

// Config assembles an MSPlayer session.
type Config struct {
	// Clock drives all emulated timing.
	Clock *netem.Clock
	// VideoID selects the video (11-character YouTube-style ID).
	VideoID string
	// Itag selects the format (22 = MP4 720p, the paper's profile).
	Itag int
	// Scheduler decides per-path chunk sizes. Required.
	Scheduler Scheduler
	// Buffer sets the ON/OFF playout thresholds.
	Buffer BufferConfig
	// Paths lists one or two network paths. One path reproduces the
	// single-path baselines; two is MSPlayer proper.
	Paths []PathConfig
	// MaxOutOfOrder bounds stored out-of-order chunks (default 1, the
	// paper's memory-conscious design point).
	MaxOutOfOrder int
	// Sink receives the in-order video byte stream (nil to discard).
	Sink io.Writer
	// StopAfterPreBuffer ends the session when pre-buffering completes
	// (the Fig. 2-4 measurement mode).
	StopAfterPreBuffer bool
	// StopAfterRefills > 0 ends the session once that many re-buffering
	// cycles have been measured (the Fig. 5 mode).
	StopAfterRefills int
	// OnRun, if set, is called from the session's first loop step,
	// before any of its machines can wait. The testbed uses it to anchor
	// pending fault injections: their sleeps must not start running
	// before the session exists.
	OnRun func()
	// Seed decorrelates the per-path backoff jitter streams across
	// sessions. Zero is a valid seed; sessions sharing a seed draw
	// identical jitter sequences.
	Seed int64
}

func (c Config) validate() error {
	if c.Clock == nil {
		return errors.New("core: Config.Clock is required")
	}
	if c.VideoID == "" {
		return errors.New("core: Config.VideoID is required")
	}
	if c.Scheduler == nil {
		return errors.New("core: Config.Scheduler is required")
	}
	if len(c.Paths) < 1 || len(c.Paths) > 2 {
		return fmt.Errorf("core: %d paths configured; MSPlayer uses one or two", len(c.Paths))
	}
	for i, p := range c.Paths {
		if p.Iface == nil {
			return fmt.Errorf("core: path %d has no interface", i)
		}
		if p.ProxyAddr == "" {
			return fmt.Errorf("core: path %d has no proxy address", i)
		}
	}
	if c.Itag == 0 {
		return errors.New("core: Config.Itag is required")
	}
	return nil
}

// Player is one MSPlayer streaming session.
type Player struct {
	cfg     Config
	clock   *netem.Clock
	cm      *chunkManager
	metrics *metricsRecorder

	mu     sync.Mutex
	buffer *PlayoutBuffer
	start  time.Time

	// Session lifecycle state, guarded by smu. The session's machines
	// run as steps of one netem.Loop (see eventsession.go); teardown
	// runs inline in the step that decides it: the books are sealed and
	// every in-flight transfer is aborted at one pinned virtual instant,
	// then the machines unwind on the clock and the last one collects
	// the sealed metrics.
	smu         sync.Mutex
	sessionDone bool // stop condition reached
	cancelled   bool // teardown began
	sealOnce    sync.Once

	// kick enqueues a session-wide re-poll step on the session loop. It
	// is invoked after every lifecycle change the machines must observe
	// (buffer creation, gate-off, seal), so parked machines re-evaluate
	// at exactly that instant. Installed before the machines start,
	// never changed.
	kick func()

	// Byte accounting sealed at the session-end instant (see seal):
	// Elapsed/TotalBytes/Paths define the session's result at the moment
	// its outcome was decided — the stop condition for clean sessions, or
	// teardown entry for cancelled/aborted ones — deliberately excluding
	// the teardown's own artifacts (abort-induced request failures) from
	// QoE. Both instants are deterministic virtual instants for clean
	// sessions, so Metrics is bit-identical per seed. Guarded by smu.
	finElapsed time.Duration
	finBytes   int64
	finPaths   []PathStats
}

// NewPlayer validates cfg and builds a session (not yet started).
func NewPlayer(cfg Config) (*Player, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxOutOfOrder == 0 {
		cfg.MaxOutOfOrder = 1
	}
	p := &Player{
		cfg:   cfg,
		clock: cfg.Clock,
	}
	p.cm = newChunkManager(cfg.MaxOutOfOrder, cfg.Sink)
	p.cm.setGate(true) // pre-buffering starts fetching immediately
	p.cm.onDeliver = p.onDeliver
	networks := make([]string, len(cfg.Paths))
	for i, pc := range cfg.Paths {
		n := pc.Network
		if n == "" {
			n = pc.Iface.Name()
		}
		networks[i] = n
	}
	p.metrics = newMetricsRecorder(networks, time.Time{})
	return p, nil
}

// onBootstrap is called by whichever path decodes its JSON first; it
// sizes the chunk manager and creates the playout buffer.
func (p *Player) onBootstrap(info *origin.VideoInfo, contentLength int64) {
	p.cm.setTotal(contentLength)
	p.mu.Lock()
	if p.buffer != nil {
		p.mu.Unlock()
		return
	}
	var bps float64
	for _, f := range info.Formats {
		if f.Itag == p.cfg.Itag {
			bps = float64(f.Bitrate) / 8
		}
	}
	videoLen := time.Duration(info.LengthSeconds) * time.Second
	p.buffer = NewPlayoutBuffer(p.cfg.Buffer, bps, videoLen, p.start, p.onGate)
	buf := p.buffer
	p.mu.Unlock()
	p.cm.setLimit(func() int64 { return buf.GoalOffset(p.clock.Now()) })
	if b, ok := p.cfg.Scheduler.(*BulkScheduler); ok {
		b.SetGoal(func() int64 { return buf.GoalBytes(p.clock.Now()) })
	}
	p.kick()
}

// onGate reacts to buffer gate flips: ON/OFF propagates to the chunk
// manager, and OFF transitions kick the gater so it can schedule the
// next LowWater crossing.
func (p *Player) onGate(on bool) {
	p.cm.setGate(on)
	if !on {
		p.kick()
	}
}

// onDeliver advances the playout buffer as the in-order frontier moves
// and evaluates stop conditions.
func (p *Player) onDeliver(frontier int64) {
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf == nil {
		return
	}
	now := p.clock.Now()
	buf.Deliver(frontier, now)
	if p.cfg.StopAfterPreBuffer {
		if _, ok := buf.PreBufferTime(); ok {
			p.finish()
		}
	}
	if n := p.cfg.StopAfterRefills; n > 0 && len(buf.Refills()) >= n {
		p.finish()
	}
	if p.cm.Done() {
		p.finish()
	}
}

// phase returns the current buffering phase for byte accounting.
func (p *Player) phase() Phase {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.buffer == nil || !p.buffer.Started() {
		return PhasePreBuffer
	}
	return PhaseReBuffer
}

// finish marks the stop condition reached, sealing the session's books
// at the current instant. It runs in a loop step (a path's delivery
// callback or the gater) at a deterministic virtual instant.
func (p *Player) finish() { p.seal(true) }

// seal freezes the session's byte accounting at the caller's current
// instant, exactly once. markDone additionally records that the stop
// condition was reached (as opposed to a context cancellation or a
// stopped clock, where teardown seals at its entry instead).
func (p *Player) seal(markDone bool) {
	p.sealOnce.Do(func() {
		p.mu.Lock()
		start := p.start
		p.mu.Unlock()
		elapsed := p.clock.Now().Sub(start)
		bytes := p.cm.Frontier()
		paths := p.metrics.snapshot()
		p.smu.Lock()
		p.finElapsed = elapsed
		p.finBytes = bytes
		p.finPaths = paths
		if markDone {
			p.sessionDone = true
		}
		p.smu.Unlock()
		p.kick()
	})
}

// over reports whether the session should stop driving new work.
func (p *Player) over() bool {
	p.smu.Lock()
	defer p.smu.Unlock()
	return p.sessionDone || p.cancelled
}

// Run executes the session until its stop condition (or ctx
// cancellation) and returns the collected metrics.
//
// The session itself runs as event-loop state machines (RunEvented);
// Run is a thin driver around them. The calling goroutine registers
// with the emulation clock and parks clock-visibly until the machines
// report completion, so in virtual mode the whole session advances
// deterministically. The caller must not already be registered with
// the clock — registering twice would wedge it; registered callers
// use RunEvented directly.
//
// Cancelling ctx tears the session down at the virtual instant the
// driver observes it: the books are sealed there, in-flight transfers
// are aborted, and Run returns the sealed metrics with ctx.Err(). If
// the clock stops mid-session (the testbed closed), Run interrupts the
// session and returns its partial metrics.
func (p *Player) Run(ctx context.Context) (*Metrics, error) {
	part := p.clock.Register()
	defer part.Unregister()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		mu       sync.Mutex
		done     bool
		finished = make(chan struct{})
		m        *Metrics
		runErr   error
	)
	cond := netem.NewCond(p.clock, &mu)
	loop := netem.NewLoop()
	es := p.RunEvented(loop, func(rm *Metrics, err error) {
		mu.Lock()
		m, runErr, done = rm, err, true
		close(finished)
		cond.Broadcast()
		mu.Unlock()
	})

	// Relay external cancellation into the driver's clock-visible wait.
	// The watcher is intentionally unregistered: it only runs on an
	// event originating outside emulated time, and the teardown itself
	// runs on the (registered) driver once it wakes.
	go func() { //detlint:allow baredgo -- context-cancel relay is intentionally clock-invisible; it only wakes the driver
		<-ctx.Done()
		mu.Lock()
		cond.Broadcast()
		mu.Unlock()
	}()

	relayed := false
	mu.Lock()
	for !done {
		if err := ctx.Err(); err != nil && !relayed {
			relayed = true
			mu.Unlock()
			loop.Do(func() { es.s.teardown(err) })
			mu.Lock()
			continue
		}
		if !cond.Wait(part) {
			// Clock stopped mid-session: no pending timer will fire, so
			// interrupt the machines where they froze. The done callback
			// may run on whichever goroutine is draining the loop.
			mu.Unlock()
			es.Interrupt()
			<-finished
			mu.Lock()
		}
	}
	mu.Unlock()
	return m, runErr
}

// collect assembles the session Metrics from the sealed books. It runs
// once the last machine has unwound, so every contributing write has
// completed; the values themselves were sealed at the session-end
// instant (clean stop or teardown entry), so the teardown's own
// artifacts never leak into the result.
func (p *Player) collect() *Metrics {
	m := &Metrics{Scheduler: p.cfg.Scheduler.Name()}
	p.smu.Lock()
	m.Paths = p.finPaths
	m.Elapsed = p.finElapsed
	m.TotalBytes = p.finBytes
	p.smu.Unlock()
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf != nil {
		if d, ok := buf.PreBufferTime(); ok {
			m.PreBufferTime = d
			m.PreBufferDone = true
		}
		m.Refills = buf.Refills()
		m.Stalls = buf.Stalls()
	}
	return m
}

// Buffered exposes the current buffered playback time (0 before the
// first bootstrap); used by examples for progress display.
func (p *Player) Buffered() time.Duration {
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf == nil {
		return 0
	}
	return buf.Buffered(p.clock.Now())
}
