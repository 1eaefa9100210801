package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/httpx"
	"repro/internal/netem"
	"repro/internal/origin"
)

// This file is the session engine: an MSPlayer session as state
// machines that run as steps of one netem.Loop, shared by every session
// of a fleet. A fleet of N sessions needs O(cores) goroutines instead
// of O(N): each path is a callback machine over httpx.EventTransport
// (borrowed zero-copy reads included) and the gater is a timer machine.
// Every state change a parked machine must observe — chunk completion,
// gate flips, buffer creation, the seal — enqueues a re-poll step, so
// machines act at exactly the virtual instant of the change and the
// session's timeline is a pure function of its seed.

// EventedSession is the handle RunEvented returns. Its only operation,
// Interrupt, force-finishes the session after the emulation clock has
// stopped.
type EventedSession struct {
	s *evSession
}

// Interrupt tears the session down with errClockStopped and delivers
// the sealed metrics to the done callback. It is meant for a stopped
// clock, where the machines' pending timers will never fire; calling it
// on a live session ends it at the current instant. Idempotent.
func (es *EventedSession) Interrupt() {
	es.s.loop.Do(es.s.interrupt)
}

// evSession owns the per-session machine set and its completion
// bookkeeping: livePaths detects every path having exited,
// liveMachines is the drain barrier, and teardown runs inline at the
// trigger instant. All fields are loop-confined.
type evSession struct {
	p    *Player
	loop *netem.Loop
	done func(*Metrics, error)

	paths []*evPath
	gater *evGater
	// waitq holds the paths parked in acquire in the order they parked.
	// Re-polling in park order matters: when a gate-off leaves less
	// assignable media than the parked paths want, the longest-waiting
	// path wins the span, so contested-span assignment is deterministic.
	waitq        []*evPath
	livePaths    int
	liveMachines int // path machines + gater still to unwind
	torndown     bool
	finished     bool
	runErr       error
}

// RunEvented starts the session as event-loop machines on loop and
// returns immediately. done is invoked from a loop step at the virtual
// instant the last machine unwinds, with the sealed Metrics and the
// session error (nil for a clean stop). The caller keeps the clock
// alive (a registered participant parked in a Cond, typically); if the
// clock stops before the session completes, call Interrupt to collect
// the partial result. Run is the blocking driver around it, which also
// handles context cancellation.
func (p *Player) RunEvented(loop *netem.Loop, done func(*Metrics, error)) *EventedSession {
	s := &evSession{p: p, loop: loop, done: done}
	loop.Do(s.start)
	return &EventedSession{s: s}
}

func (s *evSession) start() {
	p := s.p
	if p.cfg.OnRun != nil {
		p.cfg.OnRun()
	}
	p.mu.Lock()
	p.start = p.clock.Now()
	p.mu.Unlock()
	p.metrics.start = p.start

	s.livePaths = len(p.cfg.Paths)
	s.liveMachines = len(p.cfg.Paths) + 1 // paths + gater
	// Install the re-poll hooks before the first machine can signal:
	// every chunk-manager or lifecycle change enqueues a step.
	kick := func() { s.loop.Do(s.step) }
	p.cm.notify = kick
	p.kick = kick
	s.gater = &evGater{sess: s}
	s.gater.tm = p.clock.NewTimer(func() { s.loop.Do(s.gater.wake) })
	for i, pc := range p.cfg.Paths {
		s.paths = append(s.paths, newEvPath(i, pc, s))
	}
	for _, ep := range s.paths {
		ep.start()
	}
	s.gater.poll()
}

// step is the session-wide re-poll: it runs once per kick, checks the
// stop condition, and lets every parked machine re-evaluate.
func (s *evSession) step() {
	if s.finished {
		return
	}
	if !s.torndown {
		s.p.smu.Lock()
		sessionDone := s.p.sessionDone
		s.p.smu.Unlock()
		if sessionDone {
			s.teardown(nil)
		}
	}
	s.gater.poll()
	// Drain the wait queue in park order; paths that still find nothing
	// re-append themselves at the tail, behind the others.
	q := s.waitq
	s.waitq = nil
	for _, ep := range q {
		ep.queued = false
		if ep.waiting && !ep.exited {
			ep.fetchStep()
		}
	}
}

// teardown is the session's stopping stage at the trigger instant:
// seal the books (a no-op when finish already sealed them), stop
// assignment, make cancellation visible, and abort every in-flight
// transfer. trigger becomes the session error unless the stop
// condition was already reached. The machines then unwind at
// deterministic instants — in-flight fetches observe their aborts now,
// pending backoff and gater timers still fire at their scheduled wakes
// and exit there.
func (s *evSession) teardown(trigger error) {
	if s.torndown {
		return
	}
	s.torndown = true
	s.p.smu.Lock()
	sessionDone := s.p.sessionDone
	s.p.smu.Unlock()
	if !sessionDone {
		s.runErr = trigger
	}
	s.p.seal(false)
	s.p.cm.stop()
	s.p.smu.Lock()
	s.p.cancelled = true
	s.p.smu.Unlock()
	for _, ep := range s.paths {
		ep.et.Shutdown(errSessionStopped)
	}
}

// onPathExit lets the last path to exit decide, on the spot, whether
// the session ended short (teardown with the all-paths-exited error) or
// simply drained.
func (s *evSession) onPathExit() {
	s.livePaths--
	if s.livePaths > 0 {
		return
	}
	if !s.torndown {
		var err error
		if !s.p.cm.Done() {
			err = errors.New("core: all paths exited before the session completed")
		}
		s.teardown(err)
	}
}

// machineDone is the drain barrier: the last machine to unwind collects
// the sealed result and completes the session.
func (s *evSession) machineDone() {
	s.liveMachines--
	if s.liveMachines > 0 {
		return
	}
	if !s.torndown {
		s.teardown(nil)
	}
	s.finish()
}

func (s *evSession) finish() {
	if s.finished {
		return
	}
	s.finished = true
	s.done(s.p.collect(), s.runErr)
}

// interrupt force-finishes after the clock stopped: no pending timer
// will ever fire, so the remaining machines are abandoned where they
// froze and the sealed books are collected immediately.
func (s *evSession) interrupt() {
	if s.finished {
		return
	}
	s.teardown(errClockStopped)
	s.finish()
}

// evPath is the fetch loop of one MSPlayer path as a callback machine:
// bootstrap against the network's web proxy, then repeatedly acquire a
// span from the chunk manager, fetch it with an HTTP range request, and
// report the measured throughput to the scheduler. Failures trigger
// same-network replica failover (or, with the resilience layer,
// health-scored reselection), token refresh, or backoff-and-retry.
// Every wait is a continuation callback: a timer, a request completion
// or a session re-poll.
type evPath struct {
	id   int
	cfg  PathConfig
	pl   *Player
	sess *evSession
	et   *httpx.EventTransport

	info      *origin.VideoInfo
	servers   []string
	serverIdx int
	url       string

	// rng is the path's private splitmix64 backoff-jitter stream (see
	// pathRNG); only this machine draws from it, so the draw order is
	// deterministic per seed.
	rng        uint64
	failStreak int

	// res is the resilience layer's per-target health state (nil when
	// the layer is disabled). hedging is the range size of the most
	// recent hedge whose reissue has not yet resolved (0 when none):
	// the next success counts a hedge win, the next genuine failure
	// counts its bytes wasted.
	res     *sourceSet
	hedging int64

	// waiting marks the machine parked in acquire: want is pinned for
	// the whole wait and session steps re-poll acquireTry until it
	// resolves.
	waiting bool
	queued  bool // in the session's FIFO wait queue
	want    int64
	exited  bool

	// backoffTm drives the exponential-backoff sleeps; backoffFn is the
	// pending continuation it resumes.
	backoffTm *netem.Timer
	backoffFn func(error)
}

func newEvPath(id int, cfg PathConfig, s *evSession) *evPath {
	if cfg.Network == "" {
		cfg.Network = cfg.Iface.Name()
	}
	et := httpx.NewEventTransport(cfg.Iface, s.p.clock, s.loop)
	et.SetRequestTimeout(cfg.RequestTimeout)
	ep := &evPath{
		id: id, cfg: cfg, pl: s.p, sess: s, et: et,
		rng: pathRNG(s.p.cfg.Seed, id),
		res: newSourceSet(cfg.Resilience, s.p.cfg.Seed, id),
	}
	ep.backoffTm = s.p.clock.NewTimer(func() { s.loop.Do(ep.backoffFire) })
	return ep
}

func (ep *evPath) start() {
	ep.bootstrap(0, func(err error) {
		if err != nil {
			ep.exit()
			return
		}
		ep.fetchStep()
	})
}

func (ep *evPath) exit() {
	if ep.exited {
		return
	}
	ep.exited = true
	ep.backoffTm.Stop()
	ep.sess.onPathExit()
	ep.sess.machineDone()
}

// backoff sleeps an exponentially growing emulated delay — 250 ms
// doubling to a 2 s cap, plus deterministic per-path jitter of up to
// half the base — and resumes then with nil, or with an error when the
// session was torn down or the clock stopped (checked at the wake
// instant). The jitter matters under correlated faults: when a server
// kill fails hundreds of sessions at one virtual instant, un-jittered
// exponential backoff would march them all back in lockstep,
// re-creating the stampede on every retry.
func (ep *evPath) backoff(attempt int, then func(error)) {
	d := 250 * time.Millisecond << uint(min(attempt, 3))
	d += time.Duration(splitmixDraw(&ep.rng, int64(d)/2))
	ep.backoffFn = then
	ep.backoffTm.Schedule(ep.pl.clock.Now().Add(d))
}

func (ep *evPath) backoffFire() {
	then := ep.backoffFn
	ep.backoffFn = nil
	if then == nil || ep.exited {
		return
	}
	if ep.sess.torndown {
		then(errSessionStopped)
		return
	}
	if ep.pl.clock.Stopped() {
		then(errClockStopped)
		return
	}
	then(nil)
}

// bootstrap fetches video metadata from the network's web proxy,
// retrying with backoff, and resumes then. EventTransport.Get delivers
// a 200 body at the terminal chunk frame with the connection pooled and
// retires the connection at the first body byte of any other status,
// so the whole body is decoded at once.
func (ep *evPath) bootstrap(attempt int, then func(error)) {
	if ep.sess.torndown {
		then(errSessionStopped)
		return
	}
	url := fmt.Sprintf("http://%s/watch?v=%s", ep.cfg.ProxyAddr, ep.pl.cfg.VideoID)
	if ep.res != nil {
		// Watch requests are never hedged; disarm any budget left over
		// from the preceding range request.
		ep.et.SetHedge(0)
	}
	ep.et.Get(url, func(status int, body []byte, err error) {
		var info *origin.VideoInfo
		if err == nil {
			if status != http.StatusOK {
				err = fmt.Errorf("core: watch request: status %d", status)
			} else {
				info = new(origin.VideoInfo)
				if derr := json.Unmarshal(body, info); derr != nil {
					err = fmt.Errorf("core: decoding video info: %w", derr)
				}
			}
		}
		if err == nil {
			if len(info.VideoServers) == 0 && len(ep.cfg.VideoServers) == 0 {
				err = fmt.Errorf("core: no video servers in network %s", ep.cfg.Network)
			} else if _, e := info.ContentLengthFor(ep.pl.cfg.Itag); e != nil {
				err = e
			}
		}
		if err != nil {
			ep.backoff(attempt, func(berr error) {
				if berr != nil {
					then(berr)
					return
				}
				ep.bootstrap(attempt+1, then)
			})
			return
		}
		ep.info = info
		ep.servers = info.VideoServers
		if len(ep.cfg.VideoServers) > 0 {
			ep.servers = ep.cfg.VideoServers
		}
		ep.serverIdx = 0
		ep.url = info.PlaybackURL(ep.servers[0], ep.pl.cfg.Itag)
		n, _ := info.ContentLengthFor(ep.pl.cfg.Itag)
		ep.pl.onBootstrap(info, n)
		then(nil)
	})
}

// failover rotates to the next replica in the network, wrapping past
// the end of the list so replicas that failed earlier — and may have
// recovered since — are re-probed instead of written off. Once a
// failure streak has walked the whole list (attempt is the streak
// count), it backs off and re-bootstraps to refresh the server list,
// picking up restarted replicas and dropping killed ones.
func (ep *evPath) failover(attempt int, then func(error)) {
	if len(ep.servers) > 1 && attempt%len(ep.servers) != 0 {
		ep.serverIdx = (ep.serverIdx + 1) % len(ep.servers)
		ep.pl.metrics.failover(ep.id)
		ep.url = ep.info.PlaybackURL(ep.servers[ep.serverIdx], ep.pl.cfg.Itag)
		then(nil)
		return
	}
	ep.backoff(attempt, func(err error) {
		if err != nil {
			then(err)
			return
		}
		ep.pl.metrics.rebootstrap(ep.id)
		ep.bootstrap(0, then)
	})
}

// reselect is the resilient replacement for failover: it picks the
// best live source by health score, failing fast past breaker-open
// targets instead of burning a request-deadline budget on each, and
// admits half-open probes at their jittered re-open instants. Probes
// are 1 KiB range requests issued outside the chunk manager, so a
// still-dead target wedges only the probe — never a real chunk span
// that would sit on the contiguous buffering frontier for a full
// deadline. Every 2×len(servers) consecutive failures it falls back to
// backoff + re-bootstrap to refresh the server list.
func (ep *evPath) reselect(attempt int, then func(error)) {
	if attempt > 0 && len(ep.servers) > 0 && attempt%(2*len(ep.servers)) == 0 {
		ep.backoff(attempt, func(err error) {
			if err != nil {
				then(err)
				return
			}
			ep.pl.metrics.rebootstrap(ep.id)
			ep.bootstrap(0, func(err error) {
				if err != nil {
					then(err)
					return
				}
				ep.applyPick(attempt, then)
			})
		})
		return
	}
	ep.applyPick(attempt, then)
}

// applyPick is reselect's selection step. When every breaker is open
// it parks on the backoff timer until the earliest half-open instant
// (backoffFire performs the torndown / stopped-clock checks at the
// wake). Half-open winners run the 1 KiB probe first and re-enter
// selection when it fails.
func (ep *evPath) applyPick(attempt int, then func(error)) {
	clock := ep.pl.clock
	idx, probe, wait, ok := ep.res.pick(ep.servers, clock.Now())
	if !ok {
		ep.backoffFn = func(err error) {
			if err != nil {
				then(err)
				return
			}
			idx, probe, _, ok := ep.res.pick(ep.servers, clock.Now())
			if !ok {
				ep.backoff(attempt, then)
				return
			}
			ep.finishPick(idx, probe, attempt, then)
		}
		ep.backoffTm.Schedule(wait)
		return
	}
	ep.finishPick(idx, probe, attempt, then)
}

// finishPick commits idx as the path's source, running the half-open
// probe first when the pick re-admitted an open breaker.
func (ep *evPath) finishPick(idx int, probe bool, attempt int, then func(error)) {
	if probe {
		ep.probe(idx, attempt, then)
		return
	}
	if idx != ep.serverIdx {
		ep.serverIdx = idx
		ep.pl.metrics.failover(ep.id)
		ep.url = ep.info.PlaybackURL(ep.servers[idx], ep.pl.cfg.Itag)
	}
	then(nil)
}

// probe issues the 1 KiB half-open probe against servers[idx]. Probe
// outcomes drive the breaker and the robustness metrics but never feed
// the service window — a 1 KiB probe's latency says nothing about chunk
// service rates. The probe runs on the deadline-clamped probeBudget
// rather than the rate prediction, so a healthy target whose prediction
// has gone stale still gets the full deadline to redeem itself. A
// failed probe re-enters applyPick; a redeemed target is committed as
// the path's source.
func (ep *evPath) probe(idx, attempt int, then func(error)) {
	pl := ep.pl
	pl.metrics.halfOpenProbe(ep.id)
	pl.metrics.request(ep.id)
	ep.et.SetHedge(ep.res.probeBudget(ep.cfg.RequestTimeout))
	u := ep.info.PlaybackURL(ep.servers[idx], pl.cfg.Itag)
	ep.et.GetRangeViews(u, 0, probeBytes-1, func(views [][]byte, release func(), err error) {
		if err != nil {
			if ep.sess.torndown {
				ep.exit()
				return
			}
			if errors.Is(err, httpx.ErrHedged) {
				pl.metrics.hedge(ep.id)
			} else {
				pl.metrics.failure(ep.id)
				if errors.Is(err, httpx.ErrRequestTimeout) {
					pl.metrics.timeout(ep.id)
				}
			}
			if ep.res.observeFailure(ep.servers[idx], pl.clock.Now()) {
				pl.metrics.breakerOpen(ep.id)
			}
			ep.applyPick(attempt, then)
			return
		}
		release()
		ep.res.admit(ep.servers[idx])
		if idx != ep.serverIdx {
			ep.serverIdx = idx
			pl.metrics.failover(ep.id)
			ep.url = ep.info.PlaybackURL(ep.servers[idx], pl.cfg.Itag)
		}
		then(nil)
	})
}

// fetchStep is one iteration of the fetch loop's head: check
// cancellation, size the next chunk, and try to acquire it. When no
// work is available the machine stays parked in waiting and the next
// session step re-polls with the pinned want.
func (ep *evPath) fetchStep() {
	if ep.exited {
		return
	}
	if !ep.waiting {
		if ep.sess.torndown {
			ep.exit()
			return
		}
		ep.want = ep.pl.cfg.Scheduler.Size(ep.id)
		ep.waiting = true
	}
	span, ok, over := ep.pl.cm.acquireTry(ep.want)
	if over {
		ep.waiting = false
		ep.exit()
		return
	}
	if !ok {
		if !ep.queued {
			ep.queued = true
			ep.sess.waitq = append(ep.sess.waitq, ep)
		}
		return
	}
	ep.waiting = false
	ep.fetch(span)
}

// resume continues the fetch loop after a recovery step (re-bootstrap
// or failover), exiting on cancellation.
func (ep *evPath) resume(err error) {
	if err != nil {
		ep.exit()
		return
	}
	ep.fetchStep()
}

func (ep *evPath) fetch(span Span) {
	pl := ep.pl
	pl.metrics.request(ep.id)
	if ep.res != nil {
		ep.et.SetHedge(ep.res.hedgeBudget(span.Size, ep.cfg.RequestTimeout, len(ep.servers)))
	}
	start := pl.clock.Now()
	ep.et.GetRangeViews(ep.url, span.Off, span.End()-1, func(views [][]byte, release func(), err error) {
		if err != nil {
			if ep.res != nil && errors.Is(err, httpx.ErrHedged) {
				// The hedge budget elapsed: the laggard was cancelled at
				// exactly that instant, and the range is reissued against
				// the best-scored live source. Abandoning our own request
				// is not a failure, but it is a breaker strike — repeated
				// hedges against a blackholed source open its breaker
				// long before a deadline-based streak would.
				pl.cm.fail(span)
				if ep.sess.torndown {
					ep.exit()
					return
				}
				pl.metrics.hedge(ep.id)
				if ep.hedging > 0 {
					pl.metrics.hedgeWasted(ep.id, ep.hedging)
				}
				ep.hedging = span.Size
				if ep.res.observeHedge(ep.servers[ep.serverIdx], pl.clock.Now()) {
					pl.metrics.breakerOpen(ep.id)
				}
				ep.reselect(0, ep.resume)
				return
			}
			pl.metrics.failure(ep.id)
			pl.cm.fail(span)
			if ep.sess.torndown {
				ep.exit()
				return
			}
			ep.failStreak++
			if errors.Is(err, httpx.ErrRequestTimeout) {
				pl.metrics.timeout(ep.id)
			}
			if ep.hedging > 0 {
				pl.metrics.hedgeWasted(ep.id, ep.hedging)
				ep.hedging = 0
			}
			if ep.res != nil {
				if ep.res.observeFailure(ep.servers[ep.serverIdx], pl.clock.Now()) {
					pl.metrics.breakerOpen(ep.id)
				}
			}
			var se *httpx.StatusError
			if errors.As(err, &se) && (se.Code == http.StatusForbidden || se.Code == http.StatusUnauthorized) {
				// Token expired or rejected: refresh via the proxy.
				pl.metrics.rebootstrap(ep.id)
				ep.bootstrap(0, ep.resume)
			} else if ep.res != nil {
				ep.reselect(ep.failStreak, ep.resume)
			} else {
				ep.failover(ep.failStreak, ep.resume)
			}
			return
		}
		ep.failStreak = 0
		if ep.hedging > 0 {
			pl.metrics.hedgeWon(ep.id)
			ep.hedging = 0
		}
		elapsed := pl.clock.Now().Sub(start)
		if ep.res != nil {
			ep.res.observeSuccess(ep.servers[ep.serverIdx], elapsed, span.Size)
		}
		pl.cfg.Scheduler.Observe(ep.id, span.Size, elapsed)
		pl.metrics.chunk(ep.id, span.Size, pl.phase(), pl.clock.Now(), elapsed)
		pl.cm.completeViews(ep.id, span, views, release, span.Size)
		ep.fetchStep()
	})
}

// evGater drives the playout buffer's time-based ON transitions as a
// timer machine: it sleeps until the buffer drains to LowWater and
// flips fetching back on. Delivery-driven periods park until a
// gate-off (or lifecycle) kick re-polls. A teardown while a wake is
// pending lets the timer fire and exit there without ticking.
type evGater struct {
	sess     *evSession
	tm       *netem.Timer
	sleeping bool
	exited   bool
}

func (g *evGater) poll() {
	if g.exited || g.sleeping {
		return
	}
	p := g.sess.p
	if p.over() || p.clock.Stopped() {
		g.exit()
		return
	}
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	if buf == nil {
		return // parked until the first bootstrap kicks bufferReady
	}
	now := p.clock.Now()
	if buf.Finished(now) {
		p.finish()
		g.exit()
		return
	}
	if wake, ok := buf.NextWake(now); ok {
		g.sleeping = true
		g.tm.Schedule(wake)
		return
	}
	// Delivery-driven period: parked until a gate-off kick.
}

func (g *evGater) wake() {
	if g.exited {
		return
	}
	g.sleeping = false
	p := g.sess.p
	if p.over() || p.clock.Stopped() {
		// The session ended while this wake was pending: the books are
		// sealed, so a Tick now would record post-session buffer events.
		g.exit()
		return
	}
	p.mu.Lock()
	buf := p.buffer
	p.mu.Unlock()
	buf.Tick(p.clock.Now())
	if buf.Finished(p.clock.Now()) {
		p.finish()
		g.exit()
		return
	}
	g.poll()
}

func (g *evGater) exit() {
	if g.exited {
		return
	}
	g.exited = true
	g.tm.Stop()
	g.sess.machineDone()
}
