package netem

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Clock is the time source for an emulated network. All emulated delays
// (propagation, pacing, server think time, playout draining) must be
// expressed through a Clock so that virtual and scaled-real-time modes
// behave identically apart from wall-clock duration.
//
// In virtual mode the Clock is a deterministic discrete-event scheduler
// driven by waiter accounting: every emulation participant registers
// (Register / Go), receiving a *Participant handle, and parks only
// through clock-visible primitives (Participant.Sleep / SleepUntil,
// Cond.Wait). The moment every registered participant is parked the
// clock jumps straight to the earliest pending deadline. There is no
// background advancer goroutine and no wall-clock polling: virtual runs
// are CPU-bound and their event order is independent of machine load.
//
// Pending deadlines live in a sharded timer wheel (see wheel.go):
// each participant is assigned a shard at registration and its parks
// touch only that shard's lock, so deadline scheduling no longer
// serialises the whole emulation on one mutex, and the common park is
// an O(1) bucket append instead of an O(log n) heap insert. The jump
// loop finds the next instant from a lock-free per-shard
// earliest-deadline summary (one atomic load per shard), pops every
// sleeper due at that instant across all shards as one batch, and fans
// the wake tokens out after all shard locks are released — sorted by
// the same (deadline, seq) order the previous global heap popped in,
// so firing order (and with it every downstream report byte) is
// unchanged.
//
// The Participant handle is the unit of accounting: registering is a
// counter increment, parking reuses the handle's wake channel and
// wheel node, and no per-park goroutine-identity lookup happens
// anywhere. The participant/idle counters are atomics, so
// condition-variable parks and wakes never take any clock lock at all.
// This keeps the hot path O(1) and allocation-free, which is what lets
// one clock carry tens of thousands of concurrently parked session
// goroutines without serialising them on a single lock.
//
// Goroutines that never registered (tests, example main functions) may
// still call the clock-level blocking primitives (Clock.Sleep,
// Clock.SleepUntil, Cond.Wait with a nil participant): they are
// accounted as transient participants for the duration of the park, so
// casual use "just works", at the cost of the determinism guarantee
// that full registration gives. Registered goroutines must always park
// through their Participant — parking a registered goroutine through
// the transient shims would double-count it and wedge the clock.
type Clock struct {
	// parts counts registered participants plus holds plus parked
	// transients; idle counts participants currently parked in
	// clock-visible waits. The clock may jump exactly when idle ==
	// parts. Every operation that can make the condition become true
	// (parking, releasing a hold, unregistering, waking a transient)
	// calls tryAdvance afterwards, so no advance is ever missed.
	parts atomic.Int64
	idle  atomic.Int64

	virt atomic.Int64 // current virtual offset from base, in ns
	base time.Time    // virtual epoch

	seq       atomic.Int64  // global tiebreaker for same-instant firing order
	nextShard atomic.Uint32 // round-robin shard assignment
	stopped   atomic.Bool

	// jumpMu serialises the jump loop (and Stop) only: parks and
	// cancels take shard locks, never this one.
	jumpMu sync.Mutex
	shards [numShards]clockShard
	batch  sleeperBatch // jump-scratch; reused across jumps
	fire   []wakeItem   // idle fan-out scratch; lent to one advancer at a time (see tryAdvance)

	done chan struct{} // closed by Stop; wakes every parked waiter

	// frozen/frozenAt pin Now() at the stop instant: once Stop has run,
	// every Now() call returns the same value in both clock modes, so
	// post-teardown accessors (metrics, buffer levels) read a stable
	// emulated time instead of a wall clock that keeps running.
	frozen   atomic.Bool
	frozenAt atomic.Int64 // emulated offset from base at Stop, in ns

	// realtime mode
	realtime  bool
	scale     float64
	realStart time.Time
}

// Participant is one registered emulation participant: a handle minted
// by Register or Go that the owning goroutine threads through every
// clock-visible park (Sleep, SleepUntil, Cond.Wait). A Participant
// belongs to exactly one goroutine at a time and its park state (wake
// channel, timer-wheel node) is reused across parks, so steady-state
// parking allocates nothing and never consults a goroutine-identity
// map. Each participant is pinned to one wheel shard at registration
// (round-robin), so all of its deadline parks contend only with the
// 1/numShards of the emulation sharing that shard.
type Participant struct {
	c     *Clock
	wake  chan struct{} // cap 1; carries one wake token per park
	s     sleeper       // reusable wheel node for deadline parks
	shard uint32
	gone  atomic.Bool // unregistered
}

// NewVirtualClock returns a deterministic discrete-event clock. Time only
// advances when every registered participant is parked in a clock-visible
// wait; it then jumps to the earliest pending deadline. Call Stop when
// the emulation is finished.
func NewVirtualClock() *Clock {
	c := &Clock{
		base: time.Unix(1_700_000_000, 0), // arbitrary fixed epoch for determinism
		done: make(chan struct{}),
	}
	for i := range c.shards {
		c.shards[i].earliest.Store(sleeperNone)
	}
	return c
}

// NewScaledClock returns a real-time clock compressed by scale: an
// emulated duration d is slept for d/scale of wall time. scale = 1 gives
// plain real time.
func NewScaledClock(scale float64) *Clock {
	if scale <= 0 {
		scale = 1
	}
	return &Clock{
		base:      time.Now(), //detlint:allow wallclock -- scaled-real-time mode anchors the clock to the wall by definition
		realtime:  true,
		scale:     scale,
		realStart: time.Now(), //detlint:allow wallclock -- scaled-real-time mode anchors the clock to the wall by definition
		done:      make(chan struct{}),
	}
}

// Register marks the calling goroutine as an emulation participant and
// returns its handle: the virtual clock refuses to jump while any
// participant is running, so everything the goroutine does between
// parks happens at a frozen virtual instant. Park only through the
// returned handle, and pair every Register with Unregister. In realtime
// mode the handle's primitives degrade to scaled wall-clock sleeps.
func (c *Clock) Register() *Participant {
	p := &Participant{
		c:     c,
		wake:  make(chan struct{}, 1),
		shard: c.nextShard.Add(1) & (numShards - 1),
	}
	if !c.realtime {
		c.parts.Add(1)
	}
	return p
}

// Clock returns the clock the participant is registered with.
func (p *Participant) Clock() *Clock { return p.c }

// Unregister removes the participant from the clock's accounting. It is
// idempotent; a handle must not be used to park after unregistering.
func (p *Participant) Unregister() {
	c := p.c
	if c.realtime {
		return
	}
	if !p.gone.Swap(true) {
		c.parts.Add(-1)
		c.tryAdvance()
	}
}

// Suspend removes the participant from the accounting without retiring
// the handle, returning after Resume restores it. Use it around a wait
// the clock cannot see (e.g. joining worker goroutines whose progress
// needs virtual time): while suspended the goroutine does not hold up
// jumps. The participant must not park while suspended.
func (p *Participant) Suspend() {
	c := p.c
	if c.realtime || p.gone.Load() {
		return
	}
	c.parts.Add(-1)
	c.tryAdvance()
}

// Resume restores a registration removed by Suspend.
func (p *Participant) Resume() {
	c := p.c
	if c.realtime || p.gone.Load() {
		return
	}
	c.parts.Add(1)
}

// Hold blocks virtual-time jumps until Release, without registering a
// goroutine. It covers handoff windows where work has been scheduled but
// the goroutine that will perform it has not started executing yet.
func (c *Clock) Hold() {
	if c.realtime {
		return
	}
	c.parts.Add(1)
}

// Release undoes one Hold.
func (c *Clock) Release() {
	if c.realtime {
		return
	}
	c.parts.Add(-1)
	c.tryAdvance()
}

// Go runs fn on a new goroutine registered with the clock, passing fn
// its Participant handle. The clock cannot jump between the call and fn
// starting to execute, so events fn schedules are anchored to the
// virtual instant of the spawn.
func (c *Clock) Go(fn func(*Participant)) {
	c.Hold()
	go func() { //detlint:allow baredgo -- this IS Clock.Go: the one registered spawn point
		p := c.Register()
		c.Release()
		defer p.Unregister()
		fn(p)
	}()
}

// Stop terminates the clock. Parked waiters are woken immediately (in
// both clock modes) through the done channel; the emulation is expected
// to be torn down afterwards. Now() is frozen at the stop instant: a
// stopped clock reports the same emulated time forever, in both modes,
// so teardown-path reads (session metrics, buffer levels) are stable.
func (c *Clock) Stop() {
	c.jumpMu.Lock()
	if c.stopped.Load() {
		c.jumpMu.Unlock()
		return
	}
	if c.realtime {
		c.frozenAt.Store(int64(float64(time.Since(c.realStart)) * c.scale)) //detlint:allow wallclock -- realtime pacing converts wall progress into emulated time
	} else {
		c.frozenAt.Store(c.virt.Load())
	}
	c.frozen.Store(true)
	c.stopped.Store(true)
	close(c.done)
	for i := range c.shards {
		c.shards[i].reset()
	}
	c.jumpMu.Unlock()
}

// Stopped reports whether Stop has been called. Blocking primitives
// return immediately on a stopped clock, so loops that wait for an
// emulated instant must check this to avoid spinning during teardown.
func (c *Clock) Stopped() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// Now returns the current emulated time. In virtual mode this is a
// lock-free atomic read: registered participants can only observe the
// clock between jumps (jumps require them all parked), and transient
// observers tolerate the relaxed ordering by construction. After Stop,
// Now is frozen at the stop instant in both modes.
func (c *Clock) Now() time.Time {
	if c.realtime {
		if c.frozen.Load() {
			return c.base.Add(time.Duration(c.frozenAt.Load()))
		}
		real := time.Since(c.realStart) //detlint:allow wallclock -- realtime pacing converts wall progress into emulated time
		return c.base.Add(time.Duration(float64(real) * c.scale))
	}
	return c.base.Add(time.Duration(c.virt.Load()))
}

// Sleep blocks the participant for an emulated duration d.
func (p *Participant) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	p.SleepUntil(p.c.Now().Add(d))
}

// SleepUntil parks the participant until the emulated instant t. The
// park reuses the participant's wake channel and wheel node on the
// participant's own shard, so the steady state allocates nothing and
// contends with no other shard.
func (p *Participant) SleepUntil(t time.Time) {
	c := p.c
	if c.realtime {
		c.SleepUntil(t)
		return
	}
	sh := &c.shards[p.shard]
	deadline := int64(t.Sub(c.base))
	sh.mu.Lock()
	if c.stopped.Load() || deadline <= c.virt.Load() {
		sh.mu.Unlock()
		return
	}
	p.s = sleeper{deadline: deadline, seq: c.seq.Add(1), ch: p.wake}
	sh.push(&p.s)
	sh.mu.Unlock()
	// The sleeper becomes eligible to be popped only once idle is
	// incremented: an advance requires idle == parts, and this
	// goroutine is counted in parts but not yet in idle.
	if c.idle.Add(1) == c.parts.Load() {
		c.tryAdvance()
	}
	select {
	case <-p.wake:
	case <-c.done:
	}
}

// Sleep blocks for an emulated duration d. This is the transient shim:
// the caller is accounted as a participant only for the duration of the
// park. Registered goroutines must use Participant.Sleep instead.
func (c *Clock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.SleepUntil(c.Now().Add(d))
}

// SleepUntil blocks until the emulated instant t. In virtual mode the
// caller becomes a transient parked waiter with a deadline (see
// Clock.Sleep); in realtime mode it sleeps for the scaled wall
// duration, interruptibly by Stop.
func (c *Clock) SleepUntil(t time.Time) {
	if c.realtime {
		emuLeft := t.Sub(c.Now())
		if emuLeft <= 0 {
			return
		}
		timer := time.NewTimer(time.Duration(float64(emuLeft) / c.scale)) //detlint:allow wallclock -- realtime SleepUntil waits out the scaled interval on a real timer
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-c.done:
		}
		return
	}
	sh := &c.shards[c.nextShard.Add(1)&(numShards-1)]
	sh.mu.Lock()
	deadline := int64(t.Sub(c.base))
	if c.stopped.Load() || deadline <= c.virt.Load() {
		sh.mu.Unlock()
		return
	}
	s := &sleeper{deadline: deadline, seq: c.seq.Add(1), ch: make(chan struct{}, 1), transient: true}
	sh.push(s)
	sh.mu.Unlock()
	c.parts.Add(1)
	if c.idle.Add(1) == c.parts.Load() {
		c.tryAdvance()
	}
	select {
	case <-s.ch:
	case <-c.done:
	}
}

// tryAdvance jumps virtual time to the earliest pending deadline when
// every participant is parked, waking every sleeper that becomes due.
// Waking a registered sleeper leaves idle < parts, ending the loop
// until that goroutine parks again; a woken transient sleeper vanishes
// from the accounting entirely (it may never touch the clock again), so
// the condition is re-evaluated and further jumps may fire immediately.
//
// The idle == parts check is a pair of atomic loads, re-evaluated under
// the jump mutex on every loop iteration. A torn read can only produce
// equality at instants where the condition genuinely held (every
// counter transition toward equality triggers its own tryAdvance, and
// transitions away from it mean the affected goroutine is runnable and
// will re-check when it parks), so jumps stay deterministic for fully
// registered emulations.
func (c *Clock) tryAdvance() {
	if c.realtime {
		return
	}
	// Due sleepers are collected into one batch under the jump mutex
	// (taking each shard lock exactly once per jump) but their wake
	// tokens are fanned out after every lock is released: a channel
	// send can wake a goroutine (a futex syscall under contention), and
	// doing that inside the critical section convoys other advance
	// attempts behind it. Popping a registered sleeper decrements idle,
	// so no further jump can fire until it parks again — sending its
	// token late is indistinguishable from the goroutine being slow to
	// run. A popped transient reopens the condition (it vanishes from
	// the accounting), and a popped timer closes it (the pending
	// callback holds the clock) until the callback has run; the outer
	// loop re-checks both.
	//
	// The fan-out list is read outside jumpMu, so it must not be shared
	// scratch: when a batch only popped transients, the condition stays
	// open and another goroutine may collect the next batch while this
	// one is still fanning out. Each advancer therefore borrows the
	// clock's scratch for its whole loop (or allocates its own if a
	// concurrent advancer holds it) and returns it on exit, so the
	// single-advancer steady state stays allocation-free.
	var fire []wakeItem
	borrowed := false
	for {
		c.jumpMu.Lock()
		if !borrowed {
			fire, c.fire, borrowed = c.fire, nil, true
		}
		fire = c.collectDue(fire[:0])
		if len(fire) == 0 {
			c.fire = fire
			c.jumpMu.Unlock()
			return
		}
		c.jumpMu.Unlock()
		for _, w := range fire {
			if w.fn != nil {
				// Timer callback: runs on this goroutine at the popped
				// instant, under the hold collectDue took for it.
				// Callbacks must not park (they broadcast, signal,
				// schedule — never wait).
				w.fn()
				c.parts.Add(-1) // release the hold; loop re-checks
				continue
			}
			select {
			case w.ch <- struct{}{}:
			default:
			}
		}
	}
}

// wakeItem is a popped sleeper's wake action, snapshotted under the
// jump lock. Fan-out must not touch the sleeper nodes themselves: the
// moment the first token of a batch is delivered, a woken goroutine may
// reuse its own node for the next park — or reschedule a popped Timer,
// whose node would be rewritten mid-fan-out.
type wakeItem struct {
	ch chan struct{}
	fn func()
}

// collectDue advances virtual time while every participant is parked,
// collecting every due sleeper across shards into one (deadline, seq)
// sorted batch and appending its wake actions to fire, the caller's
// own fan-out scratch. The caller holds jumpMu.
func (c *Clock) collectDue(fire []wakeItem) []wakeItem {
	batch := c.batch[:0]
	for !c.stopped.Load() && c.idle.Load() == c.parts.Load() {
		// Lock-free earliest-deadline summary: one atomic load per
		// shard names the next instant.
		min := int64(sleeperNone)
		for i := range c.shards {
			if e := c.shards[i].earliest.Load(); e < min {
				min = e
			}
		}
		if min == sleeperNone {
			break
		}
		virt := c.virt.Load()
		if min > virt {
			virt = min
			c.virt.Store(virt)
		}
		// Pop only shards whose summary says they have due work: in the
		// common case one shard owns the next instant and the other
		// locks are never touched. The summary is exact while every
		// participant is parked (nothing can push); the transient-shim
		// race can at worst delay an unregistered sleeper to the next
		// jump, which pop's <= comparison absorbs.
		n0 := len(batch)
		for i := range c.shards {
			if c.shards[i].earliest.Load() <= virt {
				batch = c.shards[i].popDue(virt, batch)
			}
		}
		// Account the batch before re-checking the loop condition:
		// registered sleepers return to the running state (idle--),
		// transients vanish (parts-- too), and timers take a hold
		// (parts++) released by tryAdvance after their callback runs.
		for _, s := range batch[n0:] {
			if s.fn != nil {
				c.parts.Add(1)
				continue
			}
			c.idle.Add(-1)
			if s.transient {
				c.parts.Add(-1)
			}
		}
	}
	c.batch = batch
	if len(batch) > 1 {
		// Same-instant wakes fire in (deadline, seq) order — exactly the
		// retired global heap's pop order — so event sequencing is
		// unchanged by the wheel. c.batch is a persistent field, so the
		// sort interface conversion does not allocate.
		sort.Sort(&c.batch)
	}
	for _, s := range batch {
		fire = append(fire, wakeItem{ch: s.ch, fn: s.fn})
	}
	return fire
}

// A Timer runs a callback at an emulated instant without dedicating a
// goroutine to waiting for it: the clock's jump loop fires the callback
// when virtual time reaches the scheduled deadline. Consumers use it
// for event-at-an-instant work that previously parked a whole goroutine
// per event (future conn aborts, wake-the-waiters watchers).
//
// The callback runs on the jump goroutine at the exact scheduled
// instant, while the clock is mid-jump: it must not park (no Sleep, no
// Cond.Wait) — broadcasting a Cond, signalling, or scheduling further
// timers is the intended use. In realtime mode the callback runs on a
// private goroutine after the scaled wall delay.
//
// Schedule and Stop may be called from any running goroutine. A timer
// holds at most one pending schedule: Schedule replaces the previous
// one. Stop cancels the pending schedule if the callback has not fired
// yet; a callback that is already firing cannot be recalled (it is
// idempotent in every consumer here).
type Timer struct {
	c     *Clock
	fn    func()
	shard uint32

	mu sync.Mutex // orders Schedule/Stop against each other
	s  *sleeper   // current node; recycled unless abandoned to overflow
	rt *rtTimer   // realtime mode
}

type rtTimer struct {
	stop atomic.Bool
}

// NewTimer returns an unscheduled timer firing fn, pinned to the next
// round-robin wheel shard.
func (c *Clock) NewTimer(fn func()) *Timer {
	return &Timer{c: c, fn: fn, shard: c.nextShard.Add(1) & (numShards - 1)}
}

// NewTimer returns an unscheduled timer firing fn, pinned to the
// participant's own wheel shard: events the participant schedules stay
// on the shard its parks already touch.
func (p *Participant) NewTimer(fn func()) *Timer {
	return &Timer{c: p.c, fn: fn, shard: p.shard}
}

// Schedule (re)schedules the timer to fire at the emulated instant t,
// replacing any pending schedule. An instant at or before the current
// emulated time runs the callback synchronously. On a stopped clock
// Schedule is a no-op (parked waiters have already been woken through
// the done channel).
func (t *Timer) Schedule(at time.Time) {
	c := t.c
	if c.Stopped() {
		return
	}
	if c.realtime {
		t.mu.Lock()
		if t.rt != nil {
			t.rt.stop.Store(true)
		}
		rt := &rtTimer{}
		t.rt = rt
		t.mu.Unlock()
		go func() { //detlint:allow baredgo -- realtime timers fire on an OS timer goroutine; virtual mode never runs this path
			c.SleepUntil(at)
			if !rt.stop.Load() && !c.Stopped() {
				t.fn()
			}
		}()
		return
	}
	// The hold pins virtual time across the push for unregistered
	// callers (mirroring Clock.Go's handoff window); for registered
	// callers it is a cheap no-op-equivalent pair of atomic adds.
	c.Hold()
	defer c.Release()
	t.mu.Lock()
	defer t.mu.Unlock()
	sh := &c.shards[t.shard]
	sh.mu.Lock()
	if t.s != nil && t.s.queued != sleeperIdle {
		if !sh.cancel(t.s) {
			t.s = nil // abandoned to the overflow heap
		}
	}
	deadline := int64(at.Sub(c.base))
	if c.stopped.Load() {
		sh.mu.Unlock()
		return
	}
	if deadline <= c.virt.Load() {
		sh.mu.Unlock()
		t.fn()
		return
	}
	if t.s == nil {
		t.s = &sleeper{}
	}
	*t.s = sleeper{deadline: deadline, seq: c.seq.Add(1), fn: t.fn}
	sh.push(t.s)
	sh.mu.Unlock()
}

// Stop cancels the pending schedule, if any. It does not wait for a
// callback that is already firing.
func (t *Timer) Stop() {
	c := t.c
	if c.realtime {
		t.mu.Lock()
		if t.rt != nil {
			t.rt.stop.Store(true)
			t.rt = nil
		}
		t.mu.Unlock()
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.s == nil {
		return
	}
	sh := &c.shards[t.shard]
	sh.mu.Lock()
	if t.s.queued != sleeperIdle && !sh.cancel(t.s) {
		t.s = nil // abandoned to the overflow heap
	}
	sh.mu.Unlock()
}

// Cond is a clock-aware condition variable: waiting parks the caller in
// a clock-visible state (so virtual time can advance past it), and
// signalling transfers the waiter back to the running state before the
// signaller can park, closing the wake-up race that would otherwise let
// the clock jump over a goroutine that is about to resume.
//
// Usage mirrors sync.Cond, with one extra rule: Signal and Broadcast
// must also be called with L held. Wait takes the caller's Participant
// handle; a nil participant accounts the caller as transient for the
// duration of the park (registered goroutines must pass their handle).
// A nil clock degrades to plain condition-variable behaviour (used by
// unit tests that exercise data structures without an emulation clock).
//
// Neither Wait nor wake touches any clock lock: parking is one atomic
// increment (plus an advance attempt when the caller was the last
// runner), waking one atomic decrement.
type Cond struct {
	clock   *Clock
	L       sync.Locker
	waiters []condWaiter
}

type condWaiter struct {
	ch        chan struct{}
	transient bool
	accounted bool
}

// NewCond returns a Cond bound to clock whose Wait/Signal/Broadcast are
// guarded by l. clock may be nil.
func NewCond(clock *Clock, l sync.Locker) *Cond {
	return &Cond{clock: clock, L: l}
}

// Wait atomically unlocks L and parks until woken by Signal or
// Broadcast, then relocks L before returning. p is the caller's
// Participant handle (nil for unregistered goroutines, which park as
// transients). Unlike sync.Cond there are no spurious wakeups, but
// callers should still re-check their predicate in a loop.
//
// Wait returns false when the clock has been stopped (at entry, or
// while parked): the wait's wake-up condition may never be signalled
// once the emulation is torn down, so callers must treat false as an
// abort rather than re-checking and waiting again.
func (cv *Cond) Wait(p *Participant) bool {
	w := condWaiter{}
	var stopCh <-chan struct{}
	advance := false
	c := cv.clock
	if c != nil {
		stopCh = c.done
		if c.Stopped() {
			return false
		}
		if c.realtime {
			w.ch = make(chan struct{}, 1)
		} else {
			if p != nil {
				w.ch = p.wake
			} else {
				w.ch = make(chan struct{}, 1)
				w.transient = true
				c.parts.Add(1)
			}
			w.accounted = true
			advance = c.idle.Add(1) == c.parts.Load()
		}
	} else {
		w.ch = make(chan struct{}, 1)
	}
	cv.waiters = append(cv.waiters, w)
	cv.L.Unlock()
	// The advance runs only after L is released: tryAdvance fires due
	// timer callbacks inline on this goroutine, and a callback may need
	// L itself (a request-deadline callback aborting the very conn this
	// goroutine parked reading) — firing under L would self-deadlock.
	// Running it here is safe against lost wakeups because the waiter is
	// already appended: any Signal/Broadcast issued from inside the
	// advance sees it. And it is safe against a stale condition because
	// tryAdvance re-checks idle == parts under the jump lock.
	if advance {
		c.tryAdvance()
	}
	ok := true
	select {
	case <-w.ch:
	case <-stopCh: // nil (blocks forever) when no clock is attached
		ok = false
	}
	cv.L.Lock()
	return ok
}

// Signal wakes the longest-waiting goroutine, if any. L must be held.
func (cv *Cond) Signal() {
	if len(cv.waiters) == 0 {
		return
	}
	w := cv.waiters[0]
	n := copy(cv.waiters, cv.waiters[1:])
	cv.waiters[n] = condWaiter{}
	cv.waiters = cv.waiters[:n]
	cv.wake(w)
}

// Broadcast wakes every waiter. L must be held.
func (cv *Cond) Broadcast() {
	for i, w := range cv.waiters {
		cv.waiters[i] = condWaiter{}
		cv.wake(w)
	}
	cv.waiters = cv.waiters[:0]
}

// wake returns the waiter to the running state before releasing it, so
// the clock sees it as active from the instant of the signal.
func (cv *Cond) wake(w condWaiter) {
	if w.accounted {
		c := cv.clock
		c.idle.Add(-1)
		if w.transient {
			c.parts.Add(-1)
			c.tryAdvance()
		}
	}
	select {
	case w.ch <- struct{}{}:
	default:
	}
}
