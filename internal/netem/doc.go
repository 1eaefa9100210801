// Package netem is a userspace network emulator used as the testbed
// substrate for MSPlayer experiments.
//
// It provides net.Conn / net.Listener implementations whose byte streams
// are subject to per-direction bandwidth pacing, propagation delay,
// jitter, random loss (modelled as head-of-line retransmission penalty),
// time-varying rate traces, and an optional TCP-like slow-start ramp.
// HTTP clients and servers run on top of it unmodified, so the full
// range-request machinery of MSPlayer is exercised end to end.
//
// All emulated waiting goes through a Clock. The Clock has two modes:
//
//   - Virtual (the default): a deterministic discrete-event clock driven
//     by waiter accounting. Every emulation participant — pipe readers
//     and writers, session drivers, origin request handlers, fault
//     injectors — registers with the clock (Clock.Register or
//     Clock.Go), receiving a *Participant handle, and parks only
//     through clock-visible primitives: Participant.Sleep/SleepUntil
//     for deadline waits and Cond.Wait for emulated-I/O waits. The
//     instant every registered participant is parked, the clock jumps
//     to the earliest pending deadline and wakes the sleepers that
//     become due. There are no wall-clock sleeps and no quiescence
//     polling, so hours of emulated streaming complete as fast as the
//     CPU allows and the event order is bit-for-bit reproducible across
//     machines and load conditions.
//
//   - Scaled real time: emulated durations are divided by a constant
//     factor and slept for real (interruptibly by Clock.Stop). Useful
//     for interactive demos.
//
// # Participant handles
//
// The Participant handle is the unit of clock accounting, introduced to
// make the hot path O(1) at fleet scale (the previous design parsed the
// goroutine id out of runtime.Stack on every park and looked it up in a
// global registration map under the clock lock). The rules:
//
//  1. Registered goroutines must never park invisibly (bare channel
//     operations, time.Sleep): the clock would refuse to jump while
//     they wait. Park through the goroutine's Participant or pass it to
//     Cond.Wait. The no-wall-clock half of this rule is mechanically
//     enforced by detlint/wallclock (see internal/detlint): time.Now,
//     time.Sleep, time.After and friends are findings outside
//     //detlint:allow-justified sites.
//  2. Goroutines are spawned with Clock.Go (or under a Hold), so the
//     clock cannot jump during the handoff between spawner and spawnee;
//     Go passes the new goroutine its Participant. Mechanically
//     enforced by detlint/baredgo: a bare go statement in a non-test
//     file is a finding.
//  3. Wake-ups transfer accounting to the wakee at signal time
//     (Cond.Signal pre-credits the waiter), so there is no window in
//     which a runnable goroutine is invisible to the clock.
//  4. A Participant belongs to one goroutine at a time, and a
//     registered goroutine holds exactly one: code called on behalf of
//     an already-registered caller takes the caller's handle (see
//     Interface.Dial, Listener.AcceptP, Conn.Bind) instead of
//     registering again — a second registration for the same goroutine
//     would deadlock the accounting. core.Player.Run registers its
//     caller, so registered code starts sessions with
//     core.Player.RunEvented instead.
//
// Unregistered goroutines may still use the clock-level blocking
// shims (Clock.Sleep, Clock.SleepUntil, Cond.Wait with nil, Accept,
// DialContext): they are accounted as transient participants while
// parked. This keeps casual use (tests, example main functions)
// working, at reduced determinism while such a goroutine is runnable.
// Registered goroutines must not call the transient shims: the clock
// would count them twice and wedge.
//
// # Shutdown and draining
//
// Teardown is part of the deterministic model, not an afterthought: a
// connection abort is a scheduled clock event, never a racy side
// effect. Conn.AbortAt(t, err) (and Conn.Abort, its t=now shorthand)
// schedules a hard failure of both directions at the emulated instant
// t, and from there every endpoint behaviour is a pure function of
// virtual time:
//
//   - Reads and writes fail with err exactly from t onward.
//   - Segments that arrived at or before t stay deliverable — a reader
//     drains them first, even if it is only scheduled after t — then
//     sees err (the delivered-before-abort rule).
//   - Segments that would arrive strictly after t are dropped in
//     flight: the sender's pre-t writes are accepted (it cannot tell
//     yet), but the bytes never reach the peer (the dropped-at-abort
//     rule). Strict inequality keeps same-instant races commutative: a
//     segment arriving exactly at t is delivered whether or not its
//     reader beat the abort to it.
//   - The earliest scheduled abort wins; later re-schedules are no-ops,
//     so redundant abort sources (a teardown sweep, a per-request
//     cancellation watcher, interface loss) commute.
//
// Who initiates, and what parks where: an initiator that is RUNNABLE
// and registered (a fleet session's teardown, a fault injector) pins
// virtual time while it sweeps its connections, so every abort in the
// sweep lands at one deterministic instant T; everything parked at T —
// session machines awaiting readability, server loops in request reads
// or paced writes — wakes through the abort's Cond broadcast or
// readiness callback and observes err by the rules above, at instants
// the clock alone decides. The only
// scheduling races left are between goroutines runnable at the very
// same virtual instant, which the protocol makes commute. Clock.Stop is
// the out-of-band big hammer for ending an emulation from outside
// emulated time: it wakes every parked waiter and freezes Now() at the
// stop instant in both clock modes, so post-stop accessors read one
// stable time instead of a wall clock that keeps running.
//
// Consumers build drain barriers on these semantics: httpx.Server
// counts its per-connection loops and Server.Drain parks a caller (via
// Cond) until they unwind, origin.Cluster.Drain chains that across
// every server, and the fleet engine joins that barrier on the clock
// after its sessions finish, then samples the per-origin books exactly
// once — final, settled, and bit-identical per seed, with no wall-clock
// quiescence polling anywhere.
//
// # Timer wheel
//
// Pending deadlines live in a sharded hierarchical timer wheel rather
// than one global heap, so deadline scheduling is not a single lock the
// whole emulation serialises on:
//
//   - Sharding is participant-affine: Register assigns each Participant
//     one of the wheel's shards (round-robin), and every deadline park
//     the participant makes touches only that shard's lock and cache
//     lines, reusing the handle's embedded wheel node. Transient parks
//     and timers are spread round-robin the same way. Two participants
//     on different shards never contend on a park.
//   - Each shard is a coarse-bucket wheel with an overflow level:
//     ~1 ms buckets (deadlines keep full nanosecond resolution — the
//     bucket width only coarsens the index, never the firing instant)
//     spanning a ~268 ms horizon, with beyond-horizon deadlines in a
//     per-shard min-heap that re-homes into buckets as the wheel
//     advances. The dense deadline band (propagation delays, pacing
//     quanta, think times) is an O(1) bucket append; only coarse
//     session-scale waits pay a heap push, once.
//   - The jump loop finds the next instant from a lock-free summary:
//     each shard maintains its earliest pending deadline in an atomic,
//     and the loop scans those (O(shards), no locks) before touching
//     only the shards that actually own the instant.
//   - Same-instant wakes are batched: all sleepers due at the jump
//     instant across all shards are popped as one batch, and their wake
//     tokens are fanned out after every shard lock is released, sorted
//     by (deadline, seq) — the exact order the retired global heap
//     popped in, so event sequencing (and with it every report byte) is
//     unchanged. A differential test drives randomized schedules
//     through the retired heap and the wheel and asserts identical
//     firing sequences.
//
// The wheel also backs Timer, an event-at-an-instant callback that
// replaces dedicated watcher goroutines (future conn aborts park no
// goroutine at all): the jump loop runs the callback at the scheduled
// instant, holding the clock until it completes, and Timer.Stop /
// re-Schedule cancel the pending entry in place.
//
// # Timer-driven fault callbacks
//
// Timers are the substrate for deterministic fault injection (request
// deadlines in httpx, the fleet fault-plan engine's server kills,
// blackholes and edge outages): arming a Timer at an exact virtual
// instant makes the fault — and its recovery — part of the event
// schedule, so two runs of the same plan fail identically. Callbacks
// run under tight rules:
//
//  1. A callback executes on whichever goroutine performs the jump, at
//     the popped instant, under a clock hold collectDue took for it.
//     Same-instant timers fire in (deadline, seq) order, so arming
//     order decides firing order at a shared instant.
//  2. Callbacks must not park — no Sleep, no Cond.Wait, no emulated
//     I/O. The clock is held; a parking callback wedges the jump loop.
//     Broadcast, signal, abort, schedule another timer: fine. Follow-up
//     work that must park (an edge cold-restart re-deploying a server)
//     is done synchronously only if the API is documented park-free
//     (origin.Cluster.Restart is), otherwise deferred to a registered
//     goroutine woken by the callback.
//  3. Callbacks may take emulation locks — abort a conn, flip a
//     server's blackhole flag — because every park site releases its
//     lock before advancing the clock: Cond.Wait appends its waiter,
//     unlocks L, and only then attempts the advance that may run
//     callbacks inline. (A callback firing under the parker's L would
//     self-deadlock; the request-deadline callback aborting the very
//     conn its goroutine parked reading is the canonical case.)
//  4. No bare goroutines from callbacks: anything spawned goes through
//     Clock.Go, same as everywhere else (detlint/baredgo enforces it),
//     or the spawned work would be invisible to the accounting and the
//     clock could jump past it.
//  5. Resilience state (core's circuit breakers, health scores, hedge
//     service windows) is never read or written from a timer callback.
//     The hedge timer's callback only enqueues the abort of the
//     in-flight conn at the budget instant — mechanism, not policy; the
//     resulting error is observed by the path's event-loop step, which
//     alone advances breaker/hedge state at selection and completion
//     instants. Callbacks mutating that state would make the outcome
//     depend on where a jump happened to run a timer, so reports could
//     diverge byte-wise between runs.
//
// # Timer-driven state machines
//
// The blocking Conn API costs one parked goroutine per pending read or
// write. The event-driven API (Conn.OnReadable, Conn.ReadBuf,
// Conn.Release, Conn.TryWrite/TryWriteStable, Conn.OnWritable,
// DialEvent, and Loop to serialise machine steps) removes the
// goroutine: a whole session's I/O runs as a state machine stepped by
// timer-wheel callbacks, so a fleet's goroutine count is O(cores +
// servers) instead of O(sessions × paths). Both APIs share every byte
// of pacing, arrival, flow-control and abort machinery, so a
// callback-driven connection produces exactly the virtual-time
// timeline a goroutine-driven one does (the httpx timeline tests pin
// this against the blocking client and server, which edges still
// use). The rules extend the fault-callback rules above:
//
//  1. Readiness callbacks fire on the clock's jump goroutine (or
//     synchronously on a mutating caller) under a clock hold and must
//     not park — no Sleep, no Cond.Wait, no blocking Read/Write.
//     Drain, re-arm, schedule, hand the rest to a Loop step: fine.
//  2. Callbacks are level triggers, not edge counts: a firing may be
//     spurious and one firing may cover many arrivals. Consumers drain
//     until ReadBuf returns (nil, nil) (or TryWrite stops accepting)
//     and rely on the next firing for the rest.
//  3. ReadBuf hands out a borrowed view of the oldest arrived,
//     unconsumed bytes — zero-copy: the view aliases the direction's
//     pooled segment buffer. The borrow lifetime is explicit: a view
//     stays valid until the caller has Released that many bytes, and
//     releases are strictly FIFO per direction. Flow control is
//     charged at borrow time — ReadBuf decrements the sender's
//     send-buffer accounting exactly when the blocking read's copy
//     would, so a consumer that sits on unreleased views delays only
//     its own memory reclamation, never the wire timeline. Escaping a
//     view past its Release (storing it, appending to it, capturing it
//     in a spawned closure) is a buffer-ownership bug;
//     detlint/borrowck flags retention mechanically.
//  4. Machines that span several connections serialise their steps
//     through a Loop: steps run one at a time in FIFO order, and a
//     step enqueued from within a step (a connection callback calling
//     straight back into the machine) is deferred until the running
//     step returns, so machines need no reentrant locking. Loop.Do
//     never parks.
//  5. Waiting is always a Timer, never a poll: a machine that needs a
//     deadline (request timeout, scheduler backoff) arms a Timer whose
//     callback enqueues the next step. Between callbacks a machine
//     occupies no goroutine and the clock sees only its timers, so the
//     jump loop's waiter accounting stays exact.
//
// core.Player.RunEvented is the reference consumer, and the only
// session engine: the full MSPlayer session (bootstrap, multi-path
// fetch loops, failover backoff, playout gate) as one such machine.
// core.Player.Run drives it for a single caller by parking one
// registered goroutine in a Cond until the machines finish.
//
// Internally the participant/idle counters are atomics and the jump
// mutex guards only the jump loop itself; wake tokens are delivered
// outside every lock. Parks reuse the participant's wake channel and
// wheel node, so steady-state parking allocates nothing
// (TestWheelParkAllocs pins this, and bucket arrays are reused across
// jumps).
//
// # Pooling invariants
//
// The data plane recycles payload buffers to keep fleet-scale runs out
// of the allocator:
//
//   - Segment buffers (direction.write → read) come from a process-wide
//     sync.Pool. A buffer is owned by the direction's queue from
//     enqueue until the reader consumes its last byte (or the direction
//     aborts), then returns to the pool. Ring-buffer queues zero popped
//     slots, so a drained connection pins no payload memory (the old
//     `q = q[1:]` re-slicing retained every delivered segment for the
//     connection's lifetime).
//   - Segments enqueued at an identical arrival instant coalesce into
//     the queue tail when the pooled buffer has room; arrival instants
//     and byte order are unchanged, only queue churn shrinks.
//   - The jitter/loss rng is seeded lazily on the first draw; links
//     with neither jitter nor loss never pay the ~600-word math/rand
//     seeding. Draw sequences are unchanged for links that do draw.
//
// Consumers keep their own pools layered on the same idea: httpx pools
// connection bufio.Readers and response-body scratch, and core hands
// borrowed range-body views back to their connections after in-order
// delivery. In every
// case the invariant is the same: a buffer returns to its pool only
// after the last reader of its bytes has finished, and pooled buffers
// above a size cap are dropped so one-off spikes cannot pin memory.
// The retention half of these rules is mechanically enforced by
// detlint/borrowck: storing a borrowed view (a CachedSlice result, a
// WriteStable argument, a pooled payload) into longer-lived state,
// capturing it in a spawned closure, or growing it with append is a
// finding. Likewise detlint/globalrand keeps every rng seed-derived and
// detlint/maprange keeps map-iteration order out of anything
// observable; `go run ./cmd/detlint ./...` runs the whole suite.
//
// The emulator is a fluid model at a configurable pacing quantum
// (default 20 ms of line time per delivery segment): transfer durations,
// per-request round trips and slow-start ramps are exact at quantum
// granularity, which is far finer than the chunk sizes (16 KB..1 MB)
// scheduled by the systems under test.
package netem
