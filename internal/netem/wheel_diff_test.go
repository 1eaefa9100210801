package netem

import (
	"container/heap"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// This file differentially tests the sharded timer wheel against the
// retired implementation it replaced: one global container/heap ordered
// by (deadline, seq). The virtual clock's determinism contract says the
// wheel must fire sleepers in exactly the sequence the heap popped them
// — including same-instant ties, cancellations, and deadlines that
// straddle the bucket horizon — so randomized schedules are driven
// through both structures and the firing sequences compared
// element-by-element across many seeds.

// refHeap is the retired scheduler: the exact sleeperHeap that used to
// live in clock.go, popped in (deadline, seq) order.
type refHeap []*sleeper

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].deadline != h[j].deadline {
		return h[i].deadline < h[j].deadline
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*sleeper)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// refScheduler wraps refHeap with the retired jump-loop semantics:
// min() names the next instant, popDue collects everything due at or
// before it (skipping cancelled entries, as the wheel does).
type refScheduler struct{ h refHeap }

func (r *refScheduler) push(s *sleeper) { heap.Push(&r.h, s) }

func (r *refScheduler) min() int64 {
	for len(r.h) > 0 && r.h[0].cancelled {
		heap.Pop(&r.h)
	}
	if len(r.h) == 0 {
		return sleeperNone
	}
	return r.h[0].deadline
}

func (r *refScheduler) popDue(t int64) []*sleeper {
	var due []*sleeper
	for len(r.h) > 0 && r.h[0].deadline <= t {
		s := heap.Pop(&r.h).(*sleeper)
		if !s.cancelled {
			due = append(due, s)
		}
	}
	return due
}

// wheelScheduler wraps a set of shards with the new jump-loop
// semantics: lock-free earliest summary for min(), per-shard popDue
// merged into one (deadline, seq)-sorted batch — the exact code path
// Clock.collectDue runs, minus the participant accounting.
type wheelScheduler struct {
	shards []*clockShard
}

func newWheelScheduler(n int) *wheelScheduler {
	w := &wheelScheduler{}
	for i := 0; i < n; i++ {
		sh := &clockShard{}
		sh.earliest.Store(sleeperNone)
		w.shards = append(w.shards, sh)
	}
	return w
}

func (w *wheelScheduler) push(shard int, s *sleeper) {
	sh := w.shards[shard%len(w.shards)]
	sh.mu.Lock()
	sh.push(s)
	sh.mu.Unlock()
}

func (w *wheelScheduler) min() int64 {
	min := int64(sleeperNone)
	for _, sh := range w.shards {
		if e := sh.earliest.Load(); e < min {
			min = e
		}
	}
	return min
}

func (w *wheelScheduler) popDue(t int64) []*sleeper {
	var batch sleeperBatch
	for _, sh := range w.shards {
		if sh.earliest.Load() <= t {
			batch = sh.popDue(t, batch)
		}
	}
	sort.Sort(&batch)
	return batch
}

func (w *wheelScheduler) cancel(shard int, s *sleeper) {
	sh := w.shards[shard%len(w.shards)]
	sh.mu.Lock()
	if s.queued != sleeperIdle {
		sh.cancel(s)
	}
	sh.mu.Unlock()
}

// TestWheelMatchesRetiredHeap drives a randomized schedule — parks at
// mixed ranges (same-bucket, cross-bucket, beyond the overflow
// horizon), same-instant ties, and timer cancellations (the abort
// path) — through the retired heap and the sharded wheel, asserting
// identical firing sequences, jump instants, and emptiness across 100
// seeds.
func TestWheelMatchesRetiredHeap(t *testing.T) {
	const (
		seeds      = 100
		opsPerSeed = 400
	)
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := &refScheduler{}
		wheel := newWheelScheduler(numShards)

		type entry struct {
			refS, wheelS *sleeper
			shard        int
		}
		var (
			virt int64
			seq  int64
			live []entry
		)
		push := func(deadline int64) {
			seq++
			shard := rng.Intn(numShards)
			// Two nodes with identical ordering keys, one per structure:
			// the structures take ownership of what they queue.
			rs := &sleeper{deadline: deadline, seq: seq}
			ws := &sleeper{deadline: deadline, seq: seq}
			ref.push(rs)
			wheel.push(shard, ws)
			live = append(live, entry{refS: rs, wheelS: ws, shard: shard})
		}
		newDeadline := func() int64 {
			switch rng.Intn(10) {
			case 0, 1, 2: // same-bucket: sub-granularity offsets
				return virt + 1 + rng.Int63n(1<<granShift)
			case 3, 4, 5, 6: // in-horizon: the steady-state band
				return virt + 1 + rng.Int63n(int64(wheelBuckets)<<granShift-1)
			case 7, 8: // beyond the horizon: overflow level
				return virt + (int64(wheelBuckets) << granShift) + rng.Int63n(50*int64(time.Second))
			default: // far future
				return virt + rng.Int63n(500*int64(time.Second))
			}
		}

		for op := 0; op < opsPerSeed; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // park
				d := newDeadline()
				push(d)
				if rng.Intn(3) == 0 { // same-instant tie
					push(d)
				}
			case k < 7 && len(live) > 0: // cancel (abort-watcher reschedule path)
				i := rng.Intn(len(live))
				e := live[i]
				e.refS.cancelled = true
				wheel.cancel(e.shard, e.wheelS)
				live = append(live[:i], live[i+1:]...)
			default: // jump to the next instant and compare firing order
				rmin, wmin := ref.min(), wheel.min()
				if rmin != wmin {
					t.Fatalf("seed %d op %d: next instant diverged: heap %d, wheel %d", seed, op, rmin, wmin)
				}
				if rmin == sleeperNone {
					continue
				}
				virt = rmin
				rdue, wdue := ref.popDue(virt), wheel.popDue(virt)
				if len(rdue) != len(wdue) {
					t.Fatalf("seed %d op %d: batch size diverged at %d: heap %d, wheel %d",
						seed, op, virt, len(rdue), len(wdue))
				}
				for i := range rdue {
					if rdue[i].deadline != wdue[i].deadline || rdue[i].seq != wdue[i].seq {
						t.Fatalf("seed %d op %d: firing order diverged at %d[%d]: heap (%d,%d), wheel (%d,%d)",
							seed, op, virt, i,
							rdue[i].deadline, rdue[i].seq, wdue[i].deadline, wdue[i].seq)
					}
				}
				fired := make(map[int64]bool, len(rdue))
				for _, s := range rdue {
					fired[s.seq] = true
				}
				keep := live[:0]
				for _, e := range live {
					if !fired[e.refS.seq] {
						keep = append(keep, e)
					}
				}
				live = keep
			}
		}
		// Drain both completely: every remaining entry must fire, in
		// the same order, across as many jumps as it takes.
		for {
			rmin, wmin := ref.min(), wheel.min()
			if rmin != wmin {
				t.Fatalf("seed %d drain: next instant diverged: heap %d, wheel %d", seed, rmin, wmin)
			}
			if rmin == sleeperNone {
				break
			}
			virt = rmin
			rdue, wdue := ref.popDue(virt), wheel.popDue(virt)
			if len(rdue) != len(wdue) {
				t.Fatalf("seed %d drain: batch size diverged at %d: heap %d, wheel %d", seed, virt, len(rdue), len(wdue))
			}
			for i := range rdue {
				if rdue[i].seq != wdue[i].seq {
					t.Fatalf("seed %d drain: firing order diverged at %d[%d]", seed, virt, i)
				}
			}
		}
	}
}

// TestTimerFiresAtScheduledInstant pins the goroutine-free timer path:
// the callback runs at exactly the scheduled virtual instant, ordered
// with sleeping participants, and a Stop before the instant suppresses
// it.
func TestTimerFiresAtScheduledInstant(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	start := clock.Now()

	firedAt := make(chan time.Duration, 1)
	done := make(chan struct{})
	// Scheduling happens on a registered goroutine, as in real use: the
	// scheduler is a live participant, so the clock cannot jump until it
	// parks — anchoring the timer to the instant of the schedule.
	clock.Go(func(p *Participant) {
		timer := p.NewTimer(func() { firedAt <- clock.Now().Sub(start) })
		timer.Schedule(start.Add(30 * time.Millisecond))
		p.Sleep(50 * time.Millisecond)
		close(done)
	})
	<-done
	select {
	case d := <-firedAt:
		if d != 30*time.Millisecond {
			t.Fatalf("timer fired at +%v, want +30ms", d)
		}
	default:
		t.Fatal("timer never fired although virtual time passed its instant")
	}
}

// TestTimerStopAndReschedule exercises the cancel paths of the wheel:
// a stopped timer never fires, and rescheduling replaces the pending
// instant (the earliest-abort-wins reschedule in the conn protocol).
func TestTimerStopAndReschedule(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()
	start := clock.Now()

	var fired []time.Duration
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	timer := clock.NewTimer(func() {
		<-mu
		fired = append(fired, clock.Now().Sub(start))
		mu <- struct{}{}
	})

	far := clock.NewTimer(func() {
		<-mu
		fired = append(fired, clock.Now().Sub(start))
		mu <- struct{}{}
	})
	stopped := clock.NewTimer(func() { t.Error("stopped timer fired") })

	done := make(chan struct{})
	// All scheduling happens on a registered goroutine (as in real use —
	// otherwise an idle clock jumps to each schedule the moment it is
	// made).
	clock.Go(func(p *Participant) {
		stopped.Schedule(start.Add(10 * time.Millisecond))
		stopped.Stop()

		// Schedule at +40ms, then move earlier to +20ms: only +20ms fires.
		timer.Schedule(start.Add(40 * time.Millisecond))
		timer.Schedule(start.Add(20 * time.Millisecond))

		// A beyond-horizon schedule moved inside the horizon exercises
		// the overflow-abandonment path of cancel.
		far.Schedule(start.Add(10 * time.Second))
		far.Schedule(start.Add(25 * time.Millisecond))

		p.Sleep(60 * time.Millisecond)
		close(done)
	})
	<-done
	<-mu
	defer func() { mu <- struct{}{} }()
	if len(fired) != 2 || fired[0] != 20*time.Millisecond || fired[1] != 25*time.Millisecond {
		t.Fatalf("fired at %v, want [20ms 25ms]", fired)
	}
}

// TestWheelParkAllocs guards the zero-alloc park path: steady-state
// deadline parks of a registered participant — a wheel bucket append
// reusing the participant's node, the jump, and the wake — must not
// allocate, and bucket arrays must be reused across jumps.
func TestWheelParkAllocs(t *testing.T) {
	clock := NewVirtualClock()
	defer clock.Stop()

	result := make(chan float64, 1)
	clock.Go(func(p *Participant) {
		// Mixed distances: same-bucket, cross-bucket, and a re-homed
		// overflow entry all stay on the reused backing arrays.
		pair := func() {
			p.Sleep(100 * time.Microsecond)
			p.Sleep(3 * time.Millisecond)
		}
		// Warm the shard for more than one wheel revolution (~268 ms of
		// virtual time): each bucket's backing array is allocated on its
		// first use, about one per pair on the first pass, so a cold
		// measurement sat just under AllocsPerRun's truncation to zero
		// and one stray allocation elsewhere in the process tipped it.
		for i := 0; i < 200; i++ {
			pair()
		}
		result <- testing.AllocsPerRun(200, pair)
	})
	select {
	case avg := <-result:
		if avg > 0 {
			t.Fatalf("steady-state wheel park allocates %.2f times per park pair, want 0", avg)
		}
	case <-time.After(10 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("park loop did not finish")
	}
}
