package netem

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestVirtualClockAdvancesToDeadline(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	start := c.Now()
	real := time.Now()                                  //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
	c.Sleep(10 * time.Second)                           // emulated
	if wall := time.Since(real); wall > 2*time.Second { //detlint:allow wallclock -- asserts the virtual run needs negligible wall time
		t.Fatalf("virtual 10s sleep took %v of wall time", wall)
	}
	if got := c.Now().Sub(start); got < 10*time.Second {
		t.Fatalf("clock advanced only %v, want >= 10s", got)
	}
}

func TestVirtualClockOrdersConcurrentSleepers(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	base := c.Now()
	delays := []time.Duration{300 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	// The hold pins virtual time until all three sleepers are
	// registered: Clock.Go only covers its own spawn, so without it the
	// first sleeper could park alone and fire before the others exist.
	c.Hold()
	for i, d := range delays {
		i, d := i, d
		wg.Add(1)
		c.Go(func(p *Participant) {
			defer wg.Done()
			p.SleepUntil(base.Add(d))
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	c.Release()
	wg.Wait()
	want := []int{1, 2, 0} // by ascending deadline
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("wake order = %v, want %v", order, want)
		}
	}
}

func TestVirtualClockNowMonotonic(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	prev := c.Now()
	for i := 0; i < 50; i++ {
		c.Sleep(time.Duration(i%7+1) * time.Millisecond)
		now := c.Now()
		if now.Before(prev) {
			t.Fatalf("clock went backwards: %v -> %v", prev, now)
		}
		prev = now
	}
}

func TestScaledClockCompressesSleep(t *testing.T) {
	c := NewScaledClock(100)
	defer c.Stop()
	real := time.Now()       //detlint:allow wallclock -- test measures wall-clock elapsed time on purpose
	c.Sleep(time.Second)     // emulated 1s -> ~10ms real
	wall := time.Since(real) //detlint:allow wallclock -- test measures wall-clock elapsed time on purpose
	if wall < 5*time.Millisecond || wall > 500*time.Millisecond {
		t.Fatalf("scaled sleep wall time = %v, want ~10ms", wall)
	}
	if got := c.Now().Sub(c.base); got < time.Second {
		t.Fatalf("emulated elapsed = %v, want >= 1s", got)
	}
}

func TestClockStopWakesSleepers(t *testing.T) {
	c := NewVirtualClock()
	done := make(chan struct{})
	c.Go(func(p *Participant) {
		p.SleepUntil(c.Now().Add(time.Hour))
		close(done)
	})
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	c.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("sleeper not released by Stop")
	}
}

// TestScaledClockStopInterruptsSleep checks the realtime mode: Stop must
// wake goroutines parked in scaled wall-clock sleeps, or Testbed.Close
// on a RealTimeScale run would leak goroutines stuck in time.Sleep.
func TestScaledClockStopInterruptsSleep(t *testing.T) {
	c := NewScaledClock(1) // plain real time
	done := make(chan struct{})
	go func() {
		c.Sleep(time.Hour)
		close(done)
	}()
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	real := time.Now()               //detlint:allow wallclock -- test measures wall-clock elapsed time on purpose
	c.Stop()
	select {
	case <-done:
		if wall := time.Since(real); wall > time.Second { //detlint:allow wallclock -- test measures wall-clock elapsed time on purpose
			t.Fatalf("Stop took %v to interrupt a realtime sleep", wall)
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("realtime sleeper not released by Stop")
	}
}

func TestSleepUntilPastReturnsImmediately(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()
	done := make(chan struct{})
	go func() {
		c.SleepUntil(c.Now().Add(-time.Minute))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("SleepUntil in the past blocked")
	}
}

// TestVirtualClockWaitsForActiveParticipants verifies the waiter
// accounting: a registered participant that is runnable (not parked)
// pins virtual time, even while other participants sleep.
func TestVirtualClockWaitsForActiveParticipants(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	release := make(chan struct{})
	parked := make(chan struct{})
	var wake time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	// The hold covers the window between the two spawns: the sleeper
	// must not park alone and fire before the blocker is registered.
	c.Hold()
	c.Go(func(p *Participant) {
		defer wg.Done()
		p.Sleep(50 * time.Millisecond)
		wake = c.Now()
	})
	c.Go(func(*Participant) {
		defer wg.Done()
		close(parked)
		<-release // deliberately invisible: holds the clock still
	})
	c.Release()
	<-parked
	//detlint:allow wallclock -- real sleep in real-time mode: no virtual jump may happen
	time.Sleep(20 * time.Millisecond) // real time: no jump may happen
	if got := c.Now().Sub(c.base); got != 0 {
		t.Fatalf("clock advanced %v while a participant was runnable", got)
	}
	close(release)
	wg.Wait()
	if got := wake.Sub(c.base); got != 50*time.Millisecond {
		t.Fatalf("sleeper woke at +%v, want +50ms", got)
	}
}

// TestVirtualClockDeterministicTimestamps runs the same multi-goroutine
// sleep schedule twice and requires bit-identical wake timestamps — the
// property the waiter-accounted clock guarantees and the old
// quiet-polling advancer could not.
func TestVirtualClockDeterministicTimestamps(t *testing.T) {
	run := func() []time.Duration {
		c := NewVirtualClock()
		defer c.Stop()
		var mu sync.Mutex
		var wakes []time.Duration
		var wg sync.WaitGroup
		// The hold keeps the clock from jumping until all four sleepers
		// exist: otherwise an early one could park alone and advance
		// time before the later ones start.
		c.Hold()
		for g := 0; g < 4; g++ {
			g := g
			wg.Add(1)
			c.Go(func(p *Participant) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g) + 1))
				for i := 0; i < 25; i++ {
					p.Sleep(time.Duration(rng.Intn(5000)+1) * time.Microsecond)
					mu.Lock()
					wakes = append(wakes, c.Now().Sub(c.base))
					mu.Unlock()
				}
			})
		}
		c.Release()
		wg.Wait()
		return wakes
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("wake counts differ: %d vs %d", len(a), len(b))
	}
	// Per-goroutine schedules are independent, so the multiset of wake
	// times must match exactly; the final instant must too.
	counts := map[time.Duration]int{}
	for _, d := range a {
		counts[d]++
	}
	for _, d := range b {
		counts[d]--
	}
	for d, n := range counts {
		if n != 0 {
			t.Fatalf("wake time %v seen %+d more times in first run", d, n)
		}
	}
	if a[len(a)-1] != b[len(b)-1] {
		t.Fatalf("final virtual instants differ: %v vs %v", a[len(a)-1], b[len(b)-1])
	}
}

// TestClockConcurrentRegisterSleepStop hammers registration, sleeping
// and Stop from many goroutines; run with -race. Every sleeper must be
// released, by jump or by Stop.
func TestClockConcurrentRegisterSleepStop(t *testing.T) {
	for round := 0; round < 20; round++ {
		c := NewVirtualClock()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			c.Go(func(p *Participant) {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					p.Sleep(time.Duration(g*7+i%5+1) * time.Millisecond)
				}
			})
			// Unregistered transient sleepers racing with the registered
			// ones and with Stop.
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					c.Sleep(time.Duration(i%3+1) * time.Millisecond)
				}
			}()
		}
		if round%2 == 0 {
			time.Sleep(time.Duration(round%5) * time.Millisecond) //detlint:allow wallclock -- real sleep staggers racing participants in wall time
			c.Stop()
		}
		wg.Wait()
		c.Stop()
	}
}

// TestCondWaitReleasedByStop checks that Stop unwedges Cond waiters:
// their wake-up condition may never be signalled once the emulation is
// torn down, so Wait must return false instead of parking forever.
func TestCondWaitReleasedByStop(t *testing.T) {
	c := NewVirtualClock()
	var mu sync.Mutex
	cond := NewCond(c, &mu)
	done := make(chan bool, 1)
	c.Go(func(p *Participant) {
		mu.Lock()
		ok := cond.Wait(p)
		mu.Unlock()
		done <- ok
	})
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	c.Stop()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Cond.Wait returned true after Stop")
		}
	case <-time.After(2 * time.Second): //detlint:allow wallclock -- test watchdog against emulator deadlock runs on wall time
		t.Fatal("Cond.Wait not released by Stop")
	}
	// Waiting on an already-stopped clock must not park at all.
	mu.Lock()
	ok := cond.Wait(nil)
	mu.Unlock()
	if ok {
		t.Fatal("Cond.Wait on a stopped clock returned true")
	}
}

// TestCondSignalTransfersCredit checks the Cond handoff: a consumer
// parked on a Cond must not be jumped over once signalled, so a
// producer-consumer pair observes production and consumption at the
// same virtual instant.
func TestCondSignalTransfersCredit(t *testing.T) {
	c := NewVirtualClock()
	defer c.Stop()

	var mu sync.Mutex
	cond := NewCond(c, &mu)
	ready := false
	var consumedAt time.Time
	var producedAt time.Time
	var wg sync.WaitGroup
	wg.Add(2)
	c.Go(func(p *Participant) {
		defer wg.Done()
		mu.Lock()
		for !ready {
			cond.Wait(p)
		}
		mu.Unlock()
		consumedAt = c.Now()
		p.Sleep(time.Millisecond)
	})
	c.Go(func(p *Participant) {
		defer wg.Done()
		p.Sleep(10 * time.Millisecond)
		mu.Lock()
		ready = true
		producedAt = c.Now()
		cond.Signal()
		mu.Unlock()
		// A second sleeper with a nearer deadline than anything the
		// consumer will set: if the signal failed to transfer credit,
		// the clock could jump here before the consumer reads Now.
		p.Sleep(time.Microsecond)
	})
	wg.Wait()
	if !consumedAt.Equal(producedAt) {
		t.Fatalf("consumer observed %v, producer signalled at %v",
			consumedAt.Sub(c.base), producedAt.Sub(c.base))
	}
}

// TestStopFreezesNow pins the post-teardown time contract: once Stop
// has run, Now returns the stop instant forever, in both clock modes —
// so accessors consulted after teardown (player buffer levels, metrics
// of cancelled sessions) read one stable emulated time instead of a
// wall clock that keeps running.
func TestStopFreezesNow(t *testing.T) {
	c := NewScaledClock(1000)        // 1 ms wall ≈ 1 s emulated: drift is obvious
	time.Sleep(2 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	c.Stop()
	frozen := c.Now()
	time.Sleep(5 * time.Millisecond) //detlint:allow wallclock -- real sleep lets goroutines park before asserting waiter accounting
	if !c.Now().Equal(frozen) {
		t.Fatalf("scaled clock advanced after Stop: %v -> %v", frozen, c.Now())
	}

	v := NewVirtualClock()
	v.Go(func(p *Participant) { p.Sleep(3 * time.Second) })
	v.Sleep(time.Second)
	v.Stop()
	vf := v.Now()
	if got := v.Now(); !got.Equal(vf) {
		t.Fatalf("virtual clock moved after Stop: %v -> %v", vf, got)
	}
}
