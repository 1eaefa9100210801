package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// engineTrace runs a fixed client workload against a server on one
// engine (blocking goroutines or the event loop) and returns a trace
// of everything observable: client-side response content and
// completion instants, server-side request hook records, and the
// abort/blackhole/drain milestones. The two engines must produce the
// same multiset of records — same bytes, same virtual instants —
// which is the cross-engine byte-identity contract the committed
// fleet reports rely on.
//
// The link is deliberately hostile: slow-start, jitter and loss (so
// the per-direction rng draw order must match push for push), and a
// small send buffer (so response pumps experience backpressure and
// resume through OnWritable at the same instants the blocking writer
// re-wakes from its cond).
func engineTrace(t *testing.T, evented bool) []string {
	t.Helper()
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	epoch := clock.Now()

	var mu sync.Mutex
	var trace []string
	record := func(format string, args ...any) {
		mu.Lock()
		trace = append(trace, fmt.Sprintf("%v "+format,
			append([]any{clock.Now().Sub(epoch)}, args...)...))
		mu.Unlock()
	}

	pre := make([]byte, 200)
	tail := make([]byte, 100)
	stableBody := make([]byte, 300<<10)
	for i := range stableBody {
		stableBody[i] = byte(i * 13)
	}
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}

	type stableW interface {
		WriteStable([]byte) (int, error)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/stable", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(pre)+len(stableBody)+len(tail)))
		if _, err := w.Write(pre); err != nil {
			return
		}
		if _, err := w.(stableW).WriteStable(stableBody); err != nil {
			return
		}
		w.Write(tail)
	})
	mux.HandleFunc("/chunked", func(w http.ResponseWriter, r *http.Request) {
		buf := make([]byte, 8<<10) // reused and rewritten: the wire must see each generation
		for i := 0; i < 16; i++ {
			for j := range buf {
				buf[j] = byte(i + j)
			}
			if _, err := w.Write(buf); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/big", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(len(big)))
		sw := w.(stableW)
		for off := 0; off < len(big); off += 32 << 10 {
			if _, err := sw.WriteStable(big[off : off+32<<10]); err != nil {
				return
			}
		}
	})

	opts := []ServerOption{
		WithRequestHooks(
			func(r *http.Request) { record("reqStart %s %s", r.Method, r.URL.Path) },
			func(r *http.Request, bodyBytes int64, aborted bool) {
				record("reqDone %s %s bytes=%d aborted=%v", r.Method, r.URL.Path, bodyBytes, aborted)
			}),
	}
	if evented {
		opts = append(opts, WithEventLoop())
	}
	srv := Serve(clock, inner, mux, handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}, opts...)
	defer srv.Close()

	lp := netem.LinkParams{
		Rate: netem.Mbps(8), Delay: 25 * time.Millisecond,
		SlowStart: true, Jitter: 2 * time.Millisecond,
		LossProb: 0.01, RTOPenalty: 120 * time.Millisecond,
		SendBuf: 32 << 10, Seed: 99,
	}
	iface := n.NewInterface("cli", lp, lp)

	// The aborter kills the interface mid-/big-transfer at a fixed
	// instant; the client quantizes the /big request start so the abort
	// lands at the same virtual offset into the transfer on every run.
	// The hold pins virtual time until both goroutines exist: otherwise
	// the aborter can park alone and let the clock jump to its wake
	// before the client is registered.
	clock.Hold()
	clock.Go(func(p *netem.Participant) {
		p.SleepUntil(epoch.Add(10*time.Second + 500*time.Millisecond))
		iface.SetAlive(false)
		record("iface down")
	})

	done := make(chan struct{})
	clock.Go(func(p *netem.Participant) {
		defer close(done)
		tr := NewTransport(iface)
		tr.Bind(p)
		client := &http.Client{Transport: tr}
		get := func(path string) {
			resp, err := client.Get("http://srv.test:443" + path)
			if err != nil {
				record("GET %s err=%v", path, err)
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			var sum uint64
			for _, b := range body {
				sum = sum*131 + uint64(b)
			}
			record("GET %s status=%d len=%d sum=%d readErr=%v", path, resp.StatusCode, len(body), sum, rerr)
		}
		get("/stable")
		get("/stable") // keep-alive reuse
		get("/chunked")
		if n, err := Head(context.Background(), client, "http://srv.test:443/stable"); true {
			record("HEAD /stable len=%d err=%v", n, err)
		}
		p.SleepUntil(epoch.Add(10 * time.Second))
		get("/big") // aborted mid-body by the interface loss at 10.5s
		iface.SetAlive(true)

		// Blackholed server: the request deadline is the only way out.
		p.SleepUntil(epoch.Add(12 * time.Second))
		srv.SetBlackhole(true)
		tr.SetRequestTimeout(2 * time.Second)
		get("/stable")
		srv.SetBlackhole(false)
		tr.SetRequestTimeout(0)
		get("/stable") // fresh conn, healthy again

		tr.Shutdown(errors.New("workload over"))
		if !srv.Drain(p) {
			record("drain failed")
			return
		}
		record("drained")
	})
	clock.Release()
	<-done

	mu.Lock()
	defer mu.Unlock()
	// Same-instant records from different goroutines may interleave
	// differently run to run (the clock pins instants, not intra-instant
	// scheduling); compare as a sorted multiset — every record carries
	// its virtual instant, so the comparison still pins the timeline.
	out := append([]string(nil), trace...)
	sort.Strings(out)
	return out
}

// TestEventServerMatchesBlockingTimeline is the cross-engine contract
// test: the event-loop server must reproduce the blocking engine's
// observable timeline byte for byte — response bytes, completion
// instants, request hook instants, aborted-request byte attribution,
// blackhole behaviour and drain — under slow-start, jitter, loss and
// send-buffer backpressure.
func TestEventServerMatchesBlockingTimeline(t *testing.T) {
	blocking := engineTrace(t, false)
	eventloop := engineTrace(t, true)
	if len(blocking) != len(eventloop) {
		t.Fatalf("trace lengths differ: blocking %d, eventloop %d\nblocking: %v\neventloop: %v",
			len(blocking), len(eventloop), blocking, eventloop)
	}
	for i := range blocking {
		if blocking[i] != eventloop[i] {
			t.Errorf("trace[%d]:\n  blocking:  %s\n  eventloop: %s", i, blocking[i], eventloop[i])
		}
	}
}

// TestEventServerGoroutineFootprint verifies the point of the event
// engine: connections held open against an evented server park no
// per-connection goroutines.
func TestEventServerGoroutineFootprint(t *testing.T) {
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("srv.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(clock, inner, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}), handshake.Params{}, WithEventLoop())
	defer srv.Close()

	lp := netem.LinkParams{Rate: netem.Mbps(50), Delay: time.Millisecond}
	const conns = 64
	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		iface := n.NewInterface(fmt.Sprintf("cli%d", i), lp, lp)
		clock.Go(func(p *netem.Participant) {
			tr := NewTransport(iface)
			tr.Bind(p)
			client := &http.Client{Transport: tr}
			resp, err := client.Get("http://srv.test:443/")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			done <- err
			// Keep the pooled conn open; the server side must not hold a
			// goroutine for it. The transport is abandoned, not shut
			// down, until the test ends.
			p.SleepUntil(clock.Now().Add(time.Hour))
		})
	}
	for i := 0; i < conns; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	active := srv.active
	srv.mu.Unlock()
	if active != conns {
		t.Fatalf("active conns = %d, want %d", active, conns)
	}
}
