package httpx

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	neturl "net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// clientDriver abstracts the two client engines behind one
// continuation-passing workload so the cross-engine test runs the
// identical step sequence on both. The blocking driver executes each
// step synchronously on a participant goroutine; the evented driver
// chains the steps through completion callbacks on the loop.
type clientDriver interface {
	sleepUntil(at time.Time, then func())
	get(url string, then func())
	rangeGet(url string, from, to int64, then func())
	setTimeout(d time.Duration)
	shutdown(err error)
	do(step func(), then func()) // run an arbitrary non-parking step
}

func byteSum(bs ...[]byte) (int, uint64) {
	n := 0
	var sum uint64
	for _, b := range bs {
		n += len(b)
		for _, c := range b {
			sum = sum*131 + uint64(c)
		}
	}
	return n, sum
}

// clientWorkload is the shared step script: range transfers with
// keep-alive reuse, a chunked 200 collect, a discarded 404, an
// oversized non-206 error body, a request deadline against a
// blackholed server, a dead-pooled-conn retry against a closed
// server, and a mid-transfer shutdown.
func clientWorkload(d clientDriver, epoch time.Time, srv2 *Server, setBlackhole func(bool), done func()) {
	origin := "http://origin.test:443"
	flaky := "http://flaky.test:443"
	at := func(off time.Duration) time.Time { return epoch.Add(off) }
	d.sleepUntil(at(0), func() {
		d.rangeGet(origin+"/video", 0, 256<<10-1, func() { // fresh dial, slow start
			d.rangeGet(origin+"/video", 256<<10, 384<<10-1, func() { // keep-alive reuse
				d.sleepUntil(at(2*time.Second), func() {
					d.get(origin+"/watch", func() { // chunked 200, reuses the pooled conn
						d.sleepUntil(at(3*time.Second), func() {
							d.get(origin+"/nope", func() { // 404: body discarded unread
								d.sleepUntil(at(4*time.Second), func() {
									// Non-206 range: the >512-byte chunked error
									// body is truncated into the StatusError.
									d.rangeGet(origin+"/watch", 0, 8<<10-1, func() {
										d.sleepUntil(at(5*time.Second), func() {
											d.rangeGet(origin+"/video", 400<<10, 464<<10-1, func() { // repopulate the pool
												d.sleepUntil(at(6*time.Second), func() {
													d.setTimeout(1500 * time.Millisecond)
													setBlackhole(true)
													// Reused conn stalls at the response head,
													// the deadline retries once on a fresh dial,
													// and the retry stalls in the handshake.
													d.rangeGet(origin+"/video", 512<<10, 768<<10-1, func() {
														d.setTimeout(0)
														setBlackhole(false)
														d.sleepUntil(at(10*time.Second), func() {
															d.rangeGet(origin+"/video", 100<<10, 200<<10, func() { // healthy again
																d.sleepUntil(at(12*time.Second), func() {
																	d.get(flaky+"/watch", func() { // pool a conn to the flaky server
																		d.sleepUntil(at(13*time.Second), func() {
																			d.do(func() { srv2.Close() }, func() {
																				d.sleepUntil(at(14*time.Second), func() {
																					// Dead pooled conn: retry once, then
																					// the redial is refused.
																					d.get(flaky+"/watch", func() {
																						d.sleepUntil(at(16*time.Second), func() {
																							// Shutdown at 16.2s aborts this
																							// transfer mid-body.
																							d.rangeGet(origin+"/video", 0, 512<<10-1, func() {
																								d.sleepUntil(at(17*time.Second), func() {
																									d.rangeGet(origin+"/video", 0, 1023, done)
																								})
																							})
																						})
																					})
																				})
																			})
																		})
																	})
																})
															})
														})
													})
												})
											})
										})
									})
								})
							})
						})
					})
				})
			})
		})
	})
}

// blockingClientDriver runs the workload on the blocking Transport.
type blockingClientDriver struct {
	p      *netem.Participant
	clock  *netem.Clock
	tr     *Transport
	client *http.Client
	record func(format string, args ...any)
}

// unwrapURL strips http.Client's *url.Error wrapper so recorded
// errors compare against the evented engine's raw transport errors.
func unwrapURL(err error) error {
	var ue *neturl.Error
	if errors.As(err, &ue) {
		return ue.Err
	}
	return err
}

func (d *blockingClientDriver) sleepUntil(at time.Time, then func()) {
	d.p.SleepUntil(at)
	then()
}

func (d *blockingClientDriver) do(step func(), then func()) { step(); then() }

func (d *blockingClientDriver) setTimeout(t time.Duration) { d.tr.SetRequestTimeout(t) }

func (d *blockingClientDriver) shutdown(err error) { d.tr.Shutdown(err) }

func (d *blockingClientDriver) get(url string, then func()) {
	defer then()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		d.record("get %s err=%v", url, err)
		return
	}
	resp, err := d.tr.RoundTrip(req)
	if err != nil {
		d.record("get %s err=%v", url, err)
		return
	}
	if resp.StatusCode != http.StatusOK {
		// A watch caller closes a non-200 body unread.
		resp.Body.Close()
		d.record("get %s status=%d", url, resp.StatusCode)
		return
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		d.record("get %s err=%v", url, rerr)
		return
	}
	n, sum := byteSum(body)
	d.record("get %s status=200 len=%d sum=%d", url, n, sum)
}

func (d *blockingClientDriver) rangeGet(url string, from, to int64, then func()) {
	defer then()
	buf := make([]byte, to-from+1)
	data, err := GetRangeBuf(context.Background(), d.client, url, from, to, buf)
	if err != nil {
		d.record("range %s %d-%d err=%v", url, from, to, unwrapURL(err))
		return
	}
	n, sum := byteSum(data)
	d.record("range %s %d-%d len=%d sum=%d", url, from, to, n, sum)
}

// eventClientDriver runs the workload on the EventTransport: every
// step is a loop step, sleeps are clock timers, and the chained
// continuations fire from completion callbacks.
type eventClientDriver struct {
	clock  *netem.Clock
	loop   *netem.Loop
	et     *EventTransport
	record func(format string, args ...any)
}

func (d *eventClientDriver) sleepUntil(at time.Time, then func()) {
	d.clock.NewTimer(func() { d.loop.Do(then) }).Schedule(at)
}

func (d *eventClientDriver) do(step func(), then func()) { step(); then() }

func (d *eventClientDriver) setTimeout(t time.Duration) { d.et.SetRequestTimeout(t) }

func (d *eventClientDriver) shutdown(err error) { d.et.Shutdown(err) }

func (d *eventClientDriver) get(url string, then func()) {
	d.et.Get(url, func(status int, body []byte, err error) {
		defer then()
		if err != nil {
			d.record("get %s err=%v", url, err)
			return
		}
		if status != http.StatusOK {
			d.record("get %s status=%d", url, status)
			return
		}
		n, sum := byteSum(body)
		d.record("get %s status=200 len=%d sum=%d", url, n, sum)
	})
}

func (d *eventClientDriver) rangeGet(url string, from, to int64, then func()) {
	d.et.GetRangeViews(url, from, to, func(views [][]byte, release func(), err error) {
		defer then()
		if err != nil {
			d.record("range %s %d-%d err=%v", url, from, to, err)
			return
		}
		n, sum := byteSum(views...)
		release()
		d.record("range %s %d-%d len=%d sum=%d", url, from, to, n, sum)
	})
}

// clientEngineTrace runs the shared workload on one client engine
// against the same pair of servers and returns the sorted trace of
// response bytes, statuses, errors and their virtual instants.
func clientEngineTrace(t *testing.T, evented bool) []string {
	t.Helper()
	clock := netem.NewVirtualClock()
	defer clock.Stop()
	n := netem.NewNetwork(clock)
	inner, err := n.Listen("origin.test:443", 0)
	if err != nil {
		t.Fatal(err)
	}
	inner2, err := n.Listen("flaky.test:443", 0)
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

	content := make([]byte, 1<<20)
	for i := range content {
		content[i] = byte(i*37 + i>>9)
	}
	watchBody := []byte("{\"pad\":\"" + strings.Repeat("w", 2000) + "\"}\n")

	type stableW interface {
		WriteStable([]byte) (int, error)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/video", func(w http.ResponseWriter, r *http.Request) {
		var from, to int64
		if _, err := fmt.Sscanf(r.Header.Get("Range"), "bytes=%d-%d", &from, &to); err != nil ||
			from < 0 || to >= int64(len(content)) || to < from {
			http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
			return
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", from, to, len(content)))
		w.Header().Set("Content-Length", strconv.FormatInt(to-from+1, 10))
		w.WriteHeader(http.StatusPartialContent)
		w.(stableW).WriteStable(content[from : to+1])
	})
	mux.HandleFunc("/watch", func(w http.ResponseWriter, r *http.Request) {
		w.Write(watchBody) // no Content-Length: chunked, terminal frame on close
	})

	hs := handshake.Params{Delta1: 4 * time.Millisecond, Delta2: 3 * time.Millisecond}
	srv := Serve(clock, inner, mux, hs)
	defer srv.Close()
	srv2 := Serve(clock, inner2, mux, hs)
	defer srv2.Close()

	lp := netem.LinkParams{
		Rate: netem.Mbps(8), Delay: 25 * time.Millisecond,
		SlowStart: true, Jitter: 2 * time.Millisecond,
		LossProb: 0.01, RTOPenalty: 120 * time.Millisecond,
		SendBuf: 32 << 10, Seed: 7,
	}
	iface := n.NewInterface("cli", lp, lp)

	errSession := errors.New("session over")
	done := make(chan struct{})
	// The hold pins virtual time until the workload goroutine exists:
	// otherwise the shutdown timer below can fire as soon as the
	// servers' goroutines park, before the workload has started.
	clock.Hold()
	if evented {
		loop := netem.NewLoop()
		et := NewEventTransport(iface, clock, loop)
		clock.NewTimer(func() { loop.Do(func() { et.Shutdown(errSession) }) }).
			Schedule(epoch.Add(16*time.Second + 200*time.Millisecond))
		d := &eventClientDriver{clock: clock, loop: loop, et: et, record: record}
		clock.Go(func(p *netem.Participant) {
			var wmu sync.Mutex
			cond := netem.NewCond(clock, &wmu)
			finished := false
			loop.Do(func() {
				clientWorkload(d, epoch, srv2, srv.SetBlackhole, func() {
					wmu.Lock()
					finished = true
					wmu.Unlock()
					cond.Broadcast()
				})
			})
			wmu.Lock()
			for !finished {
				if !cond.Wait(p) {
					break
				}
			}
			wmu.Unlock()
			close(done)
		})
	} else {
		clock.Go(func(p *netem.Participant) {
			tr := NewTransport(iface)
			tr.Bind(p)
			d := &blockingClientDriver{
				p: p, clock: clock, tr: tr,
				client: &http.Client{Transport: tr},
				record: record,
			}
			clock.Go(func(ab *netem.Participant) {
				ab.SleepUntil(epoch.Add(16*time.Second + 200*time.Millisecond))
				tr.Shutdown(errSession)
			})
			clientWorkload(d, epoch, srv2, srv.SetBlackhole, func() { close(done) })
		})
	}
	clock.Release()
	<-done

	mu.Lock()
	defer mu.Unlock()
	out := append([]string(nil), trace...)
	sort.Strings(out)
	return out
}

// TestEventClientMatchesBlockingTimeline is the client-side
// cross-engine contract: the event-loop transport must reproduce the
// blocking Transport's observable timeline byte for byte — response
// sums, pooling reuse, retry-once, deadline aborts, shutdown aborts —
// under slow-start, jitter, loss and send-buffer backpressure.
func TestEventClientMatchesBlockingTimeline(t *testing.T) {
	blocking := clientEngineTrace(t, false)
	eventloop := clientEngineTrace(t, true)
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
