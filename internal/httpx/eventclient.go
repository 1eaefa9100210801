package httpx

import (
	"errors"
	"fmt"
	"io"
	neturl "net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/handshake"
	"repro/internal/netem"
)

// Event-loop client engine.
//
// The blocking Transport parks one goroutine per in-flight request;
// EventTransport runs each request as a netem completion-API state
// machine on the session's event loop, so a fleet-scale population
// holds O(cores) goroutines instead of O(sessions). The machine
// replays exactly the blocking round trip's connection-level
// behaviour — the handshake script's message boundaries, the single
// rendered request write, the demand-driven response reads at their
// arrival instants — so a scenario produces a byte-identical timeline
// on either engine. Range bodies are delivered as borrowed segment
// views (Conn.ReadBuf) instead of copies; the consumer hands them
// back through the release callback, and a per-connection FIFO ledger
// reconciles held body views with the immediately-releasable protocol
// bytes around them (Conn.Release is strictly FIFO per direction).
//
// Every method and callback runs as a step on the transport's Loop:
// callers must invoke Get/GetRangeViews/Shutdown from loop steps (or
// before any machine exists), and completion callbacks fire on the
// loop. Nothing here parks, and no internal locking is needed.

// EventTransport is the event-loop counterpart of Transport: one per
// (session, interface), sharing the session's Loop with the machines
// of every other path so their steps serialize without locks.
type EventTransport struct {
	iface *netem.Interface
	clock *netem.Clock
	loop  *netem.Loop

	reqTimeout time.Duration
	hedge      time.Duration

	idle   map[string][]*evClientConn
	live   map[*evClientConn]struct{}
	closed error
}

// NewEventTransport builds an event-loop transport over iface whose
// machines run as steps of loop.
func NewEventTransport(iface *netem.Interface, clock *netem.Clock, loop *netem.Loop) *EventTransport {
	return &EventTransport{
		iface: iface,
		clock: clock,
		loop:  loop,
		idle:  make(map[string][]*evClientConn),
		live:  make(map[*evClientConn]struct{}),
	}
}

// Loop returns the event loop the transport's machines run on.
func (t *EventTransport) Loop() *netem.Loop { return t.loop }

// SetRequestTimeout mirrors Transport.SetRequestTimeout: every
// subsequent request attempt that has not delivered its full body
// within d of starting is aborted with ErrRequestTimeout at exactly
// that virtual instant. Zero disables the deadline.
func (t *EventTransport) SetRequestTimeout(d time.Duration) { t.reqTimeout = d }

// SetHedge arms a hedge budget alongside the request deadline: every
// subsequent attempt still in flight d after starting is aborted with
// ErrHedged at exactly that virtual instant, so the caller can reissue
// the range against another source with most of the deadline budget
// intact. The hedge must be shorter than the request deadline to be
// useful; zero disables it.
func (t *EventTransport) SetHedge(d time.Duration) { t.hedge = d }

// Shutdown mirrors Transport.Shutdown at the caller's instant: new
// requests fail with err, idle connections close gracefully, and
// in-use connections are aborted with err (their machines observe the
// failure at exactly this instant). Idempotent.
func (t *EventTransport) Shutdown(err error) {
	if err == nil {
		err = errTransportClosed
	}
	if t.closed != nil {
		return
	}
	t.closed = err
	idle := t.idle
	t.idle = make(map[string][]*evClientConn)
	idleSet := make(map[*evClientConn]bool, len(idle))
	for _, pcs := range idle {
		for _, pc := range pcs {
			idleSet[pc] = true
		}
	}
	var inUse []*evClientConn
	for pc := range t.live { //detlint:allow maprange -- all aborts land at the caller's single pinned virtual instant; sweep order is unobservable
		if !idleSet[pc] {
			inUse = append(inUse, pc)
		}
	}
	for _, pcs := range idle {
		for _, pc := range pcs {
			t.retire(pc) // graceful close: the server sees EOF, not an abort
		}
	}
	for _, pc := range inUse {
		pc.c.Abort(err)
	}
}

// Get issues a bodyless GET and collects the response. A 200 response
// delivers its full body at the instant the last framing byte is
// consumed; any other status delivers (status, nil, nil) with the
// connection retired exactly as the blocking client's unread-body
// close would have (watch callers never read non-200 bodies). Transport
// errors arrive unwrapped, as RoundTrip returns them.
func (t *EventTransport) Get(url string, cb func(status int, body []byte, err error)) {
	rq := &evReq{done: func(res *evResult, err error) {
		if err != nil {
			cb(0, nil, err)
			return
		}
		cb(res.status, res.body, nil)
	}}
	if !rq.target(url) {
		cb(0, nil, fmt.Errorf("httpx: invalid url %q", url))
		return
	}
	t.startRequest(rq)
}

// GetRangeViews is the evented GetRangeBuf: it fetches the inclusive
// byte range [from, to] of url and delivers the 206 body as borrowed
// views of the connection's arrived segments. The views are valid
// until release is called (from a loop step); releasing returns the
// bytes to the pipe's segment pool, completing the zero-copy read
// path. Failure modes, error wrapping and connection pooling follow
// GetRangeBuf exactly.
func (t *EventTransport) GetRangeViews(url string, from, to int64, cb func(views [][]byte, release func(), err error)) {
	if to < from {
		cb(nil, nil, fmt.Errorf("httpx: invalid range %d-%d", from, to))
		return
	}
	rq := &evReq{
		hasRange:  true,
		rangeFrom: from,
		rangeTo:   to,
	}
	rq.done = func(res *evResult, err error) {
		if err != nil {
			cb(nil, nil, err)
			return
		}
		if res.status != 206 {
			// Non-206: the collected (≤512-byte) prefix becomes the
			// StatusError message, exactly as the blocking ladder reads it.
			cb(nil, nil, &StatusError{Code: res.status,
				Msg: fmt.Sprintf("range %d-%d of %s: %.80s", from, to, url, res.body)})
			return
		}
		want := to - from + 1
		if res.bodyN != want {
			cb(nil, nil, fmt.Errorf("httpx: range %d-%d returned %d bytes, want %d", from, to, res.bodyN, want))
			return
		}
		if res.views == nil {
			// Collect fallback (chunked or mis-declared 206, never produced
			// by the emulated origin): hand the copy over as a single view.
			body := res.body
			cb([][]byte{body}, func() {}, nil)
			return
		}
		cb(res.views, res.release, nil)
	}
	if !rq.target(url) {
		cb(nil, nil, fmt.Errorf("httpx: invalid url %q", url))
		return
	}
	t.startRequest(rq)
}

// evResult is one completed exchange, pre-interpretation.
type evResult struct {
	status  int
	body    []byte   // collect mode
	views   [][]byte // borrow mode (206 range bodies)
	release func()
	bodyN   int64 // logical body bytes
}

// evClientConn is one client connection shared by successive request
// machines (keep-alive pooling mirrors the blocking persistConn).
type evClientConn struct {
	t      *EventTransport
	c      *netem.Conn
	addr   string
	secure bool
	rq     *evReq // in-flight request machine; nil when idle

	// relq is the FIFO release ledger: every consumed stream byte is
	// accounted here in arrival order, either immediately releasable
	// (protocol bytes, copied-out bodies) or held until the borrow's
	// consumer releases it. Conn.Release is strictly FIFO, so held body
	// views block the release of later protocol bytes until then.
	relq []crelSeg
}

type viewHold struct{ released bool }

type crelSeg struct {
	n    int
	hold *viewHold // nil: releasable once it reaches the queue head
}

func (pc *evClientConn) pushRel(n int, hold *viewHold) {
	if n == 0 {
		return
	}
	if k := len(pc.relq) - 1; k >= 0 && pc.relq[k].hold == hold {
		pc.relq[k].n += n
	} else {
		pc.relq = append(pc.relq, crelSeg{n: n, hold: hold})
	}
}

// drainRel releases the maximal releasable prefix of the ledger.
func (pc *evClientConn) drainRel() {
	n, i := 0, 0
	for ; i < len(pc.relq); i++ {
		seg := pc.relq[i]
		if seg.hold != nil && !seg.hold.released {
			break
		}
		n += seg.n
	}
	if i > 0 {
		pc.relq = append(pc.relq[:0], pc.relq[i:]...)
	}
	if n > 0 {
		pc.c.Release(n)
	}
}

// step is the conn's readable/writable callback target; pooled idle
// conns ignore events (an abort while pooled is discovered on reuse,
// exactly as the blocking pool discovers it).
func (pc *evClientConn) step() {
	if pc.rq != nil {
		pc.rq.advance()
	}
}

// retire closes a connection for good and forgets it.
func (t *EventTransport) retire(pc *evClientConn) {
	delete(t.live, pc)
	pc.c.OnReadable(nil)
	pc.c.OnWritable(nil)
	pc.c.Close()
}

func (t *EventTransport) putIdle(pc *evClientConn) {
	pc.rq = nil
	if t.closed == nil && len(t.idle[pc.addr]) < maxIdlePerHost {
		t.idle[pc.addr] = append(t.idle[pc.addr], pc)
		return
	}
	t.retire(pc)
}

// dropIdle discards every pooled connection to addr (the blocking
// retry-once flush: a pooled conn's siblings are likely dead too).
func (t *EventTransport) dropIdle(addr string) {
	pcs := t.idle[addr]
	delete(t.idle, addr)
	for _, pc := range pcs {
		t.retire(pc)
	}
}

// evcState enumerates the request machine's states.
type evcState int

const (
	evcDial   evcState = iota // waiting for the dial completion
	evcHsSend                 // pumping a handshake flight
	evcHsRecv                 // accumulating one expected handshake message
	evcSend                   // pumping the rendered request
	evcHead                   // accumulating the response head
	evcBody                   // consuming the framed body
	evcDone                   // terminal
)

// ckState enumerates the chunked-framing decoder's states.
type ckState int

const (
	ckSize    ckState = iota // accumulating the hex size line
	ckData                   // consuming chunk data
	ckDataCR                 // consuming the CRLF after chunk data
	ckTrailer                // consuming the final CRLF after the 0 chunk
)

// evReq is one GET exchange as a state machine. It mirrors the
// blocking RoundTrip attempt for attempt, including the retry-once on
// a reused connection and the per-attempt request deadline.
type evReq struct {
	t    *EventTransport
	done func(*evResult, error)

	addr, host, uri    string
	hasRange           bool
	rangeFrom, rangeTo int64

	attempt int
	reused  bool
	pc      *evClientConn
	state   evcState

	dl      *netem.Timer // request deadline
	hdl     *netem.Timer // hedge budget
	dlFired bool
	dlErr   error // which budget fired: ErrRequestTimeout or ErrHedged

	script  [3]handshake.ClientStep
	flight  int
	hsNeed  int
	hsHdrOK bool

	sendBuf    []byte
	sendOff    int
	sendPooled *[]byte

	acc  []byte
	scan int

	status        int
	contentLength int64
	chunked       bool
	respClose     bool
	conndead      bool // body completed but the conn must not be pooled

	collectBody bool
	bodyLimit   int64 // collect: retire the conn at logical byte limit+1 (-1: none)
	discard     bool  // non-200 Get: retire at the first body byte
	body        []byte
	bodyN       int64
	remain      int64 // Content-Length countdown
	views       [][]byte
	hold        *viewHold

	ck       ckState
	ckRemain int64
	ckLine   []byte
}

// target parses the request URL into dial address, Host header and
// request URI, mirroring what http.NewRequest + writeRequest render.
func (rq *evReq) target(url string) bool {
	u, err := neturl.Parse(url)
	if err != nil || u.Host == "" {
		return false
	}
	rq.host = u.Host
	rq.uri = u.RequestURI()
	rq.addr = u.Host
	if u.Port() == "" {
		rq.addr = rq.addr + ":80"
	}
	return true
}

func (t *EventTransport) startRequest(rq *evReq) {
	rq.t = t
	rq.acc = (*headPool.Get().(*[]byte))[:0]
	rq.script = handshake.ClientScript()
	rq.armDeadline()
	rq.getConn()
}

// armDeadline starts the per-attempt deadline and hedge budget, the
// evented deadlineGuard: each attempt — including the retry — gets the
// full budgets, and firing aborts whatever conn the attempt holds. The
// deadline timer is created before the hedge timer, so if both were
// ever scheduled for one instant the deadline would win the wake order
// — though SetHedge callers keep the hedge strictly shorter.
func (rq *evReq) armDeadline() {
	t := rq.t
	if t.reqTimeout <= 0 && t.hedge <= 0 {
		return
	}
	rq.dlFired = false
	rq.dlErr = nil
	now := t.clock.Now()
	if t.reqTimeout > 0 {
		if rq.dl == nil {
			rq.dl = t.clock.NewTimer(func() { t.loop.Do(rq.onDeadline) })
		}
		rq.dl.Schedule(now.Add(t.reqTimeout))
	}
	if t.hedge > 0 {
		if rq.hdl == nil {
			rq.hdl = t.clock.NewTimer(func() { t.loop.Do(rq.onHedge) })
		}
		rq.hdl.Schedule(now.Add(t.hedge))
	}
}

// stopTimers cancels both pending budgets.
func (rq *evReq) stopTimers() {
	if rq.dl != nil {
		rq.dl.Stop()
	}
	if rq.hdl != nil {
		rq.hdl.Stop()
	}
}

func (rq *evReq) onDeadline() {
	if rq.state == evcDone || rq.dlFired {
		return
	}
	rq.dlFired = true
	rq.dlErr = ErrRequestTimeout
	if rq.pc != nil {
		// The machine's next read or write observes ErrRequestTimeout
		// once queued data drains, exactly as the blocking reader does.
		rq.pc.c.Abort(ErrRequestTimeout)
	}
}

func (rq *evReq) onHedge() {
	if rq.state == evcDone || rq.dlFired {
		return
	}
	rq.dlFired = true
	rq.dlErr = ErrHedged
	if rq.pc != nil {
		rq.pc.c.Abort(ErrHedged)
	}
}

func (rq *evReq) getConn() {
	t := rq.t
	if err := t.closed; err != nil {
		rq.fail(err, false)
		return
	}
	if pcs := t.idle[rq.addr]; len(pcs) > 0 {
		pc := pcs[len(pcs)-1]
		t.idle[rq.addr] = pcs[:len(pcs)-1]
		rq.reused = true
		rq.bind(pc)
		if rq.dlFired {
			pc.c.Abort(rq.dlErr)
		}
		rq.beginSend()
		rq.advance()
		return
	}
	rq.state = evcDial
	err := t.iface.DialEvent(rq.addr, func(c *netem.Conn, derr error) {
		t.loop.Do(func() { rq.onDial(c, derr) })
	})
	if err != nil {
		// Immediate dial failures (interface down, connection refused)
		// surface exactly as the blocking Dial returns them.
		rq.fail(err, false)
	}
}

func (rq *evReq) onDial(c *netem.Conn, err error) {
	if err != nil {
		rq.fail(err, false)
		return
	}
	pc := &evClientConn{t: rq.t, c: c, addr: rq.addr}
	wake := func() { pc.t.loop.Do(pc.step) }
	c.OnReadable(wake)
	c.OnWritable(wake)
	rq.bind(pc)
	if rq.dlFired {
		// A budget elapsed while the dial was in flight: abort the
		// conn the moment it materialises (deadlineGuard.setConn). The
		// handshake still runs and fails on the aborted conn, wrapping
		// the timeout exactly as the blocking handshake error does.
		c.Abort(rq.dlErr)
	}
	rq.flight = 0
	rq.beginHsSend()
	rq.advance()
}

func (rq *evReq) bind(pc *evClientConn) {
	rq.pc = pc
	pc.rq = rq
}

func (rq *evReq) beginHsSend() {
	rq.state = evcHsSend
	rq.sendBuf = rq.script[rq.flight].Send
	rq.sendOff = 0
}

func (rq *evReq) beginSend() {
	rq.state = evcSend
	bp := reqBufPool.Get().(*[]byte)
	b := (*bp)[:0]
	// Byte-for-byte the blocking writeRequest fast path.
	b = append(b, "GET "...)
	b = append(b, rq.uri...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, rq.host...)
	b = append(b, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if rq.hasRange {
		b = append(b, "Range: bytes="...)
		b = strconv.AppendInt(b, rq.rangeFrom, 10)
		b = append(b, '-')
		b = strconv.AppendInt(b, rq.rangeTo, 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	*bp = b
	rq.sendPooled = bp
	rq.sendBuf = b
	rq.sendOff = 0
}

func (rq *evReq) endSend() {
	rq.sendBuf = nil
	if rq.sendPooled != nil {
		reqBufPool.Put(rq.sendPooled)
		rq.sendPooled = nil
	}
}

// advance cranks the machine as far as current observable state
// allows; every wake (readable, writable, dial, deadline) funnels
// here. It returns when the machine waits for an event or reached a
// terminal state.
func (rq *evReq) advance() {
	for rq.state != evcDone {
		switch rq.state {
		case evcDial:
			return

		case evcHsSend, evcSend:
			for rq.sendOff < len(rq.sendBuf) {
				n, err := rq.pc.c.TryWrite(rq.sendBuf[rq.sendOff:])
				rq.sendOff += n
				if err != nil {
					rq.endSend()
					if rq.state == evcSend {
						rq.fail(fmt.Errorf("httpx: writing request: %w", err), true)
					} else {
						rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr,
							fmt.Errorf("handshake: write msg %d: %w", rq.script[rq.flight].Send[0], err)), false)
					}
					return
				}
				if rq.sendOff < len(rq.sendBuf) {
					return // send buffer full; resume on writable
				}
			}
			if rq.state == evcHsSend {
				rq.sendBuf = nil
				rq.state = evcHsRecv
				rq.hsNeed = handshake.HeaderLen
				rq.hsHdrOK = false
			} else {
				rq.endSend()
				rq.state = evcHead
				rq.acc = rq.acc[:0]
				rq.scan = 0
			}

		case evcHsRecv, evcHead, evcBody:
			if !rq.readStep() {
				return
			}
		}
	}
}

// readStep consumes one arrived view (or the terminal read error)
// through the current receiving state, returning false when the
// machine must wait for the armed readable callback.
func (rq *evReq) readStep() bool {
	pc := rq.pc
	view, err := pc.c.ReadBuf()
	if err != nil {
		rq.readFail(err)
		return false
	}
	if view == nil {
		return false
	}
	off := 0
	for off < len(view) && rq.state != evcDone {
		var n int
		var hold *viewHold
		switch rq.state {
		case evcHsRecv:
			n = rq.feedHandshake(view[off:])
		case evcHead:
			n = rq.feedHead(view[off:])
		case evcBody:
			n, hold = rq.feedBody(view, off)
		default:
			// A state change mid-view back to a sending state (handshake
			// flights alternate): the remaining bytes belong to the next
			// expected message and stay queued — but the pipe delivers
			// strictly request-response, so this cannot happen. Guard by
			// treating the leftover as protocol bytes.
			n = len(view) - off
		}
		pc.pushRel(n, hold)
		off += n
		if rq.state == evcHsSend || rq.state == evcSend {
			// The machine turned around to send (next handshake flight or
			// the request); no response bytes can follow in this view.
			break
		}
	}
	if off < len(view) {
		// Leftover after a terminal state or a send turn-around: the
		// request-response protocol guarantees no response bytes follow,
		// so the tail is releasable residue (only ever seen on a conn
		// that is being retired after an error).
		pc.pushRel(len(view)-off, nil)
	}
	pc.drainRel()
	// The caller's advance loop dispatches on the (possibly new) state.
	return true
}

// readFail maps a read error to the failing stage's wrapped error,
// mirroring exactly where the blocking round trip would have observed
// it (handshake.readMsg's header/body wraps, io.ReadFull's partial-EOF
// promotion, lengthBody's early-EOF promotion).
func (rq *evReq) readFail(err error) {
	switch rq.state {
	case evcHsRecv:
		if !rq.hsHdrOK {
			if err == io.EOF && len(rq.acc) > 0 {
				err = io.ErrUnexpectedEOF
			}
			err = fmt.Errorf("handshake: read header: %w", err)
		} else {
			err = fmt.Errorf("handshake: read body: %w", err)
		}
		rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr, err), false)
	case evcHead:
		rq.fail(fmt.Errorf("httpx: reading response: %w", err), true)
	case evcBody:
		if err == io.EOF && !rq.chunked && rq.remain < 0 {
			// Close-delimited body: the server's EOF is the body's end.
			rq.complete()
			return
		}
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if rq.hasRange {
			err = fmt.Errorf("httpx: reading range body: %w", err)
		}
		rq.fail(err, false)
	default:
		rq.fail(err, false)
	}
}

// feedHandshake accumulates one expected handshake message, advancing
// the script exactly as handshake.Client does.
func (rq *evReq) feedHandshake(b []byte) int {
	take := min(len(b), rq.hsNeed-len(rq.acc))
	rq.acc = append(rq.acc, b[:take]...)
	if len(rq.acc) < rq.hsNeed {
		return take
	}
	if !rq.hsHdrOK {
		size, err := handshake.ParseHeader(rq.acc[:handshake.HeaderLen], rq.script[rq.flight].Expect)
		if err != nil {
			rq.fail(fmt.Errorf("httpx: secure handshake with %s: %w", rq.addr, err), false)
			return take
		}
		rq.hsHdrOK = true
		rq.hsNeed = handshake.HeaderLen + size
		return take
	}
	// Message complete (body bytes carry no information; discard).
	rq.acc = rq.acc[:0]
	rq.flight++
	if rq.flight < len(rq.script) {
		rq.beginHsSend()
		return take
	}
	rq.secured()
	return take
}

// secured finishes the connection handshake: the conn joins the live
// set and the request proceeds — unless the transport shut down while
// the dial or handshake was in flight, which retires the conn here
// exactly as the blocking getConn's re-check does.
func (rq *evReq) secured() {
	t := rq.t
	rq.pc.secure = true
	if err := t.closed; err != nil {
		t.retire(rq.pc)
		rq.pc = nil
		rq.fail(err, false)
		return
	}
	t.live[rq.pc] = struct{}{}
	rq.beginSend()
}

var evCrlfCrlf = []byte("\r\n\r\n")

// headPool recycles response-head accumulation buffers across
// requests: the proxy's padding header makes heads ~20 KB, far too
// much churn to allocate per request at fleet scale. A request takes a
// buffer when it starts and returns it when it delivers its result.
var headPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4<<10); return &b },
}

const maxPooledHead = 64 << 10

// putAcc returns the request's head-accumulation buffer to the pool.
// Only call when no live slice of acc can escape the request: after
// parseHead has copied out everything it interprets, results reference
// rq.body and rq.views, never acc.
func (rq *evReq) putAcc() {
	if rq.acc != nil && cap(rq.acc) <= maxPooledHead {
		b := rq.acc[:0]
		headPool.Put(&b)
	}
	rq.acc = nil
}

// feedHead accumulates the response head and parses it at the
// terminator, transitioning to the framed body (or completing).
func (rq *evReq) feedHead(b []byte) int {
	// Find the terminator across the accumulation boundary without
	// rescanning (the proxy's padding header makes heads ~20 KB).
	rq.acc = append(rq.acc, b...)
	i := indexCrlfCrlf(rq.acc, rq.scan)
	if i < 0 {
		if len(rq.acc) >= len(evCrlfCrlf)-1 {
			rq.scan = len(rq.acc) - (len(evCrlfCrlf) - 1)
		}
		return len(b)
	}
	headLen := i + len(evCrlfCrlf)
	// b may extend past the head: return only the head's share of this
	// view; the caller re-feeds the rest to the body state.
	take := len(b) - (len(rq.acc) - headLen)
	rq.acc = rq.acc[:headLen]
	if err := rq.parseHead(); err != nil {
		rq.fail(fmt.Errorf("httpx: reading response: %w", err), true)
		return take
	}
	rq.beginBody()
	return take
}

func indexCrlfCrlf(b []byte, from int) int {
	for i := from; i+len(evCrlfCrlf) <= len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i
		}
	}
	return -1
}

// parseHead extracts what the machine needs from the accumulated head,
// applying readResponse's checks to the headers it interprets.
func (rq *evReq) parseHead() error {
	head := rq.acc
	rq.status = 0
	rq.contentLength = -1
	rq.chunked = false
	rq.respClose = false
	line, rest := cutLine(head)
	sp := indexByte(line, ' ')
	if sp < 0 || !hasPrefix(line, "HTTP/1.") {
		return fmt.Errorf("malformed status line %q", line)
	}
	statusText := trimLeftSpace(line[sp+1:])
	if len(statusText) < 3 {
		return fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(statusText[:3]))
	if err != nil {
		return fmt.Errorf("malformed status code in %q", line)
	}
	rq.status = code
	for {
		line, rest = cutLine(rest)
		if line == nil {
			return fmt.Errorf("truncated response head")
		}
		if len(line) == 0 {
			break
		}
		colon := indexByte(line, ':')
		if colon < 0 {
			return fmt.Errorf("malformed header line %q", line)
		}
		// Match the three interpreted keys by ASCII-case-insensitive
		// byte comparison and stringify only their (short) values:
		// canonicalising every key and copying every value would
		// allocate the ~20 KB padding header once per request.
		key := line[:colon]
		switch {
		case eqFold(key, "Content-Length"):
			val := string(trimSpace(line[colon+1:]))
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("malformed Content-Length %q", val)
			}
			rq.contentLength = n
		case eqFold(key, "Transfer-Encoding"):
			val := string(trimSpace(line[colon+1:]))
			if val != "chunked" {
				return fmt.Errorf("unsupported Transfer-Encoding %q", val)
			}
			rq.chunked = true
		case eqFold(key, "Connection"):
			if string(trimSpace(line[colon+1:])) == "close" {
				rq.respClose = true
			}
		}
	}
	return nil
}

func cutLine(b []byte) (line, rest []byte) {
	i := 0
	for ; i+1 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' {
			return b[:i], b[i+2:]
		}
	}
	return nil, nil
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

func hasPrefix(b []byte, s string) bool {
	return len(b) >= len(s) && string(b[:len(s)]) == s
}

// eqFold reports ASCII case-insensitive equality of b and s without
// allocating.
func eqFold(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if 'A' <= d && d <= 'Z' {
			d += 'a' - 'A'
		}
		if c != d {
			return false
		}
	}
	return true
}

func trimLeftSpace(b []byte) []byte {
	for len(b) > 0 && b[0] == ' ' {
		b = b[1:]
	}
	return b
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// beginBody selects the body mode from the parsed head, mirroring
// readResponse's framing switch plus the callers' read patterns.
func (rq *evReq) beginBody() {
	rq.state = evcBody
	rq.body = nil
	rq.bodyN = 0
	rq.views = nil
	rq.hold = nil
	rq.bodyLimit = -1
	rq.discard = false
	rq.collectBody = true

	if rq.status == 204 || rq.status == 304 || rq.status < 200 {
		rq.complete()
		return
	}
	switch {
	case rq.hasRange && rq.status != 206:
		// The blocking ladder reads at most 512 bytes of an error body
		// for the StatusError message; past that the close probe retires
		// the conn at the arrival of byte 513.
		rq.bodyLimit = 512
	case !rq.hasRange && rq.status != 200:
		// A non-200 watch body is closed unread, as a blocking client
		// would: the pooling probe's single-byte read retires the conn
		// at the first body byte.
		rq.discard = true
	case rq.hasRange && rq.status == 206 && !rq.chunked &&
		rq.contentLength == rq.rangeTo-rq.rangeFrom+1:
		// The exact-length 206: deliver borrowed views, zero-copy.
		rq.collectBody = false
		rq.hold = &viewHold{}
	}
	switch {
	case rq.chunked:
		rq.ck = ckSize
		rq.ckRemain = 0
		rq.ckLine = rq.ckLine[:0]
	case rq.contentLength >= 0:
		rq.remain = rq.contentLength
		if rq.remain == 0 {
			rq.complete()
		}
	default:
		// Close-delimited: the body ends at the server's EOF, which also
		// retires the conn.
		rq.respClose = true
		rq.remain = -1
	}
}

// feedBody consumes body bytes from view[off:], returning the consumed
// count and, for borrowed body bytes, the hold that keeps them from
// being released until the consumer hands them back.
func (rq *evReq) feedBody(view []byte, off int) (int, *viewHold) {
	b := view[off:]
	if rq.chunked {
		return rq.feedChunked(b), nil
	}
	take := len(b)
	if rq.remain >= 0 && int64(take) > rq.remain {
		take = int(rq.remain)
	}
	hold := rq.consumeBody(view, off, take)
	if rq.remain > 0 {
		rq.remain -= int64(take)
		if rq.remain == 0 && rq.state != evcDone {
			rq.complete()
		}
	}
	return take, hold
}

// consumeBody accounts take logical body bytes from view[off:].
func (rq *evReq) consumeBody(view []byte, off, take int) *viewHold {
	if take == 0 {
		return nil
	}
	rq.bodyN += int64(take)
	if rq.discard {
		// First body byte: retire the conn, deliver the status-only
		// result (the rest of the view is residue on a dead conn).
		rq.conndead = true
		rq.complete()
		return nil
	}
	if rq.bodyLimit >= 0 && rq.bodyN > rq.bodyLimit {
		keep := take - int(rq.bodyN-rq.bodyLimit)
		if keep > 0 {
			rq.body = append(rq.body, view[off:off+keep]...)
		}
		rq.bodyN = rq.bodyLimit
		rq.conndead = true
		rq.complete()
		return nil
	}
	if rq.collectBody {
		rq.body = append(rq.body, view[off:off+take]...)
		return nil
	}
	sub := view[off : off+take : off+take]
	rq.views = append(rq.views, sub)
	return rq.hold
}

// feedChunked decodes chunked framing from b, collecting data bytes.
// Framing bytes and collected data are all immediately releasable.
func (rq *evReq) feedChunked(b []byte) int {
	n := 0
	for n < len(b) && rq.state != evcDone {
		switch rq.ck {
		case ckSize:
			c := b[n]
			n++
			rq.ckLine = append(rq.ckLine, c)
			if c != '\n' {
				continue
			}
			line := rq.ckLine
			if len(line) < 2 || line[len(line)-2] != '\r' {
				rq.fail(fmt.Errorf("httpx: malformed chunk size line"), false)
				return n
			}
			size, err := strconv.ParseInt(string(line[:len(line)-2]), 16, 64)
			if err != nil || size < 0 {
				rq.fail(fmt.Errorf("httpx: malformed chunk size %q", line[:len(line)-2]), false)
				return n
			}
			rq.ckLine = rq.ckLine[:0]
			if size == 0 {
				rq.ck = ckTrailer
				continue
			}
			rq.ckRemain = size
			rq.ck = ckData
		case ckData:
			take := min(len(b)-n, int(rq.ckRemain))
			rq.bodyN += int64(take)
			if rq.discard {
				rq.conndead = true
				rq.complete()
				return n + take
			}
			if rq.bodyLimit >= 0 && rq.bodyN > rq.bodyLimit {
				keep := take - int(rq.bodyN-rq.bodyLimit)
				if keep > 0 {
					rq.body = append(rq.body, b[n:n+keep]...)
				}
				rq.bodyN = rq.bodyLimit
				rq.conndead = true
				rq.complete()
				return n + take
			}
			rq.body = append(rq.body, b[n:n+take]...)
			n += take
			rq.ckRemain -= int64(take)
			if rq.ckRemain == 0 {
				rq.ck = ckDataCR
			}
		case ckDataCR, ckTrailer:
			c := b[n]
			n++
			rq.ckLine = append(rq.ckLine, c)
			if len(rq.ckLine) < 2 {
				continue
			}
			if rq.ckLine[0] != '\r' || rq.ckLine[1] != '\n' {
				rq.fail(fmt.Errorf("httpx: malformed chunked trailer"), false)
				return n
			}
			rq.ckLine = rq.ckLine[:0]
			if rq.ck == ckTrailer {
				rq.complete()
				return n
			}
			rq.ck = ckSize
		}
	}
	return n
}

// complete delivers the exchange's result at the current instant and
// decides the connection's fate, mirroring bodyGuard.Close: a fully
// consumed body on a healthy keep-alive conn pools it, anything else
// retires it.
func (rq *evReq) complete() {
	rq.state = evcDone
	rq.stopTimers()
	pc := rq.pc
	pc.rq = nil
	res := &evResult{status: rq.status, body: rq.body, bodyN: rq.bodyN}
	if rq.views != nil {
		hold := rq.hold
		res.views = rq.views
		res.release = func() {
			hold.released = true
			pc.drainRel()
		}
	}
	if rq.conndead || rq.respClose || rq.dlFired {
		rq.t.retire(pc)
	} else {
		rq.t.putIdle(pc)
	}
	rq.putAcc()
	rq.done(res, nil)
}

// fail ends the attempt with err. Mirroring RoundTrip: a reused
// connection whose request or head read failed is retried exactly
// once on a fresh dial (the pooled siblings are flushed), every other
// failure surfaces to the caller. retryStage marks the failure as
// having occurred inside the retryable window (request write or
// response-head read).
func (rq *evReq) fail(err error, retryStage bool) {
	rq.state = evcDone
	if rq.pc != nil {
		pc := rq.pc
		pc.rq = nil
		rq.t.retire(pc)
		rq.pc = nil
	}
	// A hedged-out attempt is never retried here: the caller cancelled
	// it on purpose and will reissue elsewhere.
	if retryStage && rq.reused && rq.attempt == 0 && rq.t.closed == nil &&
		!errors.Is(err, ErrHedged) {
		rq.t.dropIdle(rq.addr)
		rq.attempt = 1
		rq.reused = false
		rq.conndead = false
		rq.state = evcDial
		rq.acc = rq.acc[:0]
		rq.scan = 0
		rq.stopTimers()
		rq.armDeadline()
		rq.getConn()
		return
	}
	rq.stopTimers()
	rq.putAcc()
	rq.done(nil, err)
}
