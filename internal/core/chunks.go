package core

import (
	"io"
	"sort"
	"sync"
)

// Span is a half-open byte range [Off, Off+Size) of the video stream.
type Span struct {
	Off  int64
	Size int64
}

// End returns the exclusive end offset.
func (s Span) End() int64 { return s.Off + s.Size }

// chunkPayload is one completed chunk in the out-of-order store: the
// chunk's bytes as views in stream order, plus the release callback
// that returns borrowed connection views to their connection once the
// chunk has been delivered — the zero-copy path never materialises the
// chunk. release is nil for owned bytes.
type chunkPayload struct {
	views   [][]byte
	release func()
	size    int64 // total payload bytes (frontier advance)
}

// chunkManager hands out byte ranges to path fetchers and reassembles
// completed chunks in order. Per the paper's design it stores at most
// MaxOutOfOrder completed chunks that cannot yet be delivered; a path
// asking for fresh work while the store is full waits until the gap
// fills, which also realises the "complete transfers at the same time"
// goal when the scheduler misjudges.
type chunkManager struct {
	// deliverMu serialises whole completeViews calls so the in-order
	// prefix reaches the sink and the playout buffer in frontier order
	// even when both paths finish chunks simultaneously. It is always
	// acquired before mu.
	deliverMu sync.Mutex

	mu sync.Mutex

	total    int64 // content length; -1 until the first bootstrap
	next     int64 // next unassigned offset
	frontier int64 // delivered in-order up to here
	stored   map[int64]chunkPayload
	storedBy map[int64]int // offset -> path that fetched it
	maxOOO   int
	retry    []Span // failed chunks awaiting reassignment

	gate    bool // fetching allowed (ON/OFF state)
	stopped bool

	// notify, when set, is invoked (outside mu) after every state change
	// that can unblock a waiting path. The session points it at its
	// loop so parked path machines re-poll acquireTry at exactly the
	// instant of the change. It must be installed before the first path
	// starts and never changed.
	notify func()

	sink io.Writer // receives the in-order byte stream (may be nil)
	// onDeliver is called with the new frontier after in-order delivery;
	// the player advances the playout buffer here.
	onDeliver func(frontier int64)
	// limit optionally bounds fresh assignments to an absolute stream
	// offset (the playout buffer's current goal), implementing
	// just-in-time delivery. Fresh spans are clamped so they do not
	// extend more than a minimum chunk past the limit.
	limit func() int64
}

func newChunkManager(maxOOO int, sink io.Writer) *chunkManager {
	if maxOOO < 1 {
		maxOOO = 1
	}
	return &chunkManager{
		total:    -1,
		stored:   make(map[int64]chunkPayload),
		storedBy: make(map[int64]int),
		maxOOO:   maxOOO,
		sink:     sink,
	}
}

// notifyAfter runs the re-poll hook; call after releasing mu at any
// site that can unblock a waiting path.
func (cm *chunkManager) notifyAfter() {
	if cm.notify != nil {
		cm.notify()
	}
}

// setTotal installs the content length once known (first JSON decode).
func (cm *chunkManager) setTotal(n int64) {
	cm.mu.Lock()
	if cm.total < 0 {
		cm.total = n
	}
	cm.mu.Unlock()
	cm.notifyAfter()
}

// setLimit installs the just-in-time goal-offset bound.
func (cm *chunkManager) setLimit(f func() int64) {
	cm.mu.Lock()
	cm.limit = f
	cm.mu.Unlock()
	cm.notifyAfter()
}

// setGate flips the ON/OFF fetch gate.
func (cm *chunkManager) setGate(on bool) {
	cm.mu.Lock()
	cm.gate = on
	cm.mu.Unlock()
	cm.notifyAfter()
}

// stop ends assignment; acquireTry reports over afterwards. Any
// undelivered view payloads still parked in the out-of-order store pin
// connection segment memory, so their bytes are returned to the owning
// connections here.
func (cm *chunkManager) stop() {
	cm.mu.Lock()
	cm.stopped = true
	var rel []func()
	var offs []int64
	for off, pay := range cm.stored {
		if pay.release != nil {
			offs = append(offs, off)
		}
	}
	sort.Slice(offs, func(a, b int) bool { return offs[a] < offs[b] })
	for _, off := range offs {
		rel = append(rel, cm.stored[off].release)
		delete(cm.stored, off)
		delete(cm.storedBy, off)
	}
	cm.mu.Unlock()
	for _, f := range rel {
		f()
	}
	cm.notifyAfter()
}

// doneLocked reports whether the whole stream has been delivered.
func (cm *chunkManager) doneLocked() bool {
	return cm.total >= 0 && cm.frontier >= cm.total
}

// Done reports whether the whole stream has been delivered in order.
func (cm *chunkManager) Done() bool {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.doneLocked()
}

// Frontier returns the in-order delivered byte count.
func (cm *chunkManager) Frontier() int64 {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.frontier
}

// tryAcquireLocked hands out the next span when one is available right
// now, or reports that the caller must wait. Callers hold cm.mu and
// have already ruled out stopped/doneLocked.
func (cm *chunkManager) tryAcquireLocked(want int64) (Span, bool) {
	// Failed chunks have priority and bypass the gate and the
	// out-of-order limit: they fill the delivery gap.
	if len(cm.retry) > 0 {
		s := cm.retry[0]
		cm.retry = cm.retry[1:]
		return s, true
	}
	hasFresh := cm.total >= 0 && cm.next < cm.total
	oooFull := len(cm.stored) >= cm.maxOOO
	// Just-in-time gate: issue full-size chunks only while the
	// assignment frontier is below the buffering goal. The final
	// chunk may overshoot the goal by up to one chunk, exactly as a
	// chunked player overshoots, which guarantees the goal is
	// crossed decisively instead of approached asymptotically.
	belowGoal := cm.limit == nil || cm.next < cm.limit()
	if cm.gate && hasFresh && !oooFull && belowGoal {
		s := Span{Off: cm.next, Size: want}
		if s.End() > cm.total {
			s.Size = cm.total - s.Off
		}
		cm.next = s.End()
		return s, true
	}
	return Span{}, false
}

// acquireTry hands out the next span to fetch, sized by want but
// clamped to the remaining content, when one is available now (ok);
// reports the stream delivered or the manager stopped (over); or —
// when neither — tells the caller to stay idle until the next notify
// callback re-polls it. The caller pins want across re-polls.
func (cm *chunkManager) acquireTry(want int64) (s Span, ok, over bool) {
	if want < 1 {
		want = 1
	}
	cm.mu.Lock()
	defer cm.mu.Unlock()
	if cm.stopped || cm.doneLocked() {
		return Span{}, false, true
	}
	s, ok = cm.tryAcquireLocked(want)
	return s, ok, false
}

// completeViews records a finished chunk fetched by path i and delivers
// any newly in-order prefix to the sink. The chunk's bytes live in
// borrowed connection views that are written to the sink in order and
// then returned to the connection via release (nil for owned bytes).
// size is the total view length (the span's size).
func (cm *chunkManager) completeViews(i int, s Span, views [][]byte, release func(), size int64) {
	cm.deliver(i, s, chunkPayload{views: views, release: release, size: size})
}

func (cm *chunkManager) deliver(i int, s Span, pay chunkPayload) {
	cm.deliverMu.Lock()
	defer cm.deliverMu.Unlock()
	cm.mu.Lock()
	if cm.stopped {
		cm.mu.Unlock()
		if pay.release != nil {
			pay.release()
		}
		return
	}
	cm.stored[s.Off] = pay
	cm.storedBy[s.Off] = i
	var delivered []chunkPayload
	for {
		d, ok := cm.stored[cm.frontier]
		if !ok {
			break
		}
		delete(cm.storedBy, cm.frontier)
		delete(cm.stored, cm.frontier)
		delivered = append(delivered, d)
		cm.frontier += d.size
	}
	frontier := cm.frontier
	onDeliver := cm.onDeliver
	sink := cm.sink
	cm.mu.Unlock()

	if sink != nil {
		for _, d := range delivered {
			for _, v := range d.views {
				sink.Write(v)
			}
		}
	}
	if len(delivered) > 0 && onDeliver != nil {
		onDeliver(frontier)
	}
	// The delivered payloads' bytes have reached the sink (which copies)
	// and every callback has run: hand borrowed views back to their
	// connections.
	for _, d := range delivered {
		if d.release != nil {
			d.release()
		}
	}
	cm.notifyAfter()
}

// fail requeues a chunk whose transfer failed so any path can take it.
func (cm *chunkManager) fail(s Span) {
	cm.mu.Lock()
	cm.retry = append(cm.retry, s)
	sort.Slice(cm.retry, func(a, b int) bool { return cm.retry[a].Off < cm.retry[b].Off })
	cm.mu.Unlock()
	cm.notifyAfter()
}

// outstanding reports how many completed chunks are stored out of order.
func (cm *chunkManager) outstanding() int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return len(cm.stored)
}
