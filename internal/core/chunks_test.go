package core

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
)

// complete records a finished chunk of owned bytes fetched by path i.
func (cm *chunkManager) complete(i int, s Span, data []byte) {
	cm.completeViews(i, s, [][]byte{data}, nil, int64(len(data)))
}

func TestChunkManagerInOrderDelivery(t *testing.T) {
	var sink bytes.Buffer
	cm := newChunkManager(1, &sink)
	cm.setGate(true)
	cm.setTotal(100)

	s1, ok, _ := cm.acquireTry(40)
	if !ok || s1.Off != 0 || s1.Size != 40 {
		t.Fatalf("span1 = %+v, %v", s1, ok)
	}
	s2, ok, _ := cm.acquireTry(40)
	if !ok || s2.Off != 40 || s2.Size != 40 {
		t.Fatalf("span2 = %+v, %v", s2, ok)
	}
	// Last span clamps to total.
	s3, ok, _ := cm.acquireTry(40)
	if !ok || s3.Off != 80 || s3.Size != 20 {
		t.Fatalf("span3 = %+v, %v", s3, ok)
	}

	// Complete out of order: 2nd chunk first.
	cm.complete(1, s2, bytes.Repeat([]byte{'b'}, 40))
	if cm.Frontier() != 0 {
		t.Fatalf("frontier moved on out-of-order chunk: %d", cm.Frontier())
	}
	if cm.outstanding() != 1 {
		t.Fatalf("outstanding = %d, want 1", cm.outstanding())
	}
	cm.complete(0, s1, bytes.Repeat([]byte{'a'}, 40))
	if cm.Frontier() != 80 {
		t.Fatalf("frontier = %d, want 80", cm.Frontier())
	}
	cm.complete(0, s3, bytes.Repeat([]byte{'c'}, 20))
	if !cm.Done() {
		t.Fatal("not done after all chunks")
	}
	want := append(bytes.Repeat([]byte{'a'}, 40), append(bytes.Repeat([]byte{'b'}, 40), bytes.Repeat([]byte{'c'}, 20)...)...)
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("sink = %q", sink.Bytes())
	}

	// After completion, acquire reports done.
	if _, ok, over := cm.acquireTry(10); ok || !over {
		t.Fatalf("acquire after done = ok %v, over %v", ok, over)
	}
}

func TestChunkManagerOutOfOrderLimitBlocks(t *testing.T) {
	cm := newChunkManager(1, nil)
	cm.setGate(true)
	cm.setTotal(1000)

	a, _, _ := cm.acquireTry(100) // [0,100) path 0 (will be the gap)
	b, _, _ := cm.acquireTry(100) // [100,200) path 1
	cm.complete(1, b, make([]byte, 100))

	// Path 1 asking for fresh work must wait: one OOO chunk stored.
	if s, ok, over := cm.acquireTry(100); ok || over {
		t.Fatalf("acquire returned %+v (over %v) despite full OOO store", s, over)
	}
	// Gap fills: frontier advances, the waiting path's re-poll proceeds.
	notified := 0
	cm.notify = func() { notified++ }
	cm.complete(0, a, make([]byte, 100))
	if notified == 0 {
		t.Fatal("gap fill did not notify waiting paths")
	}
	s, ok, _ := cm.acquireTry(100)
	if !ok || s.Off != 200 {
		t.Fatalf("unblocked span = %+v, %v, want off 200", s, ok)
	}
}

func TestChunkManagerRetryPriority(t *testing.T) {
	cm := newChunkManager(1, nil)
	cm.setGate(true)
	cm.setTotal(1000)
	s, _, _ := cm.acquireTry(100)
	cm.fail(s)
	// The retried span is handed out before fresh work, to any path.
	r, ok, _ := cm.acquireTry(500)
	if !ok || r != s {
		t.Fatalf("retry span = %+v, want %+v", r, s)
	}
}

func TestChunkManagerRetryBypassesGateAndLimit(t *testing.T) {
	cm := newChunkManager(1, nil)
	cm.setGate(true)
	cm.setTotal(300)
	a, _, _ := cm.acquireTry(100)
	b, _, _ := cm.acquireTry(100)
	cm.complete(1, b, make([]byte, 100)) // OOO store full
	cm.setGate(false)                    // and gate closed
	cm.fail(a)
	r, ok, _ := cm.acquireTry(100)
	if !ok || r != a {
		t.Fatalf("retry under closed gate = %+v, %v, want %+v", r, ok, a)
	}
}

func TestChunkManagerGateBlocksFreshWork(t *testing.T) {
	cm := newChunkManager(1, nil)
	cm.setTotal(1000) // gate starts closed
	if s, ok, over := cm.acquireTry(100); ok || over {
		t.Fatalf("acquire returned %+v (over %v) with closed gate", s, over)
	}
	cm.setGate(true)
	if _, ok, _ := cm.acquireTry(100); !ok {
		t.Fatal("acquire still waiting after gate opened")
	}
}

func TestChunkManagerStopUnblocks(t *testing.T) {
	cm := newChunkManager(1, nil)
	cm.setGate(true) // no total yet: acquire must wait
	if _, ok, over := cm.acquireTry(100); ok || over {
		t.Fatalf("acquire without a total = ok %v, over %v, want wait", ok, over)
	}
	cm.stop()
	if _, ok, over := cm.acquireTry(100); ok || !over {
		t.Fatalf("acquire after stop = ok %v, over %v, want over", ok, over)
	}
}

func TestChunkManagerOnDeliverFrontier(t *testing.T) {
	var mu sync.Mutex
	var frontiers []int64
	cm := newChunkManager(2, nil)
	cm.onDeliver = func(f int64) {
		mu.Lock()
		frontiers = append(frontiers, f)
		mu.Unlock()
	}
	cm.setGate(true)
	cm.setTotal(300)
	a, _, _ := cm.acquireTry(100)
	b, _, _ := cm.acquireTry(100)
	c, _, _ := cm.acquireTry(100)
	cm.complete(1, b, make([]byte, 100)) // stored, no callback
	cm.complete(0, c, make([]byte, 100)) // stored, no callback
	cm.complete(0, a, make([]byte, 100)) // releases everything
	mu.Lock()
	defer mu.Unlock()
	if len(frontiers) != 1 || frontiers[0] != 300 {
		t.Fatalf("frontiers = %v, want [300]", frontiers)
	}
}

func TestChunkManagerConcurrentPathsDeliverAllBytes(t *testing.T) {
	var sink bytes.Buffer
	cm := newChunkManager(1, &sink)
	cm.setGate(true)
	total := int64(1 << 20)
	cm.setTotal(total)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for {
				s, ok, over := cm.acquireTry(64 << 10)
				if over {
					return
				}
				if !ok {
					// The other path holds the gap: re-poll once it ran.
					runtime.Gosched()
					continue
				}
				data := make([]byte, s.Size)
				for i := range data {
					data[i] = byte((s.Off + int64(i)) % 251)
				}
				cm.complete(p, s, data)
			}
		}(p)
	}
	wg.Wait()
	if !cm.Done() {
		t.Fatal("not done")
	}
	got := sink.Bytes()
	if int64(len(got)) != total {
		t.Fatalf("sink length = %d, want %d", len(got), total)
	}
	for i, b := range got {
		if b != byte(i%251) {
			t.Fatalf("byte %d out of order", i)
		}
	}
}
