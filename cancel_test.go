package msplayer

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/videostore"
)

// closeTestbed drains the origin's per-connection loops — every
// transfer the cancelled session aborted must unwind on the clock —
// and then closes the testbed. Either step wedging hangs the test.
func closeTestbed(t *testing.T, tb *Testbed) {
	t.Helper()
	if !tb.Drain(nil) {
		t.Error("origin books did not settle after the cancelled session")
	}
	tb.Close()
}

// TestStreamCancelledContext: a session started with an already
// cancelled context tears down at its start instant and still returns
// its sealed (empty) metrics alongside context.Canceled.
func TestStreamCancelledContext(t *testing.T) {
	tb, err := NewTestbed(steadyProfile(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m, err := tb.Stream(ctx, SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
		Video:     "shortclip01",
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("cancelled session returned nil metrics")
	}
	if m.TotalBytes != 0 || m.Elapsed != 0 {
		t.Errorf("pre-cancelled session sealed %d bytes after %v, want nothing", m.TotalBytes, m.Elapsed)
	}
	closeTestbed(t, tb)
}

// TestStreamCancelledMidStream: cancelling the context from a
// clock-registered participant two seconds into a full play ends the
// session early — the sealed metrics hold the bytes delivered so far,
// short of the clip — and returns context.Canceled.
func TestStreamCancelledMidStream(t *testing.T) {
	tb, err := NewTestbed(steadyProfile(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	defer tb.Inject(func(ip *netem.Participant) {
		ip.Sleep(2 * time.Second)
		cancel()
	})()
	m, err := tb.Stream(ctx, SessionConfig{
		Scheduler: NewHarmonicScheduler(256<<10, 0.05),
		Paths:     BothPaths,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("cancelled session returned nil metrics")
	}
	v, _ := videostore.DefaultCatalog().Get(tb.Profile().Video)
	if size := v.Size(videostore.HD720); m.TotalBytes <= 0 || m.TotalBytes >= size {
		t.Errorf("TotalBytes = %d, want mid-stream (0, %d)", m.TotalBytes, size)
	}
	if m.Elapsed < 2*time.Second {
		t.Errorf("session sealed at %v, before the cancel at 2s", m.Elapsed)
	}
	closeTestbed(t, tb)
}
