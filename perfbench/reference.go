package main

import (
	"crypto/sha256"
	"math/rand"
	"sort"
	"time"
)

// refNominal is how long referenceWork takes on the machine the
// baseline was measured on, in a quiet moment.
const refNominal = 250 * time.Millisecond

var refSink int

// referenceWork runs a fixed workload that uses only the standard
// library — allocation and collection, map inserts, a sort, hashing —
// and returns how long it took. The driver runs it before every child,
// in its own process so that it adds nothing to the child's CPU time or
// peak RSS; its time says how fast the machine is at that moment, and
// the host-time metrics are scaled by it to the reference machine's
// speed. On a shared machine that speed drifts by tens of percent
// within minutes, and unscaled times would read the drift as a
// regression. Changes to the program cannot move this time.
func referenceWork() time.Duration {
	t0 := time.Now()
	for rep := 0; rep < 3; rep++ {
		rng := rand.New(rand.NewSource(1))
		m := make(map[int]int)
		for i := 0; i < 200000; i++ {
			m[rng.Int()] = i
		}
		xs := make([]int, 300000)
		for i := range xs {
			xs[i] = rng.Int()
		}
		sort.Ints(xs)
		sum := sha256.Sum256(make([]byte, 4<<20))
		var bufs [][]byte
		for i := 0; i < 20000; i++ {
			bufs = append(bufs, make([]byte, 256))
		}
		refSink += len(m) + xs[0]%2 + int(sum[0]) + len(bufs)
	}
	return time.Since(t0)
}
