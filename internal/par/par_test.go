package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestForCoversEveryIndexOnce is the loop's contract over the shapes its
// callers hand it: every index of [0, n) lands in exactly one block, a worker
// index stays below the worker count asked for and below the number of
// blocks (no idle worker is started), and one worker — asked for, or all the
// work leaves room for — gets the whole range in one call as worker 0.
func TestForCoversEveryIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, tc := range []struct {
		name              string
		workers, n, grain int
	}{
		{"empty", 4, 0, 8},
		{"under one grain", 4, 5, 8},
		{"exactly one grain", 4, 8, 8},
		{"more workers than blocks", 16, 20, 8},
		{"zero workers", 0, 100, 8},
		{"one worker", 1, 100, 8},
		{"ragged tail", 3, 1001, 64},
		{"many blocks", 4, 10_000, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hits := make([]atomic.Int32, tc.n)
			var mu sync.Mutex
			seen := map[int]bool{}
			calls := 0
			For(tc.workers, tc.n, tc.grain, func(w, lo, hi int) {
				mu.Lock()
				seen[w] = true
				calls++
				mu.Unlock()
				if lo < 0 || hi > tc.n || lo >= hi {
					t.Errorf("block [%d,%d) outside [0,%d)", lo, hi, tc.n)
					return
				}
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
			})
			for i := range hits {
				if h := hits[i].Load(); h != 1 {
					t.Fatalf("index %d visited %d times", i, h)
				}
			}
			if tc.n == 0 {
				if calls != 0 {
					t.Fatalf("body ran %d times over an empty range", calls)
				}
				return
			}
			blocks := (tc.n + tc.grain - 1) / tc.grain
			// A worker beyond the blocks would find the cursor spent, so none
			// is started: the indices handed out stop at the block count.
			limit := max(1, min(tc.workers, blocks))
			for w := range seen {
				if w < 0 || w >= limit {
					t.Fatalf("worker index %d outside [0,%d)", w, limit)
				}
			}
			if min(tc.workers, blocks) <= 1 && (calls != 1 || !seen[0]) {
				t.Fatalf("a single worker must run [0,n) inline as worker 0: %d calls, workers %v", calls, seen)
			}
		})
	}
}
