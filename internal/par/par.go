// Package par holds the repository's one host-side fan-out loop.
package par

import (
	"sync"
	"sync/atomic"
)

// For runs body over [0, n) across workers goroutines, each claiming
// grain-sized blocks off a shared cursor, so a block of early-sealed pairs
// doesn't leave its worker idle while another grinds through exhaustive
// ones. It is the one host-side fan-out: the simulated kernel launch, the
// engines' packing and filtering and the mapper's seeding and verification
// all run on it. Channel-free by design — the block fully determines its
// worker's writes, so indexed slices are the only shared state: body must
// touch only its [lo, hi) slots. w names the calling worker, in
// [0, workers), so a body can keep per-worker scratch. No more workers start
// than there are blocks to claim; one worker runs inline.
func For(workers, n, grain int, body func(w, lo, hi int)) {
	if n == 0 {
		return
	}
	workers = min(workers, (n+grain-1)/grain)
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				hi := int(cursor.Add(int64(grain)))
				lo := hi - grain
				if lo >= n {
					return
				}
				if hi > n {
					hi = n
				}
				body(w, lo, hi)
			}
		}(w)
	}
	wg.Wait()
}
