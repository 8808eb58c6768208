// Package chanlife is gklint analyzer testdata. This file holds the path
// rules: a channel is closed at most once per path, deferred closes counted,
// and never sent on after a close. sends.go holds the per-statement rules.
package chanlife

func ownerCloses(done chan struct{}) {
	ch := make(chan int)
	go func() {
		defer close(ch) // clean: the sending goroutine closes, once
		for i := 0; i < 3; i++ {
			select {
			case ch <- i:
			case <-done:
				return
			}
		}
	}()
	for range ch {
	}
}

func badSendAfterClose(ch chan int) {
	close(ch)
	ch <- 1 // want "reachable after its close" "channel send outside a select"
}

func badDoubleClose(ch chan int) {
	close(ch)
	close(ch) // want "may already be closed"
}

func goodBranchClose(a, b chan int, cond bool) {
	if cond {
		close(a) // clean: the two closes are path-exclusive
	} else {
		close(b)
	}
}

func badDeferredThenExplicit(ch chan int) {
	defer close(ch)
	close(ch) // want "deferred close pending"
}

func badTwoDeferredCloses(ch chan int) {
	defer close(ch)
	defer close(ch) // want "already has a deferred close"
}

func allowedFlagGuardedClose(events chan int, done chan struct{}) {
	closed := false
	for ev := range events {
		if ev < 0 && !closed {
			closed = true
			//gk:allow chanlife: testdata boolean guard the flow analysis cannot track
			close(done)
		}
	}
}
