// This file holds chanlife's per-statement rules: a send sits under a
// select with a done/drain arm (a locally made buffered channel is no
// excuse), WaitGroup.Add does not run inside the goroutine it accounts
// for, and retry/backoff loops wait with a cancellable timer, never
// time.Sleep.
package chanlife

import (
	"context"
	"sync"
	"time"
)

func guardedSend(ch chan int, done chan struct{}) {
	go func() {
		select {
		case ch <- 1: // clean: the done arm lets the sender exit
		case <-done:
		}
	}()
	<-done
}

func defaultSend(ch chan int) {
	select {
	case ch <- 1: // clean: default arm, non-blocking
	default:
	}
}

func bufferedLocal() {
	ch := make(chan int, 4)
	go func() {
		ch <- 1 // want "channel send outside a select"
	}()
	<-ch
}

func allowedDrain(ch chan int) {
	ch <- 1 //gk:allow chanlife: testdata drain guarantee
}

func badBareSend(ch chan int) {
	ch <- 1 // want "channel send outside a select"
}

func badUnbuffered() {
	ch := make(chan int)
	go func() { <-ch }()
	ch <- 1 // want "channel send outside a select"
}

func badSelectNoDrain(a, b chan int) {
	select {
	case a <- 1: // want "channel send outside a select"
	case b <- 2: // want "channel send outside a select"
	}
}

func badWaitGroupAdd(wg *sync.WaitGroup) {
	go func() {
		wg.Add(1) // want "WaitGroup.Add inside the spawned goroutine"
		defer wg.Done()
	}()
	wg.Wait()
}

func cleanWaitGroup(wg *sync.WaitGroup, ch chan int) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-ch
	}()
	wg.Wait()
}

func badRetryBackoff(ctx context.Context, attempts int) {
	for i := 0; i < attempts; i++ {
		if ctx.Err() != nil {
			return
		}
		time.Sleep(time.Millisecond) // want "time.Sleep cannot observe cancellation"
	}
}

func cleanRetryBackoff(ctx context.Context, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C: // clean: the backoff wait carries a cancellation arm
		return true
	case <-ctx.Done():
		return false
	}
}

func allowedSleep() {
	time.Sleep(time.Millisecond) //gk:allow chanlife: testdata pacing guarantee
}
