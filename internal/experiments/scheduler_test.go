package experiments

import (
	"sync"
	"testing"
	"time"
)

// TestPoolRunsEachTaskOnce floods an 8-worker pool with tiny tasks while
// the workers are already draining it, so submits and worker receives
// interleave constantly, and requires every task to run exactly once.
// Under -race it also checks that each task's writes happen before the
// test reads them back.
func TestPoolRunsEachTaskOnce(t *testing.T) {
	const tasks = 20000
	p := newPool(8)
	defer p.close()
	runs := make([]int, tasks)
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := range runs {
		c := &runs[i]
		p.submit(func() {
			*c++
			wg.Done()
		})
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("the pool lost tasks: not all of them ran within a minute")
	}
	for i, n := range runs {
		if n != 1 {
			t.Fatalf("task %d ran %d times, want once", i, n)
		}
	}
}
