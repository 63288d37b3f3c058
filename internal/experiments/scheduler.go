package experiments

import (
	"runtime"
	"sync"
)

// pool is a bounded work-stealing worker pool. Every worker owns a deque;
// submitted tasks are dealt round-robin across the deques, each worker
// drains its own deque from the front (in submission order), and a worker
// whose deque is empty steals from the back of the deepest sibling deque,
// so long workloads that pile up behind a slow worker are redistributed
// instead of serializing the tail of the run. The deal is by task, not by
// workload: RunSuites submits a workload's passes one after another, so
// with two or more workers pass j and pass j+1 land on different workers.
// They share the workload's tape through the trace cache entry, which
// builds it once however many tasks ask for it at the same time.
//
// Tasks never spawn or wait on other tasks, so a single condition variable
// over all deques is sufficient and deadlock-free; at (workload × pass)
// granularity — milliseconds per task — the shared lock is not contended.
type pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	deques [][]func()
	rr     int // round-robin submit cursor
	closed bool
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{deques: make([][]func(), workers)}
	p.cond = sync.NewCond(&p.mu)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// submit queues one task. It never blocks.
func (p *pool) submit(f func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("experiments: submit on closed pool")
	}
	p.deques[p.rr] = append(p.deques[p.rr], f)
	p.rr = (p.rr + 1) % len(p.deques)
	p.mu.Unlock()
	p.cond.Signal()
}

func (p *pool) worker(w int) {
	p.mu.Lock()
	for {
		if f := p.take(w); f != nil {
			p.mu.Unlock()
			f()
			p.mu.Lock()
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// take pops the worker's own oldest task, or, when its deque is empty,
// steals the newest task from the deepest sibling. Caller holds mu.
func (p *pool) take(w int) func() {
	if q := p.deques[w]; len(q) > 0 {
		f := q[0]
		p.deques[w] = q[1:]
		return f
	}
	victim := -1
	for i, q := range p.deques {
		if len(q) > 0 && (victim < 0 || len(q) > len(p.deques[victim])) {
			victim = i
		}
	}
	if victim < 0 {
		return nil
	}
	q := p.deques[victim]
	f := q[len(q)-1]
	p.deques[victim] = q[:len(q)-1]
	return f
}

// close stops the workers after the queued work drains.
func (p *pool) close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
}
