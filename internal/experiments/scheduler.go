package experiments

import "runtime"

// pool is a bounded worker pool over one FIFO queue: a fixed set of
// workers range over an unbuffered channel, so tasks start in submission
// order and submit blocks until a worker is free to take the task. Tasks
// never submit or wait on other tasks, so a blocked submit always makes
// progress. RunSuites submits a workload's passes one after another, so
// with two or more workers pass j and pass j+1 run on different workers at
// once; they share the workload's tape through the trace cache entry,
// which builds it once however many tasks ask for it at the same time.
type pool struct {
	tasks chan func()
}

func newPool(workers int) *pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &pool{tasks: make(chan func())}
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// submit hands one task to the next free worker.
func (p *pool) submit(f func()) { p.tasks <- f }

func (p *pool) worker() {
	for f := range p.tasks {
		f()
	}
}

// close stops the workers once the tasks they hold have finished.
func (p *pool) close() { close(p.tasks) }
