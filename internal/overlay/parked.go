package overlay

import "sync/atomic"

// maxParked bounds the workers a parked pool keeps waiting for work: a
// connection's dispatch workers and a node's match-push workers. Async match
// pushes in tcp-fanout (seed 1) are one deep for 92% of pushes and two deep
// for 8%; deeper bursts are rare enough that spawning for them is cheap.
const maxParked = 4

// parked hands jobs to workers parked on an unbuffered channel, so a steady
// stream of jobs spawns no goroutine per job. A job that finds no parked
// worker gets a new one (the caller starts it); a worker that finishes a job
// parks for the next one unless maxParked workers are parked already.
type parked[T any] struct {
	jobs chan T        // unbuffered: a send succeeds only into a parked worker
	done chan struct{} // closed by stop, which releases the parked workers
	idle atomic.Int32  // workers parked on jobs
}

func newParked[T any]() *parked[T] {
	return &parked[T]{jobs: make(chan T), done: make(chan struct{})}
}

// submit hands j to a parked worker and reports whether one took it.
func (p *parked[T]) submit(j T) bool {
	select {
	case p.jobs <- j:
		return true
	default:
		return false
	}
}

// park waits for the next job. It returns false, and the worker should
// exit, when maxParked workers are parked already or stop was called.
func (p *parked[T]) park() (j T, ok bool) {
	if p.idle.Add(1) <= maxParked {
		select {
		case j, ok = <-p.jobs:
		case <-p.done:
		}
	}
	p.idle.Add(-1)
	return j, ok
}

// stop releases the parked workers and keeps later ones from parking; a
// submit after it finds no worker. Call it once.
func (p *parked[T]) stop() { close(p.done) }
