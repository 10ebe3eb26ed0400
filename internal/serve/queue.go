package serve

import "sync"

// Job classes: the two levels of the scheduler's priority queue.
// Interactive is the default — a human waiting on one answer. Bulk is
// for sweeps (batches, experiment harnesses): admitted under its own
// depth limit and only run when no interactive work is waiting, so a
// night-long sweep never delays a single interactive tune by more than
// the job already running.
const (
	ClassInteractive = "interactive"
	ClassBulk        = "bulk"
)

// jobQueue is the scheduler's two-level priority queue with per-class
// admission control. Workers always drain interactive jobs before bulk
// ones; each class has its own depth limit so a bulk flood cannot
// exhaust the interactive admission budget (and vice versa). It
// replaces a plain channel, preserving its two contracts: push on a
// full class fails immediately (the 503 path), and close lets workers
// drain what was admitted before they exit.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	levels [2][]*job // 0 = interactive, 1 = bulk
	depths [2]int
	closed bool
}

func newJobQueue(interactiveDepth, bulkDepth int) *jobQueue {
	q := &jobQueue{depths: [2]int{interactiveDepth, bulkDepth}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// level maps a normalized class to its queue level.
func level(class string) int {
	if class == ClassBulk {
		return 1
	}
	return 0
}

// push admits a job to its class's queue; false means the class is at
// its depth limit (or the queue is closed) and the job was not
// admitted.
func (q *jobQueue) push(j *job, class string) bool {
	lv := level(class)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.levels[lv]) >= q.depths[lv] {
		return false
	}
	q.levels[lv] = append(q.levels[lv], j)
	q.cond.Signal()
	return true
}

// pop blocks until a job is available — interactive strictly before
// bulk — or the queue is closed and drained (ok false).
func (q *jobQueue) pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		for lv := range q.levels {
			if n := len(q.levels[lv]); n > 0 {
				j := q.levels[lv][0]
				copy(q.levels[lv], q.levels[lv][1:])
				q.levels[lv] = q.levels[lv][:n-1]
				return j, true
			}
		}
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
}

// close rejects further pushes and wakes every waiting worker; already
// admitted jobs are still handed out.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// lens snapshots the per-class backlog (interactive, bulk).
func (q *jobQueue) lens() (int, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.levels[0]), len(q.levels[1])
}
