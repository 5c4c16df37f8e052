package batchexec

import (
	"fmt"
	"slices"
	"sync"
)

// The asynchronous scheduler. Every distinct chunk of the store owns one
// chunkTask; a query subscribes to the single chunk its rank order wants
// next, the task is queued when it gains its first subscriber, and
// whichever goroutine pops it decodes the chunk once and processes the
// whole subscriber wave (processChunk): scan, per-subscriber pipeline
// charge in that query's own rank order, stop rule, and either
// retirement (streaming the completion) or a subscription to the query's
// next chunk. Subscriptions arriving while a task runs form the next
// wave: the finishing processor re-queues the task itself, so a chunk is
// never decoded concurrently with itself and a query is subscribed to at
// most one task at a time — which is the whole mutual-exclusion story:
// a query's state is only ever touched by the processor of the one task
// it is subscribed to.
//
// Tasks run on the process-wide pool up to the run's parallelism; beyond
// that they overflow to a run-local ready list. Every goroutine that
// pushes to the list drains it before leaving the run (workers after
// each task, the coordinator after seeding), so a ready task can never
// be orphaned and the run cannot deadlock even when the pool is
// saturated by concurrent batches — the same non-blocking discipline as
// the lockstep scheduler's inline fallback.

// chunkTask is one chunk's decode task: its current subscribers, the
// wave being processed, and whether the task is queued or running. Each
// buffer keeps one role for the life of the arena, so one run grows both
// to steady-state capacity and later runs allocate nothing; swapping
// them per wave would flip which buffer takes which wave from run to
// run, and the smaller one would regrow.
type chunkTask struct {
	subs []int32 // query states waiting for this chunk (guarded by mu)
	proc []int32 // copy of the wave, owned by the current processor
	busy bool    // queued or running (guarded by mu)
	mu   sync.Mutex
}

// subscribe registers query state si as waiting for chunk c and queues
// the chunk's task unless it is already queued or running (in which case
// the finishing processor will pick the subscription up as part of the
// next wave).
func (a *arena) subscribe(c int, si int32) {
	t := &a.tasks[c]
	t.mu.Lock()
	t.subs = append(t.subs, si)
	if t.busy {
		t.mu.Unlock()
		return
	}
	t.busy = true
	t.mu.Unlock()
	a.enqueue(int32(c))
}

// enqueue hands chunk c's task to the process-wide pool when the run has
// parallel headroom and a worker is free; otherwise the task goes to the
// run-local ready list. With Parallelism 1 the headroom is zero, so the
// whole run executes on the calling goroutine with no pool involvement.
func (a *arena) enqueue(c int32) {
	if a.inflight.Load() < a.maxInflight {
		a.inflight.Add(1)
		a.wg.Add(1)
		select {
		case jobs <- job{a: a, lo: c, hi: -1}:
			return
		default:
			a.wg.Done()
			a.inflight.Add(-1)
		}
	}
	a.readyMu.Lock()
	a.ready = append(a.ready, c)
	a.readyMu.Unlock()
}

// popReady takes the oldest ready task, compacting the backing slice
// once the list drains.
func (a *arena) popReady() (int32, bool) {
	a.readyMu.Lock()
	defer a.readyMu.Unlock()
	if a.readyHead == len(a.ready) {
		a.ready = a.ready[:0]
		a.readyHead = 0
		return 0, false
	}
	c := a.ready[a.readyHead]
	a.readyHead++
	return c, true
}

// runTask processes chunk c's task, then keeps draining the run-local
// ready list until it observes it empty. Because every push to the list
// happens inside a task body, and the pushing goroutine always reaches
// this drain loop afterwards, the last goroutine to leave the run
// necessarily leaves the list empty.
func (a *arena) runTask(ws *workerScratch, c int32) {
	for {
		a.processTask(ws, c)
		next, ok := a.popReady()
		if !ok {
			return
		}
		c = next
	}
}

// processTask copies the task's current subscriber wave out under the
// lock and processes the chunk for all of them. If new subscribers
// arrived meanwhile the task re-queues itself for the next wave;
// otherwise it goes idle.
func (a *arena) processTask(ws *workerScratch, c int32) {
	t := &a.tasks[c]
	t.mu.Lock()
	t.proc = append(t.proc[:0], t.subs...)
	t.subs = t.subs[:0]
	members := t.proc
	t.mu.Unlock()

	if len(members) > 0 {
		// Members ascend by state: deterministic error attribution (the
		// lowest query of the wave owns a read failure) and the scanGroup
		// merge walk both rely on it.
		slices.Sort(members)
		if !a.aborted(members[0]) {
			a.processChunk(ws, int(c), members)
		}
	}

	t.mu.Lock()
	if len(t.subs) > 0 && !a.failed.Load() {
		t.mu.Unlock()
		a.enqueue(c)
		return
	}
	t.busy = false
	t.mu.Unlock()
}

// aborted reports whether the run has failed or been cancelled,
// recording the cancellation against the given query on first
// observation. Checked before every chunk decode, so after a
// cancellation each live query stops within one chunk charge per
// pipeline — the same granularity as the single-query path's per-chunk
// ctx check.
func (a *arena) aborted(state int32) bool {
	if a.failed.Load() {
		return true
	}
	if a.ctx != nil {
		if err := a.ctx.Err(); err != nil {
			a.fail(state, fmt.Errorf("canceled mid-batch: %w", err))
			return true
		}
	}
	return false
}

// runAsync executes the run on the asynchronous per-chunk work queue:
// seed every live query's first subscription, drain the overflow the
// seeding produced, then wait out the tasks in flight on the pool.
func (a *arena) runAsync(workers int) error {
	if cap(a.tasks) < len(a.metas) {
		// Fresh allocation, never a copy: chunkTask holds a mutex. The
		// store's chunk count is fixed, so per-engine this happens once.
		a.tasks = make([]chunkTask, len(a.metas))
	}
	a.tasks = a.tasks[:len(a.metas)]
	for i := range a.tasks {
		t := &a.tasks[i]
		t.subs = t.subs[:0]
		t.proc = t.proc[:0]
		t.busy = false
	}
	a.ready = a.ready[:0]
	a.readyHead = 0
	a.inflight.Store(0)
	if workers <= 1 {
		a.maxInflight = 0
	} else {
		a.maxInflight = int32(workers)
		ensurePool()
	}

	for _, si := range a.live {
		st := &a.states[si]
		a.subscribe(st.ranked[st.cursor].Idx, si)
	}
	for {
		c, ok := a.popReady()
		if !ok {
			break
		}
		a.runTask(&a.coord, c)
	}
	a.wg.Wait()
	if a.failed.Load() {
		return &QueryError{Query: int(a.errState), Err: a.err}
	}
	return nil
}
