package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ned"
)

// admission is the bounded in-flight query budget: a semaphore that
// fails fast instead of queuing, so an overloaded server spends its
// cycles finishing admitted work and answering 429s in microseconds
// rather than stacking goroutines behind queries it will only slow
// down.
type admission struct {
	slots     chan struct{}
	overloads atomic.Int64
}

func newAdmission(limit int) *admission {
	return &admission{slots: make(chan struct{}, limit)}
}

// tryAcquire claims a slot or reports overload immediately.
func (a *admission) tryAcquire() bool {
	select {
	case a.slots <- struct{}{}:
		return true
	default:
		a.overloads.Add(1)
		return false
	}
}

func (a *admission) release() { <-a.slots }

// inflight is the currently admitted query count.
func (a *admission) inflight() int { return len(a.slots) }

// limit is the admission capacity.
func (a *admission) limit() int { return cap(a.slots) }

// coalResult is one member's share of a batch pass.
type coalResult struct {
	nbs []ned.Neighbor
	err error
}

// coalReq is one KNN request queued behind the passes in flight.
type coalReq struct {
	ctx    context.Context
	sig    ned.Signature
	l      int
	queued time.Time
	done   chan coalResult // buffered: a pass never blocks on a member that left
}

// lane is one tenant's pass accounting; the zero value is an idle lane.
type lane struct {
	mu    sync.Mutex
	busy  int        // passes in flight, at most the tenant's passSlots
	queue []*coalReq // requests that found every slot busy, oldest first
}

// coalescer batches single-node KNN requests by load, not by clock. A
// request that finds one of its tenant's pass slots free runs at once, on
// its handler's goroutine, as a plain Corpus.KNN; one that finds them all
// busy queues, and whichever pass finishes next hands its slot to the
// queued requests of one l as a single BatchKNN executor pass. Batch size
// follows load by itself — a lone client never waits, a burst shares
// passes — and nothing waits while a slot is idle. Queued requests keep
// their admission slots, so MaxInflight bounds the queue.
//
// Answers are node-identical either way: a queued member's signature
// comes from the graph node the direct path resolves, and BatchKNN runs
// the same cascade + canonical merge per query (the equivalence suite).
type coalescer struct {
	maxBatch int

	// onPanic, when set, observes a panic recovered from a batch pass, which
	// runs outside any HTTP handler and would otherwise kill the daemon.
	onPanic func(p any)

	// onPass, when set, runs at the start of every pass, slot held, with
	// the context the pass executes under and its queued member count (0
	// for a direct pass) — a test seam for saturating the slots.
	onPass func(ctx context.Context, members int)

	batches   atomic.Int64 // multi-request executor passes run
	coalesced atomic.Int64 // requests served by those passes
	waits     atomic.Int64 // requests taken off the queue by a pass
	waitNS    atomic.Int64 // total time those spent queued
}

// knn answers one request: directly when a slot is free, otherwise from
// the batch pass that takes it off the queue. A queued member whose
// context dies stops waiting; its pass keeps running for the others.
func (co *coalescer) knn(ctx context.Context, t *Tenant, v ned.NodeID, l int) ([]ned.Neighbor, error) {
	if !t.lane.enter(t.passSlots(), nil) {
		sig, err := t.Corpus.Signature(v)
		if err != nil {
			// Out-of-range node: the engine's own check types the error.
			return t.Corpus.KNN(ctx, v, l)
		}
		req := &coalReq{ctx: ctx, sig: sig, l: l, queued: time.Now(), done: make(chan coalResult, 1)}
		if !t.lane.enter(t.passSlots(), req) {
			select {
			case res := <-req.done:
				return res.nbs, res.err
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		// A slot came free during the extraction: run direct after all.
	}
	defer co.release(t)
	if co.onPass != nil {
		co.onPass(ctx, 0)
	}
	return t.Corpus.KNN(ctx, v, l)
}

// enter claims a pass slot and reports true, or — every slot busy —
// appends req (when given) to the queue and reports false.
func (ln *lane) enter(slots int, req *coalReq) bool {
	ln.mu.Lock()
	defer ln.mu.Unlock()
	if ln.busy < slots {
		ln.busy++
		return true
	}
	if req != nil {
		ln.queue = append(ln.queue, req)
	}
	return false
}

// release ends a pass; every pass defers it, so one that fails, panics
// or is abandoned strands no one. The slot goes to the next queued batch
// if there is one — on its own goroutine, so a handler done with its
// direct pass answers its client first — and otherwise back to the lane.
func (co *coalescer) release(t *Tenant) {
	t.lane.mu.Lock()
	defer t.lane.mu.Unlock()
	if batch := co.take(&t.lane); batch != nil {
		go co.runBatch(t, batch)
	} else {
		t.lane.busy--
	}
}

// take removes the next batch from the queue (ln.mu held): the oldest
// live request picks the l and every queued request of that l joins, up
// to maxBatch. Members whose context died are dropped — their handlers
// have stopped waiting. nil when nothing live is queued.
func (co *coalescer) take(ln *lane) []*coalReq {
	var batch []*coalReq
	rest := ln.queue[:0]
	for _, r := range ln.queue {
		switch {
		case r.ctx.Err() != nil:
		case len(batch) < co.maxBatch && (batch == nil || r.l == batch[0].l):
			batch = append(batch, r)
			co.waits.Add(1)
			co.waitNS.Add(time.Since(r.queued).Nanoseconds())
		default:
			rest = append(rest, r)
		}
	}
	clear(ln.queue[len(rest):])
	ln.queue = rest
	return batch
}

// runBatch is one batch pass, holding the slot it was handed. An engine
// panic is recovered: members not yet answered get a typed error.
func (co *coalescer) runBatch(t *Tenant, reqs []*coalReq) {
	defer co.release(t)
	defer func() {
		if p := recover(); p != nil {
			if co.onPanic != nil {
				co.onPanic(p)
			}
			err := fmt.Errorf("%w: coalesced batch: %v", ErrPanic, p)
			for _, r := range reqs {
				select {
				case r.done <- coalResult{err: err}:
				default: // already answered before the panic
				}
			}
		}
	}()
	if len(reqs) > 1 {
		co.batches.Add(1)
		co.coalesced.Add(int64(len(reqs)))
	}

	// The pass context cancels only when every member has given up: one
	// impatient client must not abort a pass others still want, while a
	// wholly abandoned pass should stop burning executor time.
	execCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var live atomic.Int32
	live.Store(int32(len(reqs)))
	sigs := make([]ned.Signature, len(reqs))
	for i, r := range reqs {
		sigs[i] = r.sig
		stop := context.AfterFunc(r.ctx, func() {
			if live.Add(-1) == 0 {
				cancel()
			}
		})
		defer stop()
	}
	if co.onPass != nil {
		co.onPass(execCtx, len(reqs))
	}
	results, err := t.Corpus.BatchKNN(execCtx, sigs, reqs[0].l)
	if err != nil {
		results = make([][]ned.Neighbor, len(reqs)) // every member gets err alone
	}
	for i, r := range reqs {
		r.done <- coalResult{results[i], err}
	}
}
