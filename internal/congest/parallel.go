package congest

import (
	"fmt"
	"math/rand"
	"sort"
)

// The round. Every run splits the node IDs into one contiguous range per
// worker, balanced by degree+1 and kept by the network for later runs at
// the same worker count, and runs each round as two phases over the
// ranges, each stepping every node of its range with one context. With
// Options.Workers > 1 a pool of goroutines is started with
// the run, and each round chooses where its phases run: on the pool, one
// goroutine a range, or inline, every range in worker order on the calling
// goroutine without waking the pool. A round runs inline when the previous
// round stepped fewer than sparseNodes nodes (round 1 counts all n, since
// every node steps in it); a single range (Workers <= 1) has no pool and
// always runs inline. The phase closures are built once, so the steady
// state allocates nothing:
//
//  1. step: every worker steps its range's awake nodes, each reading its
//     inbox from its window of the worker's receive arena and writing its
//     messages into the worker's send log, then validates and accounts the
//     log against its senders' private slots of the CSR edge index. The
//     first range counts each message to its own range against the
//     receiver's window at once; every other accepted message is queued,
//     as its index in the log, for the worker that owns the receiver. A
//     stepped node that is not done stays awake for the next round.
//  2. deliver: every worker counts the queues addressed to it, lays its
//     round's receivers out in its receive arena, copies the first range's
//     own messages and then the queues, in worker order, into place, wakes
//     the receivers that are done, and zeroes the edge slots it charged in
//     phase 1.
//
// Each worker keeps the awake set of its own range in private words, so no
// word is written by two workers. A round therefore costs
// O(n/64W + awake/W + traffic/W) per worker behind two barriers. The result
// is the same for every worker count, argued in DESIGN.md ("The congest hot
// path"): a node's Round touches only its own state, its worker's context
// and random sources, its inbox and the free tail of its worker's send
// log, accounting folds
// per-worker sums and maxes in worker order, and ranges ascend with the
// worker index, so placing the first range's direct messages and then the
// queues in worker order fills each receiver's window in ascending sender
// ID, outbox order within a sender. A validation error folds the ranges
// before the failing one and the failing range's messages before its
// error, which is the same partial result for every worker count. Where a
// round runs cannot change it either: an inline round runs the same worker
// bodies over the same ranges in worker order, which is one of the
// schedules the pool may take, and the fold, the trace, the cancel poll and
// the panic re-raise run on the calling goroutine in both.

// sparseNodes is the crossover of the per-round choice: a round at
// Workers > 1 whose previous round stepped fewer nodes runs inline. A pool
// dispatch and its barrier cost about 11 µs a phase on a 2-vCPU host (Go
// 1.24.0, GOMAXPROCS 2), which a round that steps a few hundred nodes does
// not earn back. BenchmarkRoundLoopCrossover measures it: 64 rounds of
// BenchmarkRoundLoopFloodWords's dense flood, every node stepping every
// round, with every round inline and with every round on the pool. On that
// host at Workers 4 inline won at 1,024, 1,600 and 1,936 nodes (6.6
// against 7.2, 9.3 against 9.6 and 11.1 against 11.5 ms) and the pool at
// 2,304 nodes (14.4 against 15.1 ms) and at 10,000 (43 against 84 ms),
// medians of eight runs.
//
// 2,048 is that crossover at Workers 4, and every worker count uses it. At
// Workers 2 the same runs' medians change sides within the spread between
// 1,024 and 2,304 nodes, and the pool wins at 10,000 (55 against 72 ms,
// all eight runs).
const sparseNodes = 2048

// inlineBelow is the step count below which a round runs inline:
// sparseNodes, except where a test moves it. Zero puts every round of a
// run with a pool on the pool, and math.MaxInt runs every round inline.
var inlineBelow = sparseNodes

// rangeWorker is everything one worker writes during a round. Padded so
// adjacent workers' state does not share a cache line.
type rangeWorker struct {
	// sent is the round's send log: the messages of the range's stepped
	// nodes in sender order, outbox order within a sender, with From
	// stamped and negative Bits clamped to zero. It stays untouched until
	// the next round's step, so an index into it is all the rest of the
	// round needs to deliver or trace a message, and its first
	// traffic.Messages entries are the ones validation accepted.
	sent []Message
	// queues[o] holds the indexes in sent of the round's accepted messages
	// to receivers in worker o's range, in sender order. The first
	// worker's queue to itself stays empty: it delivers those messages
	// during validation.
	queues [][]int32
	// touched lists the edge slots charged this round.
	touched []int32
	// recv is the range's receive arena: the deliveries of the round just
	// validated, each receiver's messages one run at its window, in sender
	// order. Only this worker writes it, and only in the delivery phase,
	// once its whole range has stepped and read its windows; it grows by
	// doubling to the most messages one round delivered into the range.
	recv []Message
	// rcvd lists the round's receivers in the range, each the first time a
	// message to it is counted, so the arena is laid out over them alone.
	rcvd []int32
	// awake and wake are the range's vote-to-halt words, indexed from the
	// range's first node lo: bit i%64 of awake[i/64] is set when node lo+i
	// steps this round, and wake collects the nodes that step next round.
	awake, wake []uint64

	// lo and hi bound the range: the worker owns nodes lo..hi-1.
	lo, hi int
	// ctx is the context every factory and Round call of the range is
	// handed, its ID set to the node's before each call, and it points at
	// this worker. Like rngs, only the goroutine stepping the range writes
	// it: the caller's in the factory calls and inline rounds, the
	// worker's own on the pool.
	ctx Context
	// rngs holds the range's random sources, node lo+i's at i. The table is
	// built on the range's first draw of a run and each source on its
	// node's first draw, and park drops the table, so a run whose nodes
	// never draw allocates nothing for it.
	rngs []*rand.Rand

	// panicAt is the first node of the range that panicked this round, or
	// -1; panicVal is its panic value.
	panicAt  int
	panicVal any
	// err is the range's first validation error, as the run returns it.
	err error

	// traffic and maxEdgeBits account the range's accepted messages, and
	// stepped counts the nodes the range stepped.
	traffic     RoundTraffic
	maxEdgeBits int
	stepped     int
	notAllDone  bool
	_           [64]byte
}

// reset starts the worker's round: the send log, the queues and the
// receiver list empty, the nodes woken last round become the awake set,
// and the old awake words are cleared to collect the next one. touched is
// already empty, since delivery or the error return zeroes the slots it
// lists. The arena keeps the last round's deliveries, which the range's
// steps read, and the range's bounds, context and random sources carry
// over.
func (wk *rangeWorker) reset() {
	for o := range wk.queues {
		wk.queues[o] = wk.queues[o][:0]
	}
	awake, wake := wk.wake, wk.awake
	clear(wake)
	*wk = rangeWorker{sent: wk.sent[:0], queues: wk.queues, touched: wk.touched,
		recv: wk.recv, rcvd: wk.rcvd[:0], awake: awake, wake: wake, panicAt: -1,
		lo: wk.lo, hi: wk.hi, ctx: wk.ctx, rngs: wk.rngs}
}

// source returns node v's random source, seeded from seed and v, building
// it, and the range's table on the range's first draw, when v first draws.
func (wk *rangeWorker) source(seed int64, v int) *rand.Rand {
	if wk.rngs == nil {
		wk.rngs = make([]*rand.Rand, wk.hi-wk.lo)
	}
	r := &wk.rngs[v-wk.lo]
	if *r == nil {
		*r = rand.New(rand.NewSource(seed*1_000_003 + int64(v)))
	}
	return *r
}

// commit appends node v's outbox to the send log. An outbox built in the
// log's free tail (Context.Outbox) is already in place and only needs its
// length taken; any other outbox, a subslice of the tail included, is
// copied, and append's copy is safe when the two overlap. Then it stamps
// From and clamps negative Bits on the committed messages.
func (wk *rangeWorker) commit(v int, out []Message) {
	n := len(wk.sent)
	if free := wk.sent[n:cap(wk.sent)]; len(free) > 0 && &free[0] == &out[0] {
		wk.sent = wk.sent[:n+len(out)]
	} else {
		wk.sent = append(wk.sent, out...)
	}
	for i := n; i < len(wk.sent); i++ {
		m := &wk.sent[i]
		m.From, m.Bits = v, max(m.Bits, 0)
	}
}

// count adds a message to receiver to's window, and lists the receiver
// the first time one is counted this round. Only to's owner counts to it.
func (wk *rangeWorker) count(wins []window, to int) {
	win := &wins[to]
	if win.n == 0 {
		wk.rcvd = append(wk.rcvd, int32(to))
	}
	win.n++
}

// layout gives each receiver listed this round its run of the arena, in
// list order and sized by its count, and leaves the window's n at zero for
// place to count up again. It wakes the receivers that are done. The arena
// grows only when the round delivers more than it holds, to at least twice
// its old room, and is never copied: every message in it has been read.
func (wk *rangeWorker) layout(wins []window, done []bool) {
	total := int32(0)
	for _, v := range wk.rcvd {
		win := &wins[v]
		win.lo, total, win.n = total, total+win.n, 0
		if done[v] {
			wk.wakeAt(int(v) - wk.lo)
		}
	}
	if int(total) > cap(wk.recv) {
		wk.recv = make([]Message, total, max(int(total), 2*cap(wk.recv)))
	}
	wk.recv = wk.recv[:total]
}

// place copies msg to the next free place of its receiver's window.
func (wk *rangeWorker) place(wins []window, msg *Message) {
	win := &wins[msg.To]
	wk.recv[win.lo+win.n] = *msg
	win.n++
}

// wakeAt marks the range's node lo+i to step next round.
func (wk *rangeWorker) wakeAt(i int) { wk.wake[i>>6] |= 1 << (i & 63) }

// wakeAll marks every node of the range to step next round: a run's first
// reset swaps this set in, so every node steps in round 1.
func (wk *rangeWorker) wakeAll() {
	size := wk.hi - wk.lo
	for i := 0; i < size; i += 64 {
		wk.wake[i>>6] = ^uint64(0) >> max(0, 64-(size-i))
	}
}

// workerPool is a fixed set of goroutines that execute one job function at a
// time. run dispatches the job to every worker and blocks until all report
// back; the pool is reused across rounds and phases without spawning. Each
// goroutine reports back once more when close stops it.
type workerPool struct {
	workers int
	jobs    []chan func(w int)
	done    chan struct{}
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{
		workers: workers,
		jobs:    make([]chan func(w int), workers),
		done:    make(chan struct{}, workers),
	}
	for w := 0; w < workers; w++ {
		ch := make(chan func(w int), 1)
		p.jobs[w] = ch
		go func(w int, ch chan func(w int)) {
			for job := range ch {
				job(w)
				p.done <- struct{}{}
			}
			p.done <- struct{}{}
		}(w, ch)
	}
	return p
}

// run executes job(w) on every worker w and returns when all have finished.
func (p *workerPool) run(job func(w int)) {
	for _, ch := range p.jobs {
		ch <- job
	}
	p.wait()
}

// close terminates the pool's goroutines and returns once all have stopped,
// so none outlives its run, even in a run whose rounds all ran inline and
// never woke them. The pool must be idle.
func (p *workerPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
	p.wait()
}

// wait blocks until every worker has reported back.
func (p *workerPool) wait() {
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}

func panicText(v, round int, p any) string {
	return fmt.Sprintf("congest: node %d panicked in round %d: %v", v, round, p)
}

// partition splits the node IDs into one contiguous range per worker,
// worker w owning starts[w]..starts[w+1]-1. The ranges balance Σ(degree+1):
// a node costs one Round call plus one pass per incident edge to validate
// and deliver. A node heavier than a worker's share leaves the ranges after
// it empty. With one worker the single range holds every node. Each
// worker's context points at the worker.
func (st *runState) partition(workers int) {
	total := int64(st.offsets[st.n]) + int64(st.n)
	st.starts = make([]int, workers+1)
	for w := 1; w < workers; w++ {
		share := total * int64(w) / int64(workers)
		st.starts[w] = sort.Search(st.n, func(v int) bool {
			return int64(st.offsets[v])+int64(v) >= share
		})
	}
	st.starts[workers] = st.n
	st.workers = make([]rangeWorker, workers)
	for w := range st.workers {
		wk := &st.workers[w]
		wk.lo, wk.hi = st.starts[w], st.starts[w+1]
		wk.ctx = Context{st: st, wk: wk}
		wk.queues = make([][]int32, workers)
		// The words are padded to whole cache lines, so two workers'
		// words never share one.
		words := (wk.hi - wk.lo + 63) / 64
		wk.awake = make([]uint64, words, (words+7)&^7)
		wk.wake = make([]uint64, words, (words+7)&^7)
	}
}

// owner returns the worker whose range holds node v: the first worker
// whose range ends after v, which skips the empty ranges ending at v. The
// last range ends at n, so only the others are searched.
func (st *runState) owner(v int) int {
	return sort.Search(len(st.workers)-1, func(w int) bool { return st.starts[w+1] > v })
}

// each runs job(w) for every range w and returns when all have finished:
// on the pool when the run has one and the previous round stepped at least
// inlineBelow nodes, else on the calling goroutine in worker order.
func (st *runState) each(job func(w int)) {
	if st.pool != nil && st.stepped >= inlineBelow {
		st.pool.run(job)
		return
	}
	for w := range st.workers {
		job(w)
	}
}

// runRound runs round st.round and reports whether the run is quiet: every
// node done and no message in flight. A panic re-raises the lowest-ID
// panicking node's. A validation error returns the error of the first
// range that failed, once the ranges before it and that range's messages
// before its error are accounted and traced; the round then delivers
// nothing and records no PerRound entry.
func (st *runState) runRound() (quiet bool, err error) {
	st.each(st.stepJob)
	round := st.round
	// Ranges ascend with the worker index, so the first worker that saw a
	// panic holds the lowest panicking ID, whatever the scheduling. Every
	// range has stepped before any validation error returns, so the
	// round's steps count in full.
	stepped := 0
	for w := range st.workers {
		wk := &st.workers[w]
		if wk.panicAt >= 0 {
			panic(panicText(wk.panicAt, round, wk.panicVal))
		}
		stepped += wk.stepped
	}

	res := st.res
	res.Steps += stepped
	var traffic RoundTraffic
	allDone := true
	for w := range st.workers {
		wk := &st.workers[w]
		allDone = allDone && !wk.notAllDone
		res.TotalMessages += wk.traffic.Messages
		res.TotalBits += wk.traffic.ClassicalBits + wk.traffic.QuantumBits
		res.QuantumBits += wk.traffic.QuantumBits
		res.MaxEdgeBitsPerRound = max(res.MaxEdgeBitsPerRound, wk.maxEdgeBits)
		traffic.Messages += wk.traffic.Messages
		traffic.ClassicalBits += wk.traffic.ClassicalBits
		traffic.QuantumBits += wk.traffic.QuantumBits
		// Worker order is sender-ID order: the callback sees every accepted
		// message in sender order, on this goroutine alone.
		if trace := st.opts.Trace; trace != nil {
			for _, msg := range wk.sent[:wk.traffic.Messages] {
				trace(round, msg)
			}
		}
		if wk.err != nil {
			// Zero every range's charges so edgeBits is clean when the run
			// returns; the first range's direct deliveries go with the run.
			for w := range st.workers {
				st.workers[w].touched = clearSlots(st.edgeBits, st.workers[w].touched)
			}
			return false, wk.err
		}
	}
	if st.opts.PerRound {
		res.PerRound = append(res.PerRound, traffic)
	}
	st.each(st.deliverJob)
	st.stepped = stepped
	return allDone && traffic.Messages == 0, nil
}

// stepWorker is phase 1 of a round for worker w: step the range's awake
// nodes, then validate their messages. A panic stops the worker at the
// panicking node, and a validation error at the failing message.
func (st *runState) stepWorker(w int) {
	wk := &st.workers[w]
	wk.reset()
	if v, p := st.stepAwake(w); v >= 0 {
		wk.panicAt, wk.panicVal = v, p
		return
	}
	wk.traffic, wk.maxEdgeBits, wk.err = st.validate(w)
}

// validate charges worker w's send log to its senders' edge slots, in
// log order, which is sender order, and routes each accepted message. No
// range comes before the first, so a message from the first range to a
// node in it goes first in its receiver's window whatever arrives later:
// it is counted against that window on the spot, and the delivery phase
// places it before anything queued; the first range validates only after
// stepping all of its nodes, so every window in it was already read and
// zeroed. Every other message is queued for the worker that owns its
// receiver and counted after the step barrier. validate returns the
// accepted traffic and stops at the first message that fails, returning
// its error. The sums live in locals until the range is done, off the
// shared worker state.
func (st *runState) validate(w int) (traffic RoundTraffic, maxEdgeBits int, err error) {
	wk := &st.workers[w]
	bandwidth := st.nw.bandwidth
	direct := w == 0
	lo, hi := wk.lo, wk.hi
	for i := range wk.sent {
		msg := &wk.sent[i]
		v, to := msg.From, msg.To
		r := st.neighborRank(v, to)
		if r < 0 {
			err = fmt.Errorf("%w: node %d -> %d in round %d", ErrNotNeighbor, v, to, st.round)
			return traffic, maxEdgeBits, err
		}
		slot := st.offsets[v] + int32(r)
		total := int(st.edgeBits[slot]) + msg.Bits
		if total > bandwidth {
			err = fmt.Errorf("%w: node %d -> %d sent %d bits in round %d (B=%d)",
				ErrBandwidthExceeded, v, to, total, st.round, bandwidth)
			return traffic, maxEdgeBits, err
		}
		if st.edgeBits[slot] == 0 && total > 0 {
			wk.touched = append(wk.touched, slot)
		}
		st.edgeBits[slot] = int32(total)
		if direct && to < hi {
			wk.count(st.wins, to)
		} else {
			o := w
			if to < lo || to >= hi {
				o = st.owner(to)
			}
			wk.queues[o] = append(wk.queues[o], int32(i))
		}
		traffic.Messages++
		if msg.Quantum {
			traffic.QuantumBits += int64(msg.Bits)
		} else {
			traffic.ClassicalBits += int64(msg.Bits)
		}
		maxEdgeBits = max(maxEdgeBits, total)
	}
	return traffic, maxEdgeBits, nil
}

// deliverWorker is phase 2 of a round for worker o. It counts the queues
// addressed to it, lays its receivers out in its arena and copies every
// message of the round into place in sender order: the first range's own
// messages, if o is that range, then the queues in worker order. Every
// window of its range was zeroed when its node stepped, or holds only what
// the first range counted during validation, since a node that did not
// step had nothing delivered. A receiver that is not done stepped this
// round and is already in the next round's set, so only done receivers
// are marked.
func (st *runState) deliverWorker(o int) {
	wk := &st.workers[o]
	for w := range st.workers {
		sent := st.workers[w].sent
		for _, i := range st.workers[w].queues[o] {
			wk.count(st.wins, sent[i].To)
		}
	}
	wk.layout(st.wins, st.done)
	if o == 0 {
		for i := range wk.sent[:wk.traffic.Messages] {
			if msg := &wk.sent[i]; msg.To < wk.hi {
				wk.place(st.wins, msg)
			}
		}
	}
	for w := range st.workers {
		sent := st.workers[w].sent
		for _, i := range st.workers[w].queues[o] {
			wk.place(st.wins, &sent[i])
		}
	}
	wk.touched = clearSlots(st.edgeBits, wk.touched)
}
