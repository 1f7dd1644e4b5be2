package congest

import (
	"fmt"
	"sort"
)

// The round. Every run splits the node IDs into one contiguous range per
// worker, balanced by degree+1 and kept by the network for later runs at
// the same worker count, and runs each round as two phases over the
// ranges. With Options.Workers > 1 a pool of goroutines is started with
// the run, and each round chooses where its phases run: on the pool, one
// goroutine a range, or inline, every range in worker order on the calling
// goroutine without waking the pool. A round runs inline when the previous
// round stepped fewer than sparseNodes nodes (round 1 counts all n, since
// every node steps in it); a single range (Workers <= 1) has no pool and
// always runs inline. The phase closures are built once, so the steady
// state allocates nothing:
//
//  1. step: every worker steps its range's awake nodes, which write their
//     messages into the worker's send log, then validates and accounts the
//     log against its senders' private slots of the CSR edge index. The
//     first range delivers each message to its own range at once; every
//     other accepted message is queued, as its index in the log, for the
//     worker that owns the receiver. A stepped node that is not done stays
//     awake for the next round.
//  2. deliver: every worker drains the queues addressed to it in worker
//     order into its receivers' inboxes, wakes the receivers that are done,
//     and zeroes the edge slots it charged in phase 1.
//
// Each worker keeps the awake set of its own range in private words, so no
// word is written by two workers. A round therefore costs
// O(n/64W + awake/W + traffic/W) per worker behind two barriers. The result
// is the same for every worker count, argued in DESIGN.md ("The congest hot
// path"): a node's Round touches only its own state, its context, its
// inbox and the free tail of its own worker's send log, accounting folds
// per-worker sums
// and maxes in worker order, and ranges ascend with
// the worker index, so the first range's direct deliveries followed by the
// queues drained in worker order append each receiver's messages in
// ascending sender ID, outbox order within a sender. A validation error
// folds the ranges before the failing one and the failing range's messages
// before its error, which is the same partial result for every worker
// count. Where a round runs cannot change it either: an inline round runs
// the same worker bodies over the same ranges in worker order, which is
// one of the schedules the pool may take, and the fold, the trace, the
// cancel poll and the panic re-raise run on the calling goroutine in both.

// sparseNodes is the crossover of the per-round choice: a round at
// Workers > 1 whose previous round stepped fewer nodes runs inline. A pool
// dispatch and its barrier cost about 11 µs a phase on a 2-vCPU host (Go
// 1.24.0, GOMAXPROCS 2), which a round that steps a few hundred nodes does
// not earn back. There, 64 rounds of BenchmarkRoundLoopFloodWords's dense
// flood at Workers 4, every node stepping every round, took 7.3 ms inline
// against 9.4 ms on the pool at 1,024 nodes, broke even within the spread
// at 1,600 and 1,936 nodes, and took 16.1 ms on the pool against 20.3 ms
// inline at 2,304 nodes and 64 ms against 101 ms at 10,000 (medians of
// eight runs).
//
// 2,048 is that crossover at Workers 4, and every worker count uses it. At
// Workers 2 the crossover is not settled. On the same kind of host, eight
// runs of a benchmark beside BenchmarkRoundLoopFloodWords read the dense
// pool round slower than one range even at 10,000 nodes (79.8 ms against
// 70.6 ms; 104 ms with both ranges inline) and inline faster than the pool
// at 2,304 nodes (15.5 against 18.2 ms), while ten interleaved runs of
// BenchmarkRoundLoopFloodWords itself on another day read the 10,000-node
// pool faster than one range (90.5 ms against 109.0 ms, 9 of 10). Its
// workers=2 and workers=1 cases at 10,000 nodes make that comparison.
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
	// chunk is the unused rest of the range's current inbox chunk, and
	// chunkLen the length of a new one: the range's node count.
	chunk    []Message
	chunkLen int
	// awake and wake are the range's vote-to-halt words, indexed from the
	// range's first node lo: bit i%64 of awake[i/64] is set when node lo+i
	// steps this round, and wake collects the nodes that step next round.
	awake, wake []uint64

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

// reset starts the worker's round: the send log and the queues empty, the
// nodes woken last round become the awake set, and the old awake words
// are cleared to collect the next one. touched is already empty, since
// deliver or the error return zeroes the slots it lists.
func (wk *rangeWorker) reset() {
	for o := range wk.queues {
		wk.queues[o] = wk.queues[o][:0]
	}
	awake, wake := wk.wake, wk.awake
	clear(wake)
	*wk = rangeWorker{sent: wk.sent[:0], queues: wk.queues, touched: wk.touched,
		chunk: wk.chunk, chunkLen: wk.chunkLen, awake: awake, wake: wake, panicAt: -1}
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

// deliver appends msg to its receiver's inbox. A full inbox moves to a
// region of twice its room carved from the worker's chunk, with a full
// slice expression so that no later append spills into the next region;
// only the receiver's owner delivers to it, so no two workers write one
// chunk. A new chunk holds chunkLen messages, or the region if larger.
func (wk *rangeWorker) deliver(inboxes [][]Message, msg *Message) {
	in := inboxes[msg.To]
	if len(in) == cap(in) {
		size := max(2*cap(in), 1)
		if len(wk.chunk) < size {
			wk.chunk = make([]Message, max(wk.chunkLen, size))
		}
		grown := wk.chunk[:len(in):size]
		wk.chunk = wk.chunk[size:]
		copy(grown, in)
		in = grown
	}
	inboxes[msg.To] = append(in, *msg)
}

// wakeAt marks the range's node lo+i to step next round.
func (wk *rangeWorker) wakeAt(i int) { wk.wake[i>>6] |= 1 << (i & 63) }

// wakeAll marks every node of the range, size nodes long, to step next
// round: a run's first reset swaps this set in, so every node steps in
// round 1.
func (wk *rangeWorker) wakeAll(size int) {
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
// it empty. With one worker the single range holds every node.
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
		wk.queues = make([][]int32, workers)
		// The words are padded to whole cache lines, so two workers'
		// words never share one.
		size := st.starts[w+1] - st.starts[w]
		words := (size + 63) / 64
		wk.awake = make([]uint64, words, (words+7)&^7)
		wk.wake = make([]uint64, words, (words+7)&^7)
		wk.chunkLen = size
		for v := st.starts[w]; v < st.starts[w+1]; v++ {
			st.ctxs[v].sent = &wk.sent
		}
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
// node in it is first in its receiver's inbox whatever arrives later: it
// is delivered on the spot, and its receiver woken if done; the first
// range validates only after stepping all of its nodes, so that inbox was
// already consumed. Every other message is queued for the worker that
// owns its receiver and delivered after the step barrier. validate returns
// the accepted traffic and stops at the first message that fails,
// returning its error. The sums live in locals until the range is done,
// off the shared worker state.
func (st *runState) validate(w int) (traffic RoundTraffic, maxEdgeBits int, err error) {
	wk := &st.workers[w]
	bandwidth := st.nw.bandwidth
	direct := w == 0
	lo, hi := st.starts[w], st.starts[w+1]
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
			wk.deliver(st.inboxes, msg)
			if st.done[to] {
				wk.wakeAt(to)
			}
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

// deliverWorker is phase 2 of a round for worker o. Its receivers' inboxes
// hold only what the first range delivered directly, if o is that range:
// stepRange reset them when their previous contents were consumed, and a
// node that did not step had nothing delivered. A receiver that is not done
// stepped this round and is already in the next round's set, so only done
// receivers are marked.
func (st *runState) deliverWorker(o int) {
	wk := &st.workers[o]
	lo := st.starts[o]
	for w := range st.workers {
		sent := st.workers[w].sent
		for _, i := range st.workers[w].queues[o] {
			msg := &sent[i]
			wk.deliver(st.inboxes, msg)
			if st.done[msg.To] {
				wk.wakeAt(msg.To - lo)
			}
		}
	}
	wk.touched = clearSlots(st.edgeBits, wk.touched)
}
