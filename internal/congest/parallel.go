package congest

import (
	"fmt"
	"sort"
)

// The parallel execution path. With Options.Workers > 1 a run splits the
// node IDs into one contiguous range per worker, fixed at run start and
// balanced by degree+1, and owns a pool of goroutines that lives from round
// 1 to termination. Each round dispatches the same pre-built job closures to
// the pool twice, so the steady state allocates nothing:
//
//  1. step: every worker steps its range's awake nodes, then validates and
//     accounts their messages against their sender-private slots of the CSR
//     edge index and queues each accepted message as a msgRef for the
//     worker that owns the receiver. A stepped node that is not done stays
//     awake for the next round.
//  2. deliver: every worker drains the queues addressed to it in worker
//     order into its receivers' inboxes, wakes the receivers that are done,
//     and zeroes the edge slots it charged in phase 1.
//
// Each worker keeps the awake set of its own range in private words, so no
// word is written by two workers. A round therefore costs
// O(n/64W + awake/W + traffic/W) per worker behind two barriers. The
// contract is bit-for-bit equality with the sequential path, argued in
// DESIGN.md ("The congest hot path"): a node's Round touches only its own
// state and inbox, accounting folds per-worker sums and maxes in worker
// order, and ranges ascend with the worker index, so draining the queues
// in worker order appends each receiver's messages in ascending sender ID,
// outbox order within a sender — the sequential append order.
// Error rounds leave the parallel path entirely: the round is re-merged
// sequentially, so partial results and error text match the sequential run
// down to the byte.

// msgRef names one accepted message by its sender and its index in the
// sender's outbox. Outboxes stay untouched until the next step, so a ref is
// all the rest of the round needs to deliver or trace the message.
type msgRef struct{ from, idx int32 }

// rangeWorker is everything one worker writes during a round. Padded so
// adjacent workers' state does not share a cache line.
type rangeWorker struct {
	// queues[o] holds the round's accepted messages to receivers in worker
	// o's range, in sender order.
	queues [][]msgRef
	// trace holds all of the round's accepted messages in sender order; it
	// is filled only under Options.Trace.
	trace []msgRef
	// touched lists the edge slots charged this round.
	touched []int32
	// awake and wake are the range's vote-to-halt words, indexed from the
	// range's first node lo: bit i%64 of awake[i/64] is set when node lo+i
	// steps this round, and wake collects the nodes that step next round.
	awake, wake []uint64

	// panicAt is the first node of the range that panicked this round, or
	// -1; panicVal is its panic value.
	panicAt  int
	panicVal any
	// failed reports that a message of the range failed validation.
	failed bool

	totalMessages int
	totalBits     int64
	quantumBits   int64
	classicalBits int64
	maxEdgeBits   int
	notAllDone    bool
	_             [64]byte
}

// reset starts the worker's round: the nodes woken last round become the
// awake set, and the old awake words are cleared to collect the next one.
// touched is already empty, since deliver, the sequential merge or the
// cold path zeroes the slots it lists.
func (wk *rangeWorker) reset() {
	for o := range wk.queues {
		wk.queues[o] = wk.queues[o][:0]
	}
	awake, wake := wk.wake, wk.awake
	clear(wake)
	*wk = rangeWorker{queues: wk.queues, trace: wk.trace[:0], touched: wk.touched,
		awake: awake, wake: wake, panicAt: -1}
}

// wakeAt marks the range's node lo+i to step next round.
func (wk *rangeWorker) wakeAt(i int) { wk.wake[i>>6] |= 1 << (i & 63) }

// workerPool is a fixed set of goroutines that execute one job function at a
// time. run dispatches the job to every worker and blocks until all report
// back; the pool is reused across rounds and phases without spawning.
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
		}(w, ch)
	}
	return p
}

// run executes job(w) on every worker w and returns when all have finished.
func (p *workerPool) run(job func(w int)) {
	for _, ch := range p.jobs {
		ch <- job
	}
	for i := 0; i < p.workers; i++ {
		<-p.done
	}
}

// close terminates the pool's goroutines. The pool must be idle.
func (p *workerPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

func panicText(v, round int, p any) string {
	return fmt.Sprintf("congest: node %d panicked in round %d: %v", v, round, p)
}

// partition splits the node IDs into one contiguous range per worker,
// worker w owning starts[w]..starts[w+1]-1. The ranges balance Σ(degree+1):
// a node costs one Round call plus one pass per incident edge to validate
// and deliver. A node heavier than a worker's share leaves the ranges after
// it empty. The sequential path is the one-worker partition, so it keeps
// its awake words in workers[0].
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
		wk.queues = make([][]msgRef, workers)
		// The words are padded to whole cache lines, so two workers'
		// words never share one.
		size := st.starts[w+1] - st.starts[w]
		words := (size + 63) / 64
		wk.awake = make([]uint64, words, (words+7)&^7)
		wk.wake = make([]uint64, words, (words+7)&^7)
		// Every node steps in round 1: the first reset swaps this set in.
		for i := 0; i < size; i += 64 {
			wk.wake[i>>6] = ^uint64(0) >> max(0, 64-(size-i))
		}
	}
}

// owner returns the worker whose range holds node v: the first worker
// whose range ends after v, which skips the empty ranges ending at v. The
// last range ends at n, so only the others are searched.
func (st *runState) owner(v int) int {
	return sort.Search(len(st.workers)-1, func(w int) bool { return st.starts[w+1] > v })
}

// wakeNode marks node v to step next round.
func (st *runState) wakeNode(v int) {
	w := st.owner(v)
	st.workers[w].wakeAt(v - st.starts[w])
}

// roundPar runs one round on the worker pool. A panic re-raises the
// lowest-ID panicking node's; a validation failure replays the round's
// merge sequentially.
func (st *runState) roundPar(round int) error {
	st.pool.run(st.stepJob)
	// Ranges ascend with the worker index, so the first worker that saw a
	// panic holds the lowest panicking ID, whatever the scheduling.
	for w := range st.workers {
		if wk := &st.workers[w]; wk.panicAt >= 0 {
			panic(panicText(wk.panicAt, round, wk.panicVal))
		}
	}
	st.allDone = true
	st.anyMessage = false
	for w := range st.workers {
		if st.workers[w].failed {
			// Cold path: drop the staged charges and re-run the round's
			// merge sequentially for byte-identical partial results, trace
			// stream and error.
			for w := range st.workers {
				st.workers[w].touched = clearSlots(st.edgeBits, st.workers[w].touched)
			}
			return st.mergeSeq(round)
		}
	}

	res := st.res
	var traffic RoundTraffic
	for w := range st.workers {
		wk := &st.workers[w]
		if wk.notAllDone {
			st.allDone = false
		}
		if wk.totalMessages > 0 {
			st.anyMessage = true
		}
		res.TotalMessages += wk.totalMessages
		res.TotalBits += wk.totalBits
		res.QuantumBits += wk.quantumBits
		traffic.Messages += wk.totalMessages
		traffic.QuantumBits += wk.quantumBits
		traffic.ClassicalBits += wk.classicalBits
		res.MaxEdgeBitsPerRound = max(res.MaxEdgeBitsPerRound, wk.maxEdgeBits)
	}
	if st.opts.PerRound {
		res.PerRound = append(res.PerRound, traffic)
	}
	if trace := st.opts.Trace; trace != nil {
		// Worker order is sender-ID order: the callback sees exactly the
		// sequential stream, on this goroutine alone.
		for w := range st.workers {
			for _, ref := range st.workers[w].trace {
				trace(round, st.message(ref))
			}
		}
	}
	st.pool.run(st.deliverJob)
	return nil
}

// stepWorker is phase 1 of a parallel round for worker w. A panic stops
// the worker at the panicking node, and so does a validation failure, since
// the round is then replayed sequentially.
func (st *runState) stepWorker(w int) {
	wk := &st.workers[w]
	wk.reset()
	if v, p := st.stepAwake(w); v >= 0 {
		wk.panicAt, wk.panicVal = v, p
		return
	}

	bandwidth := st.nw.bandwidth
	tracing := st.opts.Trace != nil
	lo, hi := st.starts[w], st.starts[w+1]
	for i, word := range wk.awake {
		base := lo + i<<6
		for word != 0 {
			first, end := nextRun(word)
			word &^= uint64(1)<<end - 1
			for v := base + first; v < base+end; v++ {
				ctx := st.ctxs[v]
				slots := st.offsets[v]
				out := st.outboxes[v]
				for j := range out {
					to := out[j].To
					r := ctx.neighborRank(to)
					if r < 0 {
						wk.failed = true
						return
					}
					size := max(out[j].Bits, 0)
					slot := slots + int32(r)
					total := int(st.edgeBits[slot]) + size
					if total > bandwidth {
						wk.failed = true
						return
					}
					if st.edgeBits[slot] == 0 && total > 0 {
						wk.touched = append(wk.touched, slot)
					}
					st.edgeBits[slot] = int32(total)
					ref := msgRef{from: int32(v), idx: int32(j)}
					o := w
					if to < lo || to >= hi {
						o = st.owner(to)
					}
					wk.queues[o] = append(wk.queues[o], ref)
					if tracing {
						wk.trace = append(wk.trace, ref)
					}
					wk.totalMessages++
					wk.totalBits += int64(size)
					if out[j].Quantum {
						wk.quantumBits += int64(size)
					} else {
						wk.classicalBits += int64(size)
					}
					wk.maxEdgeBits = max(wk.maxEdgeBits, total)
				}
			}
		}
	}
}

// deliverWorker is phase 2 of a parallel round for worker o. Its
// receivers' inboxes are already empty: stepRange reset them when their
// previous contents were consumed, and a node that did not step had nothing
// delivered. A receiver that is not done stepped this round and is already
// in the next round's set, so only done receivers are marked.
func (st *runState) deliverWorker(o int) {
	wk := &st.workers[o]
	lo := st.starts[o]
	for w := range st.workers {
		for _, ref := range st.workers[w].queues[o] {
			msg := st.message(ref)
			st.next[msg.To] = append(st.next[msg.To], msg)
			if st.done[msg.To] {
				wk.wakeAt(msg.To - lo)
			}
		}
	}
	wk.touched = clearSlots(st.edgeBits, wk.touched)
}

// message returns the accepted message ref names as the sequential merge
// delivers it: From stamped, negative Bits clamped to zero.
func (st *runState) message(ref msgRef) Message {
	msg := st.outboxes[ref.from][ref.idx]
	msg.From = int(ref.from)
	msg.Bits = max(msg.Bits, 0)
	return msg
}
