package core

import (
	"context"
	"fmt"
	"sync"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/gf"
	"ecstore/internal/proto"
)

// StripeWrite names one full-stripe write in a WriteStripes batch: k
// data blocks, each exactly BlockSize bytes.
type StripeWrite struct {
	Stripe uint64
	Values [][]byte
}

// BatchStats reports how a WriteStripes call's batch-add traffic was
// coalesced: BatchCalls counts logical per-(stripe,slot) batch-adds,
// BatchRPCs the physical RPCs they collapsed into. Equal numbers mean
// no coalescing happened (single stripe, or no shared destinations).
type BatchStats struct {
	BatchCalls uint64
	BatchRPCs  uint64
}

// Coalescing bounds: a multi-frame must stay well under the RPC
// transport's MaxFrame (16 MiB), so a single coalesced RPC carries at
// most maxCoalesce sub-requests and roughly maxCoalesceBytes of delta
// payload, whichever limit hits first.
const (
	maxCoalesce      = 64
	maxCoalesceBytes = 4 << 20
)

// WriteStripe writes all k data blocks of one stripe as a single
// operation: k parallel swaps followed by one combined batch-add per
// redundant node (Section 3.11's sequential-I/O optimization). Against
// per-block writes this cuts the message count from 2k(p+1) to
// 2(k+p) and the client's parity upload from k*p blocks to p blocks —
// the redundant nodes absorb the whole stripe's parity change in one
// delta, since XOR deltas compose:
//
//	Delta_j = sum_i alpha_ji * (v_i XOR w_i)
//
// Consistency is the same as for k individual writes issued together:
// per-slot ordering still flows through the swap-returned otids, which
// the batch carries for every slot and storage nodes check atomically.
func (c *Client) WriteStripe(ctx context.Context, stripeID uint64, values [][]byte) error {
	errs, _ := c.WriteStripes(ctx, []StripeWrite{{Stripe: stripeID, Values: values}})
	return errs[0]
}

// WriteStripes writes several full stripes concurrently as one
// pipelined batch. Each stripe keeps exactly WriteStripe's semantics
// and failure independence — the returned slice has one error slot per
// input, and a failed stripe never blocks the others — but the
// batch-add phase is shared: per round, all pending (stripe, slot)
// adds destined for the same storage node are coalesced into a single
// BatchAddMulti RPC when the node supports it, cutting the round-trip
// count for co-located stripe groups by up to the stripe count.
//
// A one-element batch issues exactly the RPC sequence WriteStripe
// always has (coalescing needs at least two calls to one node).
func (c *Client) WriteStripes(ctx context.Context, writes []StripeWrite) ([]error, BatchStats) {
	errs := make([]error, len(writes))
	var stats BatchStats
	if len(writes) == 0 {
		return errs, stats
	}
	k, n := c.cfg.Code.K(), c.cfg.Code.N()
	pending := make([]int, 0, len(writes))
	for idx, w := range writes {
		if err := c.checkStripeWrite(w, k); err != nil {
			errs[idx] = err
			continue
		}
		c.track(w.Stripe)
		c.stats.StripeWrites.Add(1)
		pending = append(pending, idx)
	}
	for attempt := 0; attempt < c.cfg.MaxWriteAttempts && len(pending) > 0; attempt++ {
		if attempt > 0 {
			c.stats.WriteRestarts.Add(uint64(len(pending)))
		}
		pending = c.writeStripesOnce(ctx, writes, pending, errs, &stats, k, n)
	}
	for _, idx := range pending {
		errs[idx] = fmt.Errorf("%w (stripe %d, full-stripe write)", ErrWriteExhausted, writes[idx].Stripe)
	}
	return errs, stats
}

func (c *Client) checkStripeWrite(w StripeWrite, k int) error {
	if len(w.Values) != k {
		return fmt.Errorf("core: WriteStripe needs %d blocks, got %d", k, len(w.Values))
	}
	for i, v := range w.Values {
		if len(v) != c.cfg.BlockSize {
			return fmt.Errorf("core: stripe block %d has %d bytes, want %d", i, len(v), c.cfg.BlockSize)
		}
	}
	return nil
}

// swapOut is the outcome of one data-slot swap.
type swapOut struct {
	old   []byte
	otid  proto.TID
	epoch uint64
	err   error
}

// stripeJob is the in-flight state of one stripe inside a
// writeStripesOnce attempt. It mirrors exactly the locals the old
// single-stripe writeStripeOnce kept on its frame.
type stripeJob struct {
	idx    int // index into writes/errs
	stripe uint64
	values [][]byte

	outs  []swapOut
	ntids []proto.TID
	epoch uint64

	raws    [][]byte // v_i XOR w_i, pooled
	deltas  [][]byte // per redundant slot, pooled
	entries []proto.BatchEntry

	todo        slotSet
	completed   slotSet
	orderRounds int

	// per-round scratch
	retry        slotSet
	anyOrder     bool
	needRecovery bool
	blockers     []int32
}

// writeStripesOnce performs one swap-all-then-batch-add round for
// every pending stripe and returns the indices that must restart
// (epoch change, poll budget, lost swap). Fatal errors land in errs;
// successful stripes simply drop out.
func (c *Client) writeStripesOnce(ctx context.Context, writes []StripeWrite, pending []int, errs []error, stats *BatchStats, k, n int) (restart []int) {
	// --- parallel swaps on every data slot of every stripe ---
	jobs := make([]*stripeJob, 0, len(pending))
	for _, idx := range pending {
		jobs = append(jobs, &stripeJob{
			idx: idx, stripe: writes[idx].Stripe, values: writes[idx].Values,
			outs: make([]swapOut, k), ntids: make([]proto.TID, k),
		})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		for i := 0; i < k; i++ {
			j.ntids[i] = c.nextTID(i)
			wg.Add(1)
			go func(j *stripeJob, i int) {
				defer wg.Done()
				j.outs[i] = c.swapWithRetry(ctx, j.stripe, i, j.values[i], j.ntids[i])
			}(j, i)
		}
	}
	wg.Wait()

	active := make([]*stripeJob, 0, len(jobs))
	for _, j := range jobs {
		failed := false
		for i := range j.outs {
			if j.outs[i].err != nil {
				errs[j.idx] = j.outs[i].err
				failed = true
				break
			}
		}
		if failed {
			continue
		}
		// All of a stripe's swaps must share an epoch; a mismatch means
		// recovery ran in between, and the batch would be half-stale.
		j.epoch = j.outs[0].epoch
		mismatch := false
		for _, o := range j.outs[1:] {
			if o.epoch != j.epoch {
				mismatch = true
				break
			}
		}
		if mismatch {
			restart = append(restart, j.idx)
			continue
		}
		active = append(active, j)
	}

	// --- combined deltas ---
	// Scratch comes from the buffer pool; the batch-add retry loop below
	// re-sends deltas across rounds, so they stay owned by this frame and
	// are recycled only on return (every transport copies or applies the
	// payload before the call returns).
	for _, j := range active {
		j.raws = make([][]byte, k)
		for i := range j.raws {
			raw := bufpool.Get(c.cfg.BlockSize)
			erasure.RawDeltaInto(raw, j.values[i], j.outs[i].old)
			j.raws[i] = raw
			// The swap reply's block was handed over
			// (proto.StorageNode); raw holds all we need of it.
			bufpool.Put(j.outs[i].old)
			j.outs[i].old = nil
		}
		j.deltas = make([][]byte, 0, n-k)
		for slot := k; slot < n; slot++ {
			d := bufpool.Get(c.cfg.BlockSize)
			clear(d) // pooled buffers carry old contents
			for i := 0; i < k; i++ {
				gf.MulAddSlice(c.cfg.Code.Coef(slot, i), d, j.raws[i])
			}
			j.deltas = append(j.deltas, d)
		}
		j.entries = make([]proto.BatchEntry, k)
		for i := 0; i < k; i++ {
			j.entries[i] = proto.BatchEntry{DataSlot: int32(i), NTID: j.ntids[i], OTID: j.outs[i].otid}
		}
		j.todo = newSlotSet()
		for slot := k; slot < n; slot++ {
			j.todo.add(slot)
		}
		j.completed = newSlotSet()
	}
	defer func() {
		for _, j := range jobs {
			for _, raw := range j.raws {
				bufpool.Put(raw)
			}
			for _, d := range j.deltas {
				bufpool.Put(d)
			}
		}
	}()

	// --- shared batch-add rounds over every stripe's redundant slots ---
	bo := c.newBackoff()
	rounds := 0
	for len(active) > 0 {
		if err := ctx.Err(); err != nil {
			for _, j := range active {
				errs[j.idx] = err
			}
			return restart
		}
		if rounds++; rounds > c.cfg.RecoveryPollLimit {
			for _, j := range active {
				restart = append(restart, j.idx)
			}
			return restart
		}
		calls, results, nodes := c.dispatchBatchAdds(ctx, active, stats, rounds)

		for _, j := range active {
			j.retry = newSlotSet()
			j.anyOrder, j.needRecovery = false, false
			j.blockers = j.blockers[:0]
		}
		for ci, call := range calls {
			j, res := call.job, results[ci]
			if res.err != nil {
				c.cfg.Resolver.ReportFailure(j.stripe, call.slot, nodes[ci])
				j.retry.add(call.slot)
				continue
			}
			r := res.reply
			switch r.Status {
			case proto.StatusOK:
				j.completed.add(call.slot)
			case proto.StatusOrder:
				j.anyOrder = true
				j.retry.add(call.slot)
				j.blockers = append(j.blockers, r.Blockers...)
			default:
				if r.LockMode != proto.Unlocked && r.LockMode != proto.L0 {
					j.retry.add(call.slot)
				}
				// stale epoch at NORM+UNL: drop; restart below.
			}
			if r.LockMode == proto.Expired || (r.OpMode != proto.Norm && r.LockMode == proto.Unlocked) {
				j.needRecovery = true
			}
		}

		next := active[:0]
		for _, j := range active {
			if j.anyOrder && j.orderRounds >= c.cfg.OrderRetryLimit {
				j.needRecovery = true
			}
			if j.needRecovery {
				c.StartRecovery(ctx, j.stripe)
			}
			if j.anyOrder {
				c.stats.OrderWaits.Add(1)
				j.orderRounds++
				// Resolve blocked slots via checktid at their data nodes:
				// a GC answer clears that slot's ordering constraint; INIT
				// means we lost the swap and must restart.
				restartJob, err := c.resolveBatchBlockers(ctx, j.stripe, j.entries, j.blockers)
				if err != nil {
					errs[j.idx] = err
					continue
				}
				if restartJob {
					restart = append(restart, j.idx)
					continue
				}
			}
			j.todo = j.retry
			if j.todo.size() > 0 {
				next = append(next, j)
				continue
			}
			if j.completed.size() != n-k {
				restart = append(restart, j.idx)
				continue
			}
			for i := 0; i < k; i++ {
				slots := newSlotSet(i)
				for slot := k; slot < n; slot++ {
					slots.add(slot)
				}
				c.recordGC(j.stripe, j.ntids[i], slots)
			}
		}
		active = next
		if len(active) > 0 {
			if err := bo.pause(ctx); err != nil {
				for _, j := range active {
					errs[j.idx] = err
				}
				return restart
			}
		}
	}
	return restart
}

// batchCall names one pending (stripe, redundant-slot) batch-add.
type batchCall struct {
	job  *stripeJob
	slot int
}

type batchResult struct {
	reply *proto.BatchAddReply
	err   error
}

// dispatchBatchAdds issues one round of batch-adds for every active
// job's pending slots, coalescing calls that resolve to the same
// storage node into single BatchAddMulti RPCs (bounded by maxCoalesce
// and maxCoalesceBytes). It returns the flat call list with aligned
// results and resolved nodes.
func (c *Client) dispatchBatchAdds(ctx context.Context, active []*stripeJob, stats *BatchStats, rounds int) ([]batchCall, []batchResult, []proto.StorageNode) {
	var calls []batchCall
	for _, j := range active {
		for _, slot := range j.todo.sorted() {
			calls = append(calls, batchCall{job: j, slot: slot})
		}
	}
	results := make([]batchResult, len(calls))
	nodes := make([]proto.StorageNode, len(calls))

	// Resolve every call's destination; grouping keys off the node
	// handle itself, so two stripes coalesce exactly when the resolver
	// hands back the same node for both.
	groups := make(map[proto.StorageNode][]int)
	var order []proto.StorageNode
	for ci, call := range calls {
		node, err := c.cfg.Resolver.Node(call.job.stripe, call.slot)
		if err != nil {
			results[ci] = batchResult{err: err}
			continue
		}
		nodes[ci] = node
		if _, seen := groups[node]; !seen {
			order = append(order, node)
		}
		groups[node] = append(groups[node], ci)
	}

	actx, cancel := c.retryCtx(ctx, rounds-1)
	defer cancel()
	var awg sync.WaitGroup
	for _, node := range order {
		idxs := groups[node]
		for start := 0; start < len(idxs); {
			end, bytes := start, 0
			for end < len(idxs) && end-start < maxCoalesce {
				sz := c.cfg.BlockSize
				if bytes+sz > maxCoalesceBytes && end > start {
					break
				}
				bytes += sz
				end++
			}
			chunk := idxs[start:end]
			start = end
			stats.BatchCalls += uint64(len(chunk))
			if _, ok := node.(proto.MultiBatcher); ok && len(chunk) > 1 {
				stats.BatchRPCs++
			} else {
				stats.BatchRPCs += uint64(len(chunk))
			}
			awg.Add(1)
			go func(node proto.StorageNode, chunk []int) {
				defer awg.Done()
				c.sendBatchChunk(actx, node, calls, chunk, results)
			}(node, chunk)
		}
	}
	awg.Wait()
	return calls, results, nodes
}

// sendBatchChunk delivers one node's chunk of batch-adds: a plain
// BatchAdd for a lone call, a coalesced BatchAddMulti otherwise (the
// proto helper falls back to serial delivery when the node lacks the
// capability). A transport error on the multi call fails every
// sub-request in the chunk, exactly as a lost frame would.
func (c *Client) sendBatchChunk(ctx context.Context, node proto.StorageNode, calls []batchCall, chunk []int, results []batchResult) {
	if len(chunk) == 1 {
		ci := chunk[0]
		rep, err := node.BatchAdd(ctx, c.batchReq(calls[ci]))
		results[ci] = batchResult{reply: rep, err: err}
		return
	}
	req := &proto.BatchAddMultiReq{Adds: make([]*proto.BatchAddReq, len(chunk))}
	for i, ci := range chunk {
		req.Adds[i] = c.batchReq(calls[ci])
	}
	rep, err := proto.BatchAddMulti(ctx, node, req)
	if err != nil || len(rep.Replies) != len(chunk) {
		if err == nil {
			err = fmt.Errorf("core: batch-add multi returned %d replies for %d calls", len(rep.Replies), len(chunk))
		}
		for _, ci := range chunk {
			results[ci] = batchResult{err: err}
		}
		return
	}
	for i, ci := range chunk {
		results[ci] = batchResult{reply: rep.Replies[i]}
	}
}

func (c *Client) batchReq(call batchCall) *proto.BatchAddReq {
	j := call.job
	k := c.cfg.Code.K()
	return &proto.BatchAddReq{
		Stripe: j.stripe, Slot: int32(call.slot),
		Delta: j.deltas[call.slot-k], Entries: j.entries, Epoch: j.epoch,
	}
}

// swapWithRetry is the Fig. 5 swap loop shared by WriteStripe.
func (c *Client) swapWithRetry(ctx context.Context, stripeID uint64, i int, v []byte, ntid proto.TID) (out swapOut) {
	// A stripe write's k swaps can straddle a recovery's lock grab: the
	// already-swapped slots look like outstanding writes, and recovery
	// waits its full poll budget before settling without them. The swap
	// budget must exceed that, or the write gives up just before the
	// system unwedges itself.
	budget := 4 * c.cfg.RecoveryPollLimit
	bo := c.newBackoff()
	att := newAttempts("stripe-swap", stripeID, i)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			out.err = err
			return out
		}
		if attempt > budget {
			out.err = fmt.Errorf("%w: data slot %d unavailable", ErrWriteExhausted, i)
			return out
		}
		node, err := c.cfg.Resolver.Node(stripeID, i)
		if err != nil {
			out.err = err
			return out
		}
		actx, cancel := c.retryCtx(ctx, attempt)
		rep, err := node.Swap(actx, &proto.SwapReq{Stripe: stripeID, Slot: int32(i), Value: v, NTID: ntid})
		cancel()
		if err != nil {
			att.note(err)
			c.cfg.Resolver.ReportFailure(stripeID, i, node)
			if att.count >= c.cfg.Retry.MaxAttempts {
				out.err = c.unavailable(att)
				return out
			}
			if err := bo.pause(ctx); err != nil {
				out.err = err
				return out
			}
			continue
		}
		if rep.OK {
			out.old = rep.Block
			out.otid = rep.OTID
			out.epoch = rep.Epoch
			return out
		}
		if rep.LockMode == proto.Unlocked || rep.LockMode == proto.Expired {
			c.StartRecovery(ctx, stripeID)
		}
		if err := c.pause(ctx); err != nil {
			out.err = err
			return out
		}
	}
}

// resolveBatchBlockers runs checktid at the data node of every blocked
// slot (Section 3.9 adapted to batches). A GC verdict clears that
// entry's OTID in place; an INIT verdict (our own swap's tid is gone)
// demands a restart.
func (c *Client) resolveBatchBlockers(ctx context.Context, stripeID uint64, entries []proto.BatchEntry, blockers []int32) (restart bool, err error) {
	seen := make(map[int32]bool, len(blockers))
	for _, slot := range blockers {
		if seen[slot] {
			continue
		}
		seen[slot] = true
		idx := int(slot)
		if idx < 0 || idx >= len(entries) {
			continue
		}
		node, nerr := c.cfg.Resolver.Node(stripeID, idx)
		if nerr != nil {
			return false, nerr
		}
		rep, cerr := node.CheckTID(ctx, &proto.CheckTIDReq{
			Stripe: stripeID, Slot: slot,
			NTID: entries[idx].NTID, OTID: entries[idx].OTID,
		})
		if cerr != nil {
			c.cfg.Resolver.ReportFailure(stripeID, idx, node)
			return true, nil // data node lost: restart
		}
		switch rep.Status {
		case proto.StatusGC:
			entries[idx].OTID = proto.TID{}
		case proto.StatusInit:
			return true, nil
		}
	}
	return false, nil
}
