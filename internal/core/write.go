package core

import (
	"context"
	"fmt"
	"sync"

	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/gf"
	"ecstore/internal/obs"
	"ecstore/internal/proto"
	"ecstore/internal/resilience"
)

// WriteBlock implements WRITE(i, v) (Fig. 5). In the failure-free case
// it is a swap on the data node followed by one batch of add deltas on
// the redundant nodes — two round trips with parallel updates, no
// locks, no old-version logging, even under concurrent writers.
func (c *Client) WriteBlock(ctx context.Context, stripeID uint64, i int, v []byte) error {
	_, _, err := c.WriteBlockStamped(ctx, stripeID, i, v)
	return err
}

// WriteBlockStamped is WriteBlock plus the identifiers the client-side
// read cache needs to chain this write onto its predecessor: ntid is
// the identifier the completed write was recorded under, and otid is
// the identifier of the write it replaced at the data node (the swap's
// OTID — zero when the slot had no recentlist entry). A cache holding
// an entry stamped otid can replace it with this write's value under
// ntid; any other cached stamp is stale in an unprovable way and must
// be invalidated.
func (c *Client) WriteBlockStamped(ctx context.Context, stripeID uint64, i int, v []byte) (ntid, otid proto.TID, err error) {
	if err := c.checkDataSlot(i); err != nil {
		return proto.TID{}, proto.TID{}, err
	}
	if len(v) != c.cfg.BlockSize {
		return proto.TID{}, proto.TID{}, fmt.Errorf("core: write value has %d bytes, want %d", len(v), c.cfg.BlockSize)
	}
	c.track(stripeID)
	c.stats.Writes.Add(1)
	sp := obs.StartSpan(c.obs.writeLatency)
	// The outer `repeat ... until D = {i, k+1..n}` loop: a restart
	// re-swaps with a fresh tid (e.g. after a recovery bumped the
	// epoch under our adds).
	for attempt := 0; attempt < c.cfg.MaxWriteAttempts; attempt++ {
		if attempt > 0 {
			c.stats.WriteRestarts.Add(1)
		}
		done, ntid, otid, err := c.writeOnce(ctx, stripeID, i, v)
		if err != nil {
			return proto.TID{}, proto.TID{}, err
		}
		if done {
			sp.End()
			return ntid, otid, nil
		}
	}
	return proto.TID{}, proto.TID{}, fmt.Errorf("%w (stripe %d, slot %d)", ErrWriteExhausted, stripeID, i)
}

// writeOnce performs one swap-and-update round. It reports done=false
// when the write must be restarted from the swap. On done=true it also
// returns the write's own identifier and the identifier the swap
// displaced — the ORIGINAL swap OTID, not the working copy that the
// checkTIDs loop zeroes once ordering is globally satisfied.
func (c *Client) writeOnce(ctx context.Context, stripeID uint64, i int, v []byte) (bool, proto.TID, proto.TID, error) {
	ntid := c.nextTID(i)

	// --- swap v into the data node (Fig. 5 lines 3-6) ---
	var srep *proto.SwapReply
	bo := c.newBackoff()
	att := newAttempts("swap", stripeID, i)
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return false, proto.TID{}, proto.TID{}, err
		}
		if attempt > c.cfg.RecoveryPollLimit {
			// Liveness backstop: the stripe is not becoming available
			// (e.g. it is unrecoverable); surface the restart loop.
			return false, proto.TID{}, proto.TID{}, nil
		}
		node, err := c.cfg.Resolver.Node(stripeID, i)
		if err != nil {
			return false, proto.TID{}, proto.TID{}, fmt.Errorf("core: resolve slot %d: %w", i, err)
		}
		c.obs.swapCalls.Inc()
		actx, cancel := c.retryCtx(ctx, attempt)
		rep, err := node.Swap(actx, &proto.SwapReq{Stripe: stripeID, Slot: int32(i), Value: v, NTID: ntid})
		cancel()
		if err != nil {
			c.obs.swapRetries.Inc()
			att.note(err)
			c.cfg.Resolver.ReportFailure(stripeID, i, node)
			if att.count >= c.cfg.Retry.MaxAttempts {
				// The data node keeps erroring (not rejecting): the
				// budget is spent; surface the typed failure.
				return false, proto.TID{}, proto.TID{}, c.unavailable(att)
			}
			if err := bo.pause(ctx); err != nil {
				return false, proto.TID{}, proto.TID{}, err
			}
			continue
		}
		if rep.OK {
			srep = rep
			break
		}
		if rep.LockMode == proto.Unlocked || rep.LockMode == proto.Expired {
			// Data unavailable and nobody running recovery: fork one
			// (start_recovery) and keep retrying the swap.
			c.StartRecovery(ctx, stripeID)
		}
		if err := bo.pause(ctx); err != nil {
			return false, proto.TID{}, proto.TID{}, err
		}
	}

	oldBlk := srep.Block
	epoch := srep.Epoch
	otid := srep.OTID
	// The adds loop zeroes otid once checkTIDs proves the predecessor
	// completed everywhere; the stamp must keep the original chain link.
	swapOTID := srep.OTID

	// Compute v XOR w once into pooled scratch. Every per-slot delta is
	// alpha_ji * diff, so retry rounds and all update modes scale this
	// one block instead of re-XORing v and w per slot per round.
	diff := bufpool.Get(c.cfg.BlockSize)
	defer bufpool.Put(diff)
	erasure.RawDeltaInto(diff, v, oldBlk)
	// The swap reply's block was handed over (proto.StorageNode) and
	// diff holds all this write needs of it.
	bufpool.Put(oldBlk)

	k, n := c.cfg.Code.K(), c.cfg.Code.N()
	want := newSlotSet(i)
	for j := k; j < n; j++ {
		want.add(j)
	}

	todo := newSlotSet() // T: redundant slots still to update
	for j := k; j < n; j++ {
		todo.add(j)
	}
	done := newSlotSet(i) // D: slots that completed this write

	orderRounds := 0
	rounds := 0
	abo := c.newBackoff()
	for todo.size() > 0 && done.size() > 0 {
		if err := ctx.Err(); err != nil {
			return false, proto.TID{}, proto.TID{}, err
		}
		if rounds++; rounds > c.cfg.RecoveryPollLimit {
			// Liveness backstop: restart the write from the swap.
			return false, proto.TID{}, proto.TID{}, nil
		}
		// Retry rounds get a per-round deadline covering their adds; the
		// first round is the fast path and rides the caller's context.
		actx, cancel := c.retryCtx(ctx, rounds-1)
		results := c.issueAdds(actx, stripeID, i, diff, todo.sorted(), ntid, otid, epoch)
		cancel()

		retry := newSlotSet()
		needRecovery := false
		anyOrder := false
		for j, res := range results {
			if res.Err != nil {
				// Node unreachable: remap and retry; the replacement
				// will answer INIT, which routes us into recovery.
				c.obs.addRetries.Inc()
				c.cfg.Resolver.ReportFailure(stripeID, j, res.Node)
				retry.add(j)
				continue
			}
			r := res.Reply
			switch r.Status {
			case proto.StatusOK:
				done.add(j)
			case proto.StatusOrder:
				anyOrder = true
				retry.add(j)
			default: // StatusUnavail
				if r.LockMode != proto.Unlocked && r.LockMode != proto.L0 {
					// Locked by a recovery: retry after it finishes.
					retry.add(j)
				}
				// NORM + UNL + stale epoch: drop j; the outer loop
				// will restart the whole write at the new epoch.
			}
			// Fig. 5 lines 13: expired lock, or a non-NORM unlocked
			// node (crashed + remapped), or a persistently stuck
			// ordering — all call for recovery.
			if r.LockMode == proto.Expired || (r.OpMode != proto.Norm && r.LockMode == proto.Unlocked) {
				needRecovery = true
			}
		}
		if anyOrder && orderRounds >= c.cfg.OrderRetryLimit {
			needRecovery = true // "tired of looping"
		}
		if needRecovery {
			// Fork recovery and keep cycling our adds: recovery's L0
			// phase depends on outstanding writers completing them
			// (blocking here would deadlock against recovery).
			c.StartRecovery(ctx, stripeID)
		}
		if anyOrder {
			c.stats.OrderWaits.Add(1)
			orderRounds++
			// Before blindly retrying, learn whether the awaited write
			// completed (its tid was garbage collected) or whether we
			// lost nodes (Fig. 5 lines 15-19).
			collected, lost, err := c.checkTIDs(ctx, stripeID, done.sorted(), ntid, otid)
			if err != nil {
				return false, proto.TID{}, proto.TID{}, err
			}
			if collected {
				otid = proto.TID{} // ordering satisfied everywhere
			}
			for _, j := range lost {
				done.remove(j)
			}
		}
		todo = retry
		if todo.size() > 0 {
			if err := abo.pause(ctx); err != nil {
				return false, proto.TID{}, proto.TID{}, err
			}
		}
	}

	if done.size() != want.size() {
		return false, proto.TID{}, proto.TID{}, nil // restart from swap (outer repeat)
	}
	for j := range want {
		if !done.has(j) {
			return false, proto.TID{}, proto.TID{}, nil
		}
	}
	c.recordGC(stripeID, ntid, done)
	return true, ntid, swapOTID, nil
}

// addResult pairs an add outcome with the node it was sent to, keyed
// by slot in issueAdds's return map.
type addResult struct {
	Node  proto.StorageNode
	Reply *proto.AddReply
	Err   error
}

// issueAdds dispatches add operations to the given redundant slots
// according to the configured update mode and returns a result per
// slot. diff is the caller-owned v XOR w block; per-slot premultiplied
// deltas are drawn from the buffer pool and recycled as each call
// completes (every transport joins its goroutines before returning, so
// the payload is dead once the call strategy returns).
func (c *Client) issueAdds(ctx context.Context, stripeID uint64, i int, diff []byte, slots []int, ntid, otid proto.TID, epoch uint64) map[int]addResult {
	switch c.cfg.Mode {
	case resilience.Serial:
		return c.addSerial(ctx, stripeID, i, diff, slots, ntid, otid, epoch)
	case resilience.Hybrid:
		return c.addHybrid(ctx, stripeID, i, diff, slots, ntid, otid, epoch)
	case resilience.Broadcast:
		return c.addBroadcast(ctx, stripeID, i, diff, slots, ntid, otid, epoch)
	default: // Parallel
		return c.addParallel(ctx, stripeID, i, diff, slots, ntid, otid, epoch)
	}
}

func (c *Client) addReq(stripeID uint64, i, j int, diff []byte, ntid, otid proto.TID, epoch uint64) *proto.AddReq {
	delta := bufpool.Get(len(diff))
	gf.MulSlice(c.cfg.Code.Coef(j, i), delta, diff)
	return &proto.AddReq{
		Stripe:        stripeID,
		Slot:          int32(j),
		Delta:         delta,
		DataSlot:      int32(i),
		Premultiplied: true,
		NTID:          ntid,
		OTID:          otid,
		Epoch:         epoch,
	}
}

func (c *Client) addOne(ctx context.Context, stripeID uint64, j int, req *proto.AddReq) addResult {
	node, err := c.cfg.Resolver.Node(stripeID, j)
	if err != nil {
		return addResult{Err: err}
	}
	c.obs.addCalls.Inc()
	rep, err := node.Add(ctx, req)
	return addResult{Node: node, Reply: rep, Err: err}
}

// addSerial applies adds one node at a time (AJX-ser): each add is
// acknowledged before the next is sent, which is what Theorem 1's
// stronger failure bound relies on.
func (c *Client) addSerial(ctx context.Context, stripeID uint64, i int, diff []byte, slots []int, ntid, otid proto.TID, epoch uint64) map[int]addResult {
	out := make(map[int]addResult, len(slots))
	for _, j := range slots {
		req := c.addReq(stripeID, i, j, diff, ntid, otid, epoch)
		out[j] = c.addOne(ctx, stripeID, j, req)
		bufpool.Put(req.Delta)
	}
	return out
}

// addParallel applies all adds concurrently (AJX-par): one batch, one
// round trip.
func (c *Client) addParallel(ctx context.Context, stripeID uint64, i int, diff []byte, slots []int, ntid, otid proto.TID, epoch uint64) map[int]addResult {
	results := make([]addResult, len(slots))
	var wg sync.WaitGroup
	for idx, j := range slots {
		wg.Add(1)
		go func(idx, j int) {
			defer wg.Done()
			req := c.addReq(stripeID, i, j, diff, ntid, otid, epoch)
			results[idx] = c.addOne(ctx, stripeID, j, req)
			bufpool.Put(req.Delta)
		}(idx, j)
	}
	wg.Wait()
	out := make(map[int]addResult, len(slots))
	for idx, j := range slots {
		out[j] = results[idx]
	}
	return out
}

// addHybrid applies adds in groups: parallel within a group, groups in
// series (Theorem 3). Group size is bounded by d_serial so the hybrid
// scheme keeps the serial failure bound at a fraction of its latency.
func (c *Client) addHybrid(ctx context.Context, stripeID uint64, i int, diff []byte, slots []int, ntid, otid proto.TID, epoch uint64) map[int]addResult {
	out := make(map[int]addResult, len(slots))
	r := resilience.HybridGroupSize(c.cfg.Code.P(), c.cfg.TP)
	for start := 0; start < len(slots); start += r {
		end := min(start+r, len(slots))
		group := c.addParallel(ctx, stripeID, i, diff, slots[start:end], ntid, otid, epoch)
		for j, res := range group {
			out[j] = res
		}
	}
	return out
}

// addBroadcast sends one unmultiplied delta to all redundant nodes
// (Section 3.11): storage nodes apply their own alpha coefficient, and
// a Multicaster-capable transport charges the payload once on the
// client uplink. Without a multicaster it degrades to parallel unicast
// of the same raw payload.
func (c *Client) addBroadcast(ctx context.Context, stripeID uint64, i int, diff []byte, slots []int, ntid, otid proto.TID, epoch uint64) map[int]addResult {
	// diff IS the raw (unmultiplied) delta; it stays owned by writeOnce,
	// so no Put here.
	raw := diff
	calls := make([]proto.AddCall, 0, len(slots))
	nodes := make([]proto.StorageNode, 0, len(slots))
	resolveErr := make(map[int]addResult)
	okSlots := make([]int, 0, len(slots))
	for _, j := range slots {
		node, err := c.cfg.Resolver.Node(stripeID, j)
		if err != nil {
			resolveErr[j] = addResult{Err: err}
			continue
		}
		calls = append(calls, proto.AddCall{Node: node, Req: &proto.AddReq{
			Stripe:        stripeID,
			Slot:          int32(j),
			Delta:         raw,
			DataSlot:      int32(i),
			Premultiplied: false,
			NTID:          ntid,
			OTID:          otid,
			Epoch:         epoch,
		}})
		nodes = append(nodes, node)
		okSlots = append(okSlots, j)
	}

	out := make(map[int]addResult, len(slots))
	for j, res := range resolveErr {
		out[j] = res
	}
	c.obs.addCalls.Add(uint64(len(calls)))
	if c.cfg.Multicast != nil {
		results := c.cfg.Multicast.MulticastAdd(ctx, calls)
		for idx, r := range results {
			out[okSlots[idx]] = addResult{Node: nodes[idx], Reply: r.Reply, Err: r.Err}
		}
		return out
	}
	// Fallback: parallel unicast of the shared raw payload.
	results := make([]addResult, len(calls))
	var wg sync.WaitGroup
	for idx := range calls {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			rep, err := calls[idx].Node.Add(ctx, calls[idx].Req)
			results[idx] = addResult{Node: calls[idx].Node, Reply: rep, Err: err}
		}(idx)
	}
	wg.Wait()
	for idx, r := range results {
		out[okSlots[idx]] = r
	}
	return out
}

// checkTIDs polls the done nodes with checktid (Fig. 5 lines 15-19 and
// Section 3.9). It reports whether the awaited otid was garbage
// collected anywhere (ordering globally satisfied) and which done
// nodes no longer remember our ntid (they crashed and were remapped).
func (c *Client) checkTIDs(ctx context.Context, stripeID uint64, doneSlots []int, ntid, otid proto.TID) (collected bool, lost []int, err error) {
	type reply struct {
		slot   int
		status proto.Status
		err    error
	}
	replies := make([]reply, len(doneSlots))
	var wg sync.WaitGroup
	for idx, j := range doneSlots {
		wg.Add(1)
		go func(idx, j int) {
			defer wg.Done()
			node, nerr := c.cfg.Resolver.Node(stripeID, j)
			if nerr != nil {
				replies[idx] = reply{slot: j, err: nerr}
				return
			}
			rep, cerr := node.CheckTID(ctx, &proto.CheckTIDReq{Stripe: stripeID, Slot: int32(j), NTID: ntid, OTID: otid})
			if cerr != nil {
				c.cfg.Resolver.ReportFailure(stripeID, j, node)
				replies[idx] = reply{slot: j, err: cerr}
				return
			}
			replies[idx] = reply{slot: j, status: rep.Status}
		}(idx, j)
	}
	wg.Wait()
	for _, r := range replies {
		switch {
		case r.err != nil:
			// Treat an unreachable done node as lost; the write will
			// restart if it cannot complete without it.
			lost = append(lost, r.slot)
		case r.status == proto.StatusGC:
			collected = true
		case r.status == proto.StatusInit:
			lost = append(lost, r.slot)
		}
	}
	return collected, lost, nil
}
