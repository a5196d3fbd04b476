// Package storage implements the thin storage node of the AJX
// protocol. A node stores one block per (stripe, slot) pair together
// with the per-slot protocol state of the paper's Figs. 4-7: operation
// mode, lock mode, epoch, recentlist/oldlist of write identifiers, and
// the saved reconstruction set.
//
// The protocol state lives in memory; the block bytes live only in the
// node's blockstore.Store, so a node's RAM scales with its slot
// metadata, not with the bytes it stores. Every handler that needs a
// block fetches it from the store (the store hands over a buffer the
// node owns), and every handler that changes one puts it back. A
// block fetched for a reply is handed out as the reply payload, not
// copied: the caller owns it (the RPC server recycles it once the
// reply is on the wire).
//
// The node is deliberately dumb: every operation is a short,
// independent critical section with no cross-slot coordination, no log
// of old data versions, and no knowledge of other nodes. All
// orchestration lives in the client (internal/core).
package storage

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/blockstore"
	"ecstore/internal/bufpool"
	"ecstore/internal/erasure"
	"ecstore/internal/gf"
	"ecstore/internal/proto"
)

// Options configures a Node.
type Options struct {
	// ID names the node in errors and logs.
	ID string
	// BlockSize is the fixed block size in bytes. Required.
	BlockSize int
	// Code lets the node apply erasure-code coefficients itself when a
	// client sends unmultiplied (broadcast) deltas. Optional: nodes
	// serving only premultiplied adds don't need it.
	Code *erasure.Code
	// Replacement marks a node that replaces a crashed one: every slot
	// starts in INIT mode (paper Section 3.5). An INIT slot's content is
	// garbage that no operation ever serves, so none is materialized.
	Replacement bool
	// LockLease, when non-zero, expires locks whose holder has not
	// completed recovery within the lease. Deployments without an
	// external failure detector use this to realize the paper's
	// "upon failure of lid" transition to EXP. Zero disables leases;
	// the FailClient method is then the only expiry path.
	LockLease time.Duration
	// Now injects a clock for tests. Defaults to time.Now.
	Now func() time.Time
	// Store holds the node's block bytes — the only copy the node keeps
	// (internal/blockstore). Nil uses a fresh blockstore.NewMem(), the
	// paper's in-memory evaluation setup; a blockstore.File persists
	// them.
	Store blockstore.Store
	// TrustPersisted lets a node restarted on top of a Store serve its
	// persisted blocks as valid (NORM). Leave false unless the
	// deployment can prove the node missed no writes while down;
	// otherwise the slots start INIT and recovery rebuilds them, which
	// is always safe.
	TrustPersisted bool
}

// Node is a storage node: per-slot protocol state in memory, block
// bytes in its Store. It is safe for concurrent use. The zero value is
// not usable; construct with New.
type Node struct {
	opts Options
	now  func() time.Time

	crashed atomic.Bool

	mu    sync.Mutex
	slots map[blockstore.Key]*slotState
	clock uint64 // logical timestamp, strictly monotonic per node

	// stats are monotonic operation counters, readable via Stats.
	stats Stats
}

// Stats counts operations served, for experiments and tests.
type Stats struct {
	Reads, Swaps, Adds, BatchAdds, CheckTIDs           uint64
	TryLocks, SetLocks, GetStates, GetRecents          uint64
	Reconstructs, Finalizes, GCOlds, GCRecents, Probes uint64
	RejectedAdds, OrderRejects, StaleEpochs            uint64
	PartialSums                                        uint64
}

type slotState struct {
	// written records that the store holds bytes for this slot. A slot
	// never written reads as zeros without touching the store; a
	// written slot whose bytes the store cannot return fails the op
	// instead of silently serving or folding into zeros.
	written    bool
	opmode     proto.OpMode
	lmode      proto.LockMode
	epoch      uint64
	recent     []proto.TIDTime
	old        []proto.TIDTime
	tids       map[proto.TID]bool // recent (true) and old (false) tids; nil until the first write
	lid        proto.ClientID
	lockExpiry time.Time
	reconsSet  []int32
}

func (st *slotState) inRecent(t proto.TID) bool { return st.tids[t] }

// known reports whether t is in the recent or the old list.
func (st *slotState) known(t proto.TID) bool {
	_, ok := st.tids[t]
	return ok
}

func (st *slotState) appendRecent(e proto.TIDTime) {
	st.recent = append(st.recent, e)
	if st.tids == nil {
		st.tids = make(map[proto.TID]bool)
	}
	st.tids[e.TID] = true
}

// New constructs a storage node. Blocks already in opts.Store are
// adopted: their slots start NORM under TrustPersisted and INIT
// otherwise.
func New(opts Options) (*Node, error) {
	if opts.BlockSize <= 0 {
		return nil, fmt.Errorf("storage: BlockSize must be positive, got %d", opts.BlockSize)
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if opts.Store == nil {
		opts.Store = blockstore.NewMem()
	}
	n := &Node{
		opts:  opts,
		now:   opts.Now,
		slots: make(map[blockstore.Key]*slotState),
	}
	for _, key := range opts.Store.Keys() {
		st := n.newSlot()
		st.written = true
		if !opts.TrustPersisted {
			// Persisted bytes survive, but the node cannot prove it
			// missed no writes while down: treat the slot as
			// uninitialized and let recovery decide.
			st.opmode = proto.Init
		}
		n.slots[key] = st
	}
	return n, nil
}

// MustNew is New for static configurations; it panics on error.
func MustNew(opts Options) *Node {
	n, err := New(opts)
	if err != nil {
		panic(err)
	}
	return n
}

// ID returns the node's configured identifier.
func (n *Node) ID() string { return n.opts.ID }

// Crash fail-stops the node: every subsequent operation returns
// ErrNodeDown and all protocol state is discarded (the paper assumes a
// crashed node may never recover; a replacement node is remapped in
// its place). The store is left as it is, like a disk after a crash.
func (n *Node) Crash() {
	n.crashed.Store(true)
	n.mu.Lock()
	n.slots = make(map[blockstore.Key]*slotState)
	n.mu.Unlock()
}

// Crashed reports whether the node has fail-stopped.
func (n *Node) Crashed() bool { return n.crashed.Load() }

// FailClient implements the paper's "upon failure of lid" rule with an
// oracle failure detector: every slot locked by the failed client has
// its lock expired. Deployments without an oracle use LockLease.
func (n *Node) FailClient(id proto.ClientID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, st := range n.slots {
		if st.lmode.Locked() && st.lid == id {
			st.lmode = proto.Expired
		}
	}
}

func (n *Node) newSlot() *slotState {
	return &slotState{opmode: proto.Norm, lmode: proto.Unlocked}
}

// getSlot returns the slot state, creating it lazily in the node's
// initial mode. Callers must hold n.mu.
func (n *Node) getSlot(key blockstore.Key) *slotState {
	st, ok := n.slots[key]
	if !ok {
		st = n.newSlot()
		if n.opts.Replacement {
			st.opmode = proto.Init
		}
		n.slots[key] = st
	}
	n.maybeExpireLease(st)
	return st
}

// block returns the slot's block in a buffer the caller owns: the
// store's bytes, or zeros for a slot never written. Callers hold n.mu.
func (n *Node) block(key blockstore.Key, st *slotState) ([]byte, error) {
	if !st.written {
		b := bufpool.Get(n.opts.BlockSize)
		clear(b)
		return b, nil
	}
	b, ok := n.opts.Store.Get(key)
	if !ok || len(b) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: node %s: block %d/%d missing from its store", n.opts.ID, key.Stripe, key.Slot)
	}
	return b, nil
}

// put stores a copy of the slot's new block. Callers hold n.mu.
func (n *Node) put(key blockstore.Key, st *slotState, b []byte) error {
	if err := n.opts.Store.Put(key, b); err != nil {
		return fmt.Errorf("storage: persist block: %w", err)
	}
	st.written = true
	return nil
}

// restore puts a slot's pre-op bytes back after a failed put. The
// store may hold the new bytes anyway (a File keeps a block in its
// write-back cache when the flush after it fails), and a retry of the
// op must see the old ones: a retried swap would return the new value
// as the old one, and a retried add would fold its delta twice. If the
// store fails this put too, the slot's content is unknown, so the slot
// goes INIT: no op serves it, and recovery rebuilds it. Callers hold
// n.mu.
func (n *Node) restore(key blockstore.Key, st *slotState, prior []byte) {
	if n.opts.Store.Put(key, prior) != nil {
		st.opmode = proto.Init
	}
}

// maybeExpireLease applies lease-based lock expiry. Callers hold n.mu.
func (n *Node) maybeExpireLease(st *slotState) {
	if n.opts.LockLease <= 0 || !st.lmode.Locked() {
		return
	}
	if n.now().After(st.lockExpiry) {
		st.lmode = proto.Expired
	}
}

// tick returns a strictly increasing logical timestamp derived from
// the wall clock. Callers hold n.mu.
func (n *Node) tick() uint64 {
	t := uint64(n.now().UnixNano())
	if t <= n.clock {
		t = n.clock + 1
	}
	n.clock = t
	return t
}

func (n *Node) checkUp() error {
	if n.crashed.Load() {
		return proto.ErrNodeDown
	}
	return nil
}

var _ proto.StorageNode = (*Node)(nil)
var _ proto.MultiBatcher = (*Node)(nil)
var _ proto.PartialSummer = (*Node)(nil)

// Read implements the paper's read operation (Fig. 4).
func (n *Node) Read(_ context.Context, req *proto.ReadReq) (*proto.ReadReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Reads++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if st.opmode != proto.Norm || st.lmode != proto.Unlocked {
		return &proto.ReadReply{OK: false, LockMode: st.lmode}, nil
	}
	blk, err := n.block(key, st)
	if err != nil {
		return nil, err
	}
	var tid proto.TID
	if len(st.recent) > 0 {
		// Entries are appended with strictly increasing times, so the
		// last one identifies the write that produced this content.
		tid = st.recent[len(st.recent)-1].TID
	}
	return &proto.ReadReply{OK: true, Block: blk, LockMode: st.lmode, TID: tid}, nil
}

// Swap implements the paper's swap operation (Fig. 5): atomically
// replace the block, returning its previous content, the slot epoch,
// and the identifier of the previous write.
func (n *Node) Swap(_ context.Context, req *proto.SwapReq) (*proto.SwapReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if len(req.Value) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: swap value has %d bytes, want %d", len(req.Value), n.opts.BlockSize)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Swaps++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if st.opmode != proto.Norm || st.lmode != proto.Unlocked {
		return &proto.SwapReply{OK: false, Epoch: st.epoch, LockMode: st.lmode}, nil
	}
	old, err := n.block(key, st)
	if err != nil {
		return nil, err
	}
	if err := n.put(key, st, req.Value); err != nil {
		n.restore(key, st, old)
		bufpool.Put(old)
		return nil, err
	}
	var otid proto.TID
	if len(st.recent) > 0 {
		// Entries are appended with strictly increasing times, so the
		// last one is the previous write.
		otid = st.recent[len(st.recent)-1].TID
	}
	st.appendRecent(proto.TIDTime{TID: req.NTID, Time: n.tick()})
	return &proto.SwapReply{OK: true, Block: old, Epoch: st.epoch, OTID: otid, LockMode: st.lmode}, nil
}

// Add implements the paper's add operation (Fig. 5): fold a delta into
// a redundant block, enforcing write ordering via otid and epoch
// freshness.
func (n *Node) Add(_ context.Context, req *proto.AddReq) (*proto.AddReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if len(req.Delta) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: add delta has %d bytes, want %d", len(req.Delta), n.opts.BlockSize)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Adds++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if st.opmode != proto.Norm || (st.lmode != proto.Unlocked && st.lmode != proto.L0) || req.Epoch < st.epoch {
		if req.Epoch < st.epoch {
			n.stats.StaleEpochs++
		}
		n.stats.RejectedAdds++
		return &proto.AddReply{Status: proto.StatusUnavail, OpMode: st.opmode, LockMode: st.lmode}, nil
	}
	if st.known(req.NTID) {
		// Duplicate delivery of an already-applied add must not fold
		// the delta twice (XOR would cancel it).
		return &proto.AddReply{Status: proto.StatusOK, OpMode: st.opmode, LockMode: st.lmode}, nil
	}
	if !req.OTID.IsZero() && !st.known(req.OTID) {
		n.stats.OrderRejects++
		return &proto.AddReply{Status: proto.StatusOrder, OpMode: st.opmode, LockMode: st.lmode}, nil
	}
	if !req.Premultiplied && n.opts.Code == nil {
		return nil, fmt.Errorf("storage: node %s received broadcast add but has no code configured", n.opts.ID)
	}
	blk, err := n.block(key, st)
	if err != nil {
		return nil, err
	}
	fold := func() {
		if req.Premultiplied {
			gf.AddSlice(blk, req.Delta)
		} else {
			gf.MulAddSlice(n.opts.Code.Coef(int(req.Slot), int(req.DataSlot)), blk, req.Delta)
		}
	}
	fold()
	// Put copies blk, so it goes back to the pool either way.
	defer bufpool.Put(blk)
	if err := n.put(key, st, blk); err != nil {
		fold() // XOR is its own inverse: blk holds the pre-op bytes again
		n.restore(key, st, blk)
		return nil, err
	}
	st.appendRecent(proto.TIDTime{TID: req.NTID, Time: n.tick()})
	return &proto.AddReply{Status: proto.StatusOK, OpMode: st.opmode, LockMode: st.lmode}, nil
}

// BatchAdd implements the sequential-I/O optimization (Section 3.11):
// one combined delta carries a full-stripe write's contribution to
// this redundant slot. The batch is atomic — the delta is applied and
// all entry tids recorded only if every entry's ordering constraint
// holds.
func (n *Node) BatchAdd(_ context.Context, req *proto.BatchAddReq) (*proto.BatchAddReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if len(req.Delta) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: batch-add delta has %d bytes, want %d", len(req.Delta), n.opts.BlockSize)
	}
	if len(req.Entries) == 0 {
		return nil, fmt.Errorf("storage: batch-add with no entries")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.BatchAdds++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if st.opmode != proto.Norm || (st.lmode != proto.Unlocked && st.lmode != proto.L0) || req.Epoch < st.epoch {
		if req.Epoch < st.epoch {
			n.stats.StaleEpochs++
		}
		n.stats.RejectedAdds++
		return &proto.BatchAddReply{Status: proto.StatusUnavail, OpMode: st.opmode, LockMode: st.lmode}, nil
	}
	// Duplicate delivery: batches apply atomically, so seeing any
	// entry's tid means the whole batch was applied.
	for _, e := range req.Entries {
		if st.known(e.NTID) {
			return &proto.BatchAddReply{Status: proto.StatusOK, OpMode: st.opmode, LockMode: st.lmode}, nil
		}
	}
	var blockers []int32
	for _, e := range req.Entries {
		if !e.OTID.IsZero() && !st.known(e.OTID) {
			blockers = append(blockers, e.DataSlot)
		}
	}
	if len(blockers) > 0 {
		n.stats.OrderRejects++
		return &proto.BatchAddReply{Status: proto.StatusOrder, OpMode: st.opmode, LockMode: st.lmode, Blockers: blockers}, nil
	}
	blk, err := n.block(key, st)
	if err != nil {
		return nil, err
	}
	gf.AddSlice(blk, req.Delta)
	defer bufpool.Put(blk)
	if err := n.put(key, st, blk); err != nil {
		gf.AddSlice(blk, req.Delta) // XOR is its own inverse
		n.restore(key, st, blk)
		return nil, err
	}
	for _, e := range req.Entries {
		st.appendRecent(proto.TIDTime{TID: e.NTID, Time: n.tick()})
	}
	return &proto.BatchAddReply{Status: proto.StatusOK, OpMode: st.opmode, LockMode: st.lmode}, nil
}

// BatchAddMulti implements proto.MultiBatcher by applying each
// sub-request as an independent BatchAdd. Coalescing exists to save
// round trips on a real transport; at the node there is nothing to
// save, so this is just the loop — each sub-batch keeps its own
// atomicity and there is none across sub-batches. A node-level error
// (crashed, bad delta size) aborts the whole call, mirroring a single
// multi-frame failing on the wire.
func (n *Node) BatchAddMulti(ctx context.Context, req *proto.BatchAddMultiReq) (*proto.BatchAddMultiReply, error) {
	rep := &proto.BatchAddMultiReply{Replies: make([]*proto.BatchAddReply, len(req.Adds))}
	for i, sub := range req.Adds {
		r, err := n.BatchAdd(ctx, sub)
		if err != nil {
			return nil, err
		}
		rep.Replies[i] = r
	}
	return rep, nil
}

// CheckTID implements the paper's checktid operation (Fig. 5 /
// Section 3.9).
func (n *Node) CheckTID(_ context.Context, req *proto.CheckTIDReq) (*proto.CheckTIDReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.CheckTIDs++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	switch {
	case !st.inRecent(req.NTID):
		// Our own write's tid is gone: the node crashed and was
		// remapped (or recovery finalized past us).
		return &proto.CheckTIDReply{Status: proto.StatusInit}, nil
	case !st.inRecent(req.OTID):
		// The awaited previous write's tid was garbage collected, so it
		// completed at every node.
		return &proto.CheckTIDReply{Status: proto.StatusGC}, nil
	default:
		return &proto.CheckTIDReply{Status: proto.StatusNoChange}, nil
	}
}

// TryLock implements the paper's trylock operation (Fig. 6).
func (n *Node) TryLock(_ context.Context, req *proto.TryLockReq) (*proto.TryLockReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if !req.Mode.Locked() {
		return nil, fmt.Errorf("storage: trylock with non-lock mode %v", req.Mode)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.TryLocks++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	if st.lmode.Locked() {
		return &proto.TryLockReply{OK: false, OldMode: st.lmode}, nil
	}
	old := st.lmode
	st.lmode = req.Mode
	st.lid = req.Caller
	st.lockExpiry = n.now().Add(n.opts.LockLease)
	return &proto.TryLockReply{OK: true, OldMode: old}, nil
}

// SetLock implements the paper's setlock operation (Fig. 6).
func (n *Node) SetLock(_ context.Context, req *proto.SetLockReq) (*proto.SetLockReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.SetLocks++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	st.lmode = req.Mode
	st.lid = req.Caller
	st.lockExpiry = n.now().Add(n.opts.LockLease)
	return &proto.SetLockReply{}, nil
}

// GetState implements the paper's get_state operation (Fig. 6). The
// block is reported valid in NORM and RECONS modes: a RECONS slot
// holds recovered content that a recovery-completing client may reuse.
func (n *Node) GetState(_ context.Context, req *proto.GetStateReq) (*proto.GetStateReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.GetStates++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	reply := &proto.GetStateReply{
		OpMode:     st.opmode,
		LockMode:   st.lmode,
		Epoch:      st.epoch,
		ReconsSet:  append([]int32(nil), st.reconsSet...),
		OldList:    append([]proto.TIDTime(nil), st.old...),
		RecentList: append([]proto.TIDTime(nil), st.recent...),
	}
	if st.opmode != proto.Init {
		reply.BlockValid = true
		if !req.NoBlock {
			blk, err := n.block(key, st)
			if err != nil {
				return nil, err
			}
			reply.Block = blk
		}
	}
	return reply, nil
}

// GetRecent implements the paper's getrecent operation (Fig. 6):
// atomically change the lock mode and return the recentlist.
func (n *Node) GetRecent(_ context.Context, req *proto.GetRecentReq) (*proto.GetRecentReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.GetRecents++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	st.lmode = req.Mode
	st.lid = req.Caller
	st.lockExpiry = n.now().Add(n.opts.LockLease)
	return &proto.GetRecentReply{RecentList: append([]proto.TIDTime(nil), st.recent...)}, nil
}

// Reconstruct implements the paper's reconstruct operation (Fig. 6):
// store recovered content, remember the consistent set, enter RECONS.
func (n *Node) Reconstruct(_ context.Context, req *proto.ReconstructReq) (*proto.ReconstructReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if req.InPlace {
		if len(req.Block) != 0 {
			return nil, fmt.Errorf("storage: in-place reconstruct carries a %d-byte block", len(req.Block))
		}
	} else if len(req.Block) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: reconstruct block has %d bytes, want %d", len(req.Block), n.opts.BlockSize)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Reconstructs++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if req.InPlace && st.opmode == proto.Init {
		// The coordinator certifies existing content as recovered, but
		// this slot holds garbage: its GetState cannot have shown a valid
		// block, so the certificate is stale. Fail the call; the
		// coordinator retries with a shipped block.
		return nil, fmt.Errorf("storage: in-place reconstruct on INIT slot")
	}
	if !req.InPlace {
		if err := n.put(key, st, req.Block); err != nil {
			return nil, err
		}
	}
	st.opmode = proto.Recons
	st.reconsSet = append([]int32(nil), req.CSet...)
	return &proto.ReconstructReply{Epoch: st.epoch}, nil
}

// Finalize implements the paper's finalize operation (Fig. 6): advance
// the epoch, clear the tid lists, return to NORM, and unlock.
func (n *Node) Finalize(_ context.Context, req *proto.FinalizeReq) (*proto.FinalizeReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Finalizes++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	st.epoch = req.Epoch
	st.recent = nil
	st.old = nil
	st.tids = nil
	st.reconsSet = nil
	if st.opmode == proto.Recons {
		st.opmode = proto.Norm
	}
	st.lmode = proto.Unlocked
	return &proto.FinalizeReply{}, nil
}

// GCOld implements gc_old (Fig. 7): discard tids from the oldlist.
func (n *Node) GCOld(_ context.Context, req *proto.GCOldReq) (*proto.GCReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.GCOlds++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	if st.opmode != proto.Norm || st.lmode != proto.Unlocked {
		return &proto.GCReply{Status: proto.StatusUnavail}, nil
	}
	if len(req.TIDs) > 0 {
		drop := make(map[proto.TID]bool, len(req.TIDs))
		for _, t := range req.TIDs {
			drop[t] = true
		}
		kept := st.old[:0]
		for _, e := range st.old {
			if drop[e.TID] {
				delete(st.tids, e.TID)
			} else {
				kept = append(kept, e)
			}
		}
		st.old = kept
	}
	return &proto.GCReply{Status: proto.StatusOK}, nil
}

// GCRecent implements gc_recent (Fig. 7): move tids from recentlist to
// oldlist.
func (n *Node) GCRecent(_ context.Context, req *proto.GCRecentReq) (*proto.GCReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.GCRecents++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	if st.opmode != proto.Norm || st.lmode != proto.Unlocked {
		return &proto.GCReply{Status: proto.StatusUnavail}, nil
	}
	if len(req.TIDs) > 0 {
		move := make(map[proto.TID]bool, len(req.TIDs))
		for _, t := range req.TIDs {
			move[t] = true
		}
		kept := st.recent[:0]
		for _, e := range st.recent {
			if move[e.TID] {
				st.old = append(st.old, e)
				st.tids[e.TID] = false
			} else {
				kept = append(kept, e)
			}
		}
		st.recent = kept
	}
	return &proto.GCReply{Status: proto.StatusOK}, nil
}

// PartialSum implements proto.PartialSummer: multiply this slot's
// block by the requested coefficient and fold it into the running
// accumulator, Sum = Coef*block XOR Acc. It serves NORM and RECONS
// slots regardless of lock mode — the recovery coordinator calls it
// while holding the stripe's L1 locks, exactly as it reads blocks
// through GetState on the naive path. INIT slots cannot contribute.
func (n *Node) PartialSum(_ context.Context, req *proto.PartialSumReq) (*proto.PartialSumReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	if len(req.Acc) != 0 && len(req.Acc) != n.opts.BlockSize {
		return nil, fmt.Errorf("storage: partial-sum accumulator has %d bytes, want %d", len(req.Acc), n.opts.BlockSize)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.PartialSums++
	key := blockstore.Key{Stripe: req.Stripe, Slot: req.Slot}
	st := n.getSlot(key)
	if st.opmode == proto.Init {
		return &proto.PartialSumReply{OK: false, OpMode: st.opmode, LockMode: st.lmode}, nil
	}
	sum, err := n.block(key, st)
	if err != nil {
		return nil, err
	}
	gf.MulSlice(req.Coef, sum, sum)
	if len(req.Acc) > 0 {
		gf.AddSlice(sum, req.Acc)
	}
	return &proto.PartialSumReply{OK: true, Sum: sum, OpMode: st.opmode, LockMode: st.lmode}, nil
}

// Probe implements the monitoring check of Section 3.10.
func (n *Node) Probe(_ context.Context, req *proto.ProbeReq) (*proto.ProbeReply, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stats.Probes++
	st := n.getSlot(blockstore.Key{Stripe: req.Stripe, Slot: req.Slot})
	reply := &proto.ProbeReply{
		OpMode:      st.opmode,
		LockMode:    st.lmode,
		RecentCount: int32(len(st.recent)),
		Epoch:       st.epoch,
	}
	if len(st.recent) > 0 {
		oldest := st.recent[0].Time
		nowT := uint64(n.now().UnixNano())
		if nowT > oldest {
			reply.OldestAge = nowT - oldest
		}
		reply.HasRecent = true
	}
	return reply, nil
}

// Stats returns a snapshot of the node's operation counters.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.stats
}

// ControlOverhead reports the protocol's per-slot control state in
// bytes (everything beyond the block itself), averaged across slots.
// The paper's Section 6.5 reports ~10 bytes per block; ours differs by
// the size of Go's in-memory representation but stays O(1) per block
// between garbage collections.
func (n *Node) ControlOverhead() (totalBytes int, slots int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	const (
		tidTimeBytes = 24                // 8 seq + 4 block + 4 client + 8 time
		fixedBytes   = 1 + 1 + 8 + 8 + 4 // opmode, lmode, epoch, lease, lid
	)
	for _, st := range n.slots {
		totalBytes += fixedBytes
		totalBytes += (len(st.recent) + len(st.old)) * tidTimeBytes
		totalBytes += len(st.reconsSet) * 4
	}
	return totalBytes, len(n.slots)
}

// SlotCount returns the number of materialized slots (for tests).
func (n *Node) SlotCount() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.slots)
}

// Flush forces buffered block writes to the backing store.
func (n *Node) Flush() error { return n.opts.Store.Flush() }

// Shutdown flushes and closes the backing store (clean shutdown).
// Block operations on a closed File store fail afterwards.
func (n *Node) Shutdown() error { return n.opts.Store.Close() }
