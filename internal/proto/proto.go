// Package proto defines the operation set of the AJX storage protocol:
// the request/reply messages exchanged between client nodes and the
// thin storage nodes, and the StorageNode interface implemented by
// servers and transport stubs alike.
//
// The operations map one-to-one onto the pseudo-code of the paper's
// Figs. 4-7: read, swap, add, checktid (read/write path), trylock,
// setlock, get_state, getrecent, reconstruct, finalize (recovery), and
// gc_old, gc_recent (garbage collection). Probe supports the
// monitoring mechanism of Section 3.10.
package proto

import (
	"context"
	"errors"
	"fmt"
)

// ClientID identifies a client node. IDs are assigned by the
// deployment (directory service or static configuration).
type ClientID uint32

// OpMode is a storage slot's operation mode.
type OpMode uint8

// Operation modes (paper Section 3.7).
const (
	// Norm means the slot holds valid data.
	Norm OpMode = iota + 1
	// Recons means recovery wrote this slot but has not finalized: the
	// block holds recovered data and recons_set names the blocks used.
	Recons
	// Init means the slot holds uninitialized garbage (a freshly
	// remapped replacement node).
	Init
)

func (m OpMode) String() string {
	switch m {
	case Norm:
		return "NORM"
	case Recons:
		return "RECONS"
	case Init:
		return "INIT"
	default:
		return fmt.Sprintf("OpMode(%d)", uint8(m))
	}
}

// LockMode is a storage slot's lock state.
type LockMode uint8

// Lock modes (paper Section 3.7).
const (
	// Unlocked allows swap and add.
	Unlocked LockMode = iota + 1
	// L0 is the partial lock: adds execute, swaps do not.
	L0
	// L1 is the full lock: all mutations are rejected.
	L1
	// Expired marks a lock whose holder crashed; the next client to see
	// it starts recovery.
	Expired
)

func (m LockMode) String() string {
	switch m {
	case Unlocked:
		return "UNL"
	case L0:
		return "L0"
	case L1:
		return "L1"
	case Expired:
		return "EXP"
	default:
		return fmt.Sprintf("LockMode(%d)", uint8(m))
	}
}

// Locked reports whether the mode is one of the two held-lock states.
func (m LockMode) Locked() bool { return m == L0 || m == L1 }

// Status is the outcome of an add, checktid, or garbage-collection
// operation.
type Status uint8

// Status codes. A zero Status is never sent; replies that can fail use
// a dedicated field or StatusUnavail.
const (
	// StatusOK: the operation was applied.
	StatusOK Status = iota + 1
	// StatusOrder: the add must wait for the previous write to the same
	// block (its otid was not yet seen here).
	StatusOrder
	// StatusUnavail: the slot rejected the operation (wrong opmode,
	// lock held, or stale epoch) — the paper's bottom.
	StatusUnavail
	// StatusInit: checktid found the probing write's own tid missing —
	// the node lost its state (crash + remap).
	StatusInit
	// StatusGC: checktid found the awaited otid garbage-collected, so
	// the previous write must have completed everywhere.
	StatusGC
	// StatusNoChange: checktid found both tids still present.
	StatusNoChange
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusOrder:
		return "ORDER"
	case StatusUnavail:
		return "UNAVAIL"
	case StatusInit:
		return "INIT"
	case StatusGC:
		return "GC"
	case StatusNoChange:
		return "NOCHANGE"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// TID uniquely identifies a WRITE: the paper's <seq, i, p> triple.
// The zero TID is "no tid" (bottom).
type TID struct {
	Seq    uint64
	Block  uint32 // stripe slot i being written
	Client ClientID
}

// IsZero reports whether the TID is the distinguished "no tid" value.
func (t TID) IsZero() bool { return t == TID{} }

func (t TID) String() string {
	if t.IsZero() {
		return "tid<none>"
	}
	return fmt.Sprintf("tid<%d,%d,c%d>", t.Seq, t.Block, t.Client)
}

// TIDTime is a recentlist/oldlist entry: a write identifier stamped
// with the storage node's local time.
type TIDTime struct {
	TID  TID
	Time uint64
}

// ErrNodeDown is returned by transports and crashed nodes: the storage
// node is unreachable or has failed. It is a transport-level failure,
// distinct from the protocol-level rejections carried in reply fields.
var ErrNodeDown = errors.New("proto: storage node down")

// ErrDraining is returned by a storage node that is shutting down
// gracefully: it refuses new work while letting in-flight calls
// finish. Unlike ErrNodeDown it is a deliberate, advance notice —
// clients treat it as an instant site-retire (resolve the slot
// elsewhere now) rather than a retry-with-backoff.
var ErrDraining = errors.New("proto: storage node draining")

// ErrDeadlineExceeded is returned when a call's propagated deadline
// budget expired before the node produced a reply: the node sheds the
// work instead of computing an answer nobody is waiting for.
var ErrDeadlineExceeded = errors.New("proto: call deadline exceeded")

// ErrThrottled is returned by an access-layer service (the gateway)
// when a tenant's request exceeds its QoS budget: the request was shed
// before touching storage and is safe to retry after backing off.
// Wrappers may carry a retry-after hint (gateway.ThrottleError).
var ErrThrottled = errors.New("proto: tenant throttled")

// ErrOverloaded is returned when a service sheds load to protect
// itself — its global concurrency limit is exhausted regardless of
// which tenant asks. Unlike ErrThrottled it signals systemic pressure:
// clients should back off multiplicatively, not per-tenant.
var ErrOverloaded = errors.New("proto: service overloaded")

// --- Requests and replies -----------------------------------------------

// ReadReq asks for the block of one stripe slot.
type ReadReq struct {
	Stripe uint64
	Slot   int32
}

// ReadReply carries a block, or OK=false (bottom) with the lock mode
// that explains the rejection. TID identifies the most recent write
// this node has seen for the slot (the newest recentlist entry) at the
// moment the block was read; it is the zero TID when the recentlist is
// empty (all writes garbage-collected, or the slot was never written).
// Client-side caches use it to decide whether a cached block is still
// provably current.
type ReadReply struct {
	OK       bool
	Block    []byte
	LockMode LockMode
	TID      TID
}

// SwapReq atomically replaces the block of a data slot, returning the
// old content.
type SwapReq struct {
	Stripe uint64
	Slot   int32
	Value  []byte
	NTID   TID
}

// SwapReply returns the previous block content on success. OTID is the
// identifier of the previous write to this slot (zero TID if none).
type SwapReply struct {
	OK       bool
	Block    []byte
	Epoch    uint64
	OTID     TID
	LockMode LockMode
}

// AddReq folds a delta into a redundant slot. If Premultiplied, Delta
// is alpha_ji*(v-w) computed by the client; otherwise Delta is the raw
// v-w broadcast payload and the node multiplies by its own coefficient
// for DataSlot (Section 3.11's broadcast optimization). OTID, when
// non-zero, orders this add after the previous write to the same data
// slot. Epoch is the epoch observed by the swap.
type AddReq struct {
	Stripe        uint64
	Slot          int32
	Delta         []byte
	DataSlot      int32
	Premultiplied bool
	NTID          TID
	OTID          TID
	Epoch         uint64
}

// AddReply reports the add outcome plus the slot's modes, which the
// writer inspects to decide between retrying and starting recovery.
type AddReply struct {
	Status   Status // StatusOK, StatusOrder, or StatusUnavail
	OpMode   OpMode
	LockMode LockMode
}

// BatchEntry names one data-slot write contributing to a combined
// batch delta: its own identifier and, optionally, the identifier of
// the previous write to that slot for ordering.
type BatchEntry struct {
	DataSlot int32
	NTID     TID
	OTID     TID
}

// BatchAddReq folds the COMBINED delta of a full-stripe write into a
// redundant slot in one message: Delta = sum_i alpha_ji*(v_i - w_i),
// premultiplied by the client. This is the Section 3.11 sequential-I/O
// optimization: k blocks cost k swaps + p batch-adds instead of
// k*(p+1) messages. The batch applies atomically: either every entry's
// ordering constraint holds and the delta is applied (recording all k
// NTIDs), or nothing is.
type BatchAddReq struct {
	Stripe  uint64
	Slot    int32
	Delta   []byte
	Entries []BatchEntry
	Epoch   uint64
}

// BatchAddReply reports the batch outcome. On StatusOrder, Blockers
// lists the data slots whose previous write has not been seen here.
type BatchAddReply struct {
	Status   Status
	OpMode   OpMode
	LockMode LockMode
	Blockers []int32
}

// BatchAddMultiReq carries several independent batch-adds destined for
// the same storage node — the combined deltas of co-scheduled
// full-stripe writes whose redundant slots happen to live on one site.
// It exists purely to save round trips and framing: each sub-request
// is applied with exactly the semantics of a standalone BatchAdd (its
// own stripe, epoch, and atomicity), and there is NO atomicity across
// sub-requests.
type BatchAddMultiReq struct {
	Adds []*BatchAddReq
}

// BatchAddMultiReply carries one reply per sub-request, in order.
type BatchAddMultiReply struct {
	Replies []*BatchAddReply
}

// MultiBatcher is an optional node capability (like Multicaster):
// deliver several batch-adds in one message. Clients probe for it with
// a type assertion and fall back to parallel unicast BatchAdd calls
// when the node (or a transport wrapper in front of it) lacks it.
type MultiBatcher interface {
	BatchAddMulti(ctx context.Context, req *BatchAddMultiReq) (*BatchAddMultiReply, error)
}

// BatchAddMulti invokes the capability when node supports it and the
// request has more than one sub-call; otherwise it applies the
// sub-requests one at a time. Per-sub-request transport errors are
// impossible in the fallback-free path (the single RPC either delivers
// all replies or fails as a whole), so the fallback mirrors that: the
// first transport error aborts and is returned for the whole call.
func BatchAddMulti(ctx context.Context, node StorageNode, req *BatchAddMultiReq) (*BatchAddMultiReply, error) {
	if mb, ok := node.(MultiBatcher); ok && len(req.Adds) > 1 {
		return mb.BatchAddMulti(ctx, req)
	}
	rep := &BatchAddMultiReply{Replies: make([]*BatchAddReply, len(req.Adds))}
	for i, sub := range req.Adds {
		r, err := node.BatchAdd(ctx, sub)
		if err != nil {
			return nil, err
		}
		rep.Replies[i] = r
	}
	return rep, nil
}

// CheckTIDReq asks whether this node still remembers NTID and OTID
// (garbage-collection-aware ordering, Section 3.9).
type CheckTIDReq struct {
	Stripe uint64
	Slot   int32
	NTID   TID
	OTID   TID
}

// CheckTIDReply carries StatusInit, StatusGC, or StatusNoChange.
type CheckTIDReply struct {
	Status Status
}

// TryLockReq attempts to take the lock in the given mode; it fails if
// the slot is already locked (L0/L1).
type TryLockReq struct {
	Stripe uint64
	Slot   int32
	Mode   LockMode
	Caller ClientID
}

// TryLockReply reports success and the mode the lock had before (so a
// failed multi-node acquisition can restore it).
type TryLockReply struct {
	OK      bool
	OldMode LockMode
}

// SetLockReq unconditionally sets the lock mode (used by the recovery
// coordinator, which already holds the lock).
type SetLockReq struct {
	Stripe uint64
	Slot   int32
	Mode   LockMode
	Caller ClientID
}

// SetLockReply is empty; the operation always succeeds.
type SetLockReply struct{}

// GetStateReq reads the full per-slot recovery state. NoBlock asks the
// node to omit the block payload from the reply (BlockValid still
// reports whether one exists) — the bandwidth-frugal recovery path
// reads state from all n slots but fetches block content through
// partial sums instead.
type GetStateReq struct {
	Stripe  uint64
	Slot    int32
	NoBlock bool
}

// GetStateReply is the paper's get_state: modes, tid lists, the saved
// reconstruction set, and the block. BlockValid is false when the slot
// holds garbage (opmode INIT).
type GetStateReply struct {
	OpMode     OpMode
	LockMode   LockMode
	Epoch      uint64
	ReconsSet  []int32
	OldList    []TIDTime
	RecentList []TIDTime
	Block      []byte
	BlockValid bool
}

// GetRecentReq atomically sets the lock mode and returns the
// recentlist (recovery phase 2's re-lock step).
type GetRecentReq struct {
	Stripe uint64
	Slot   int32
	Mode   LockMode
	Caller ClientID
}

// GetRecentReply carries the recentlist observed at re-lock time.
type GetRecentReply struct {
	RecentList []TIDTime
}

// ReconstructReq writes recovered data and records the consistent set
// used to decode it; the slot enters RECONS mode. With InPlace set the
// node keeps its current block instead of accepting a shipped one
// (Block must be empty): the coordinator certifies that the content
// the node already holds is the recovered value, so shipping it back
// would waste bandwidth. The coordinator only sends InPlace to slots
// whose GetState showed a valid block under its lock.
type ReconstructReq struct {
	Stripe  uint64
	Slot    int32
	CSet    []int32
	Block   []byte
	InPlace bool
}

// ReconstructReply returns the slot's current epoch, which the
// coordinator maxes over all slots before finalizing.
type ReconstructReply struct {
	Epoch uint64
}

// FinalizeReq completes recovery: bump the epoch, clear tid lists,
// return to NORM, unlock.
type FinalizeReq struct {
	Stripe uint64
	Slot   int32
	Epoch  uint64
}

// FinalizeReply is empty.
type FinalizeReply struct{}

// GCOldReq discards the listed tids from the oldlist (GC phase 1).
type GCOldReq struct {
	Stripe uint64
	Slot   int32
	TIDs   []TID
}

// GCRecentReq moves the listed tids from recentlist to oldlist (GC
// phase 2).
type GCRecentReq struct {
	Stripe uint64
	Slot   int32
	TIDs   []TID
}

// GCReply carries StatusOK, or StatusUnavail when the slot is locked
// or not in NORM mode.
type GCReply struct {
	Status Status
}

// PartialSumReq asks a storage node to apply a decode coefficient to
// its block locally and fold the result into a running sum:
//
//	Sum = Coef * block  XOR  Acc
//
// over GF(2^8). Acc is the accumulated contribution of upstream
// survivors along an aggregation tree (nil at the leaf). This is the
// bandwidth-frugal reconstruction primitive: instead of each of k
// survivors shipping a full block to the recovery coordinator (k*B
// bytes into one link), survivors combine coefficient-multiplied
// contributions along the tree and only the final B-byte sum reaches
// the coordinator.
type PartialSumReq struct {
	Stripe uint64
	Slot   int32
	Coef   byte
	Acc    []byte
}

// PartialSumReply carries the folded sum, or OK=false when the slot
// cannot contribute (INIT mode, or Acc length does not match the
// block).
type PartialSumReply struct {
	OK       bool
	Sum      []byte
	OpMode   OpMode
	LockMode LockMode
}

// PartialSummer is an optional node capability (like MultiBatcher):
// serve coefficient-multiplied partial sums for frugal reconstruction.
// Clients probe for it with a type assertion and fall back to shipping
// whole blocks when the node (or a transport wrapper in front of it)
// lacks it.
type PartialSummer interface {
	PartialSum(ctx context.Context, req *PartialSumReq) (*PartialSumReply, error)
}

// ErrNoPartialSum reports that a node lacks the PartialSummer
// capability; callers fall back to fetching whole blocks.
var ErrNoPartialSum = errors.New("proto: node does not support partial sums")

// PartialSum invokes the capability when node supports it and returns
// ErrNoPartialSum otherwise. Transport wrappers forward through this
// helper so a wrapped node's capability (or its absence) shows through
// the wrapper unchanged.
func PartialSum(ctx context.Context, node StorageNode, req *PartialSumReq) (*PartialSumReply, error) {
	if ps, ok := node.(PartialSummer); ok {
		return ps.PartialSum(ctx, req)
	}
	return nil, ErrNoPartialSum
}

// PartialCall names one survivor's contribution to an aggregated
// partial-sum: the node and the coefficient it should apply.
type PartialCall struct {
	Node StorageNode
	Req  *PartialSumReq
}

// Aggregator is an optional transport capability (like Multicaster):
// execute a chain of partial-sum calls along an aggregation tree the
// transport itself owns, returning only the final combined sum. The
// coordinator's link carries the small requests and one block-sized
// reply; the survivor-to-survivor hops happen inside the transport.
// Every named node must support PartialSummer; if any leg fails the
// whole aggregation fails and the caller falls back to fetching whole
// blocks.
type Aggregator interface {
	AggregateSum(ctx context.Context, calls []PartialCall) ([]byte, error)
}

// ProbeReq supports the monitoring mechanism: a cheap summary of slot
// health.
type ProbeReq struct {
	Stripe uint64
	Slot   int32
}

// ProbeReply reports the slot modes, the number of recentlist entries,
// and the age (in the node's time units) of the oldest recentlist
// entry — a long-lived entry indicates a started but unfinished write.
type ProbeReply struct {
	OpMode      OpMode
	LockMode    LockMode
	RecentCount int32
	OldestAge   uint64
	HasRecent   bool
	Epoch       uint64
}

// StorageNode is the complete thin-server operation set. Every method
// returns a transport/availability error (notably ErrNodeDown) or a
// reply; protocol-level rejections travel inside replies.
//
// Block payloads cross the interface by hand-over: a request's payload
// stays the caller's (the node folds or copies it during the call and
// keeps no reference), and a reply's payload becomes the caller's (the
// node keeps no reference and shares it with no other reply), so the
// caller may recycle it into internal/bufpool.
type StorageNode interface {
	Read(ctx context.Context, req *ReadReq) (*ReadReply, error)
	Swap(ctx context.Context, req *SwapReq) (*SwapReply, error)
	Add(ctx context.Context, req *AddReq) (*AddReply, error)
	BatchAdd(ctx context.Context, req *BatchAddReq) (*BatchAddReply, error)
	CheckTID(ctx context.Context, req *CheckTIDReq) (*CheckTIDReply, error)
	TryLock(ctx context.Context, req *TryLockReq) (*TryLockReply, error)
	SetLock(ctx context.Context, req *SetLockReq) (*SetLockReply, error)
	GetState(ctx context.Context, req *GetStateReq) (*GetStateReply, error)
	GetRecent(ctx context.Context, req *GetRecentReq) (*GetRecentReply, error)
	Reconstruct(ctx context.Context, req *ReconstructReq) (*ReconstructReply, error)
	Finalize(ctx context.Context, req *FinalizeReq) (*FinalizeReply, error)
	GCOld(ctx context.Context, req *GCOldReq) (*GCReply, error)
	GCRecent(ctx context.Context, req *GCRecentReq) (*GCReply, error)
	Probe(ctx context.Context, req *ProbeReq) (*ProbeReply, error)
}

// AddCall pairs an add request with its destination for multicast
// delivery.
type AddCall struct {
	Node StorageNode
	Req  *AddReq
}

// AddResult is one multicast outcome.
type AddResult struct {
	Reply *AddReply
	Err   error
}

// Multicaster is an optional transport capability: deliver one add
// payload to many nodes while charging the sender's bandwidth for the
// payload only once (the paper's broadcast optimization). Transports
// without the capability let the client fall back to parallel unicast.
type Multicaster interface {
	MulticastAdd(ctx context.Context, calls []AddCall) []AddResult
}

// TIDsOf extracts the TIDs from a tid-time list (the paper's tids()
// helper).
func TIDsOf(list []TIDTime) []TID {
	if len(list) == 0 {
		return nil
	}
	out := make([]TID, len(list))
	for i, e := range list {
		out[i] = e.TID
	}
	return out
}

// ContainsTID reports whether the tid-time list contains the tid.
func ContainsTID(list []TIDTime, tid TID) bool {
	for _, e := range list {
		if e.TID == tid {
			return true
		}
	}
	return false
}
