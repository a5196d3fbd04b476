package main

import (
	"context"
	"errors"
	"io"

	"ecstore/internal/blockstore"
	"ecstore/internal/bulk"
	"ecstore/internal/core"
	"ecstore/internal/proto"
	"ecstore/internal/readcache"
	"ecstore/internal/rpc"
	"ecstore/internal/smallwrite"
	"ecstore/internal/tier"
)

// Span op codes. Shard-call ops use the rpc package's metric names.
const (
	opRead uint8 = iota
	opSwap
	opAdd
	opBatchAdd
	opBatchAddMulti
	opCheckTID
	opTryLock
	opSetLock
	opGetState
	opGetRecent
	opReconstruct
	opFinalize
	opGCOld
	opGCRecent
	opProbe
	opPartialSum
	nShardOps

	// The other seams number their ops from zero too.
	opWrite   = 1 // tier/volume write, gateway Put
	opStripes = 2 // volume WriteStripes
	opReader  = 3 // tier streaming Reader
	opGet     = 0 // blockstore Get
	opPut     = 1 // blockstore Put
)

var shardOpNames = [nShardOps]string{
	"read", "swap", "add", "batch_add", "batch_add_multi", "checktid",
	"trylock", "setlock", "getstate", "getrecent", "reconstruct",
	"finalize", "gc_old", "gc_recent", "probe", "partial_sum",
}

// opName names a span's op for the span file.
func opName(l layerID, op uint8) string {
	switch l {
	case layerRPC, layerStorage:
		return shardOpNames[op]
	case layerBlockstore:
		return [...]string{"get", "put"}[op]
	}
	return [...]string{"read", "write", "stripes", "reader"}[op]
}

// nodeShim times every proto.StorageNode call to one site. It serves
// both the client side (around each rpc.Client that OpenShard returns)
// and the server side (between rpc.Serve and storage.Node), and
// forwards the optional MultiBatcher and PartialSummer capabilities so
// the wrapped path takes the same RPCs as the unwrapped one.
type nodeShim struct {
	next  proto.StorageNode
	tr    *tracer
	layer layerID
	site  int
}

var (
	_ proto.StorageNode   = (*nodeShim)(nil)
	_ proto.MultiBatcher  = (*nodeShim)(nil)
	_ proto.PartialSummer = (*nodeShim)(nil)
)

func (s *nodeShim) begin(ctx context.Context, op uint8) openSpan {
	return s.tr.leaf(ctx, s.layer, op, s.site)
}

func (s *nodeShim) Read(ctx context.Context, req *proto.ReadReq) (*proto.ReadReply, error) {
	defer s.begin(ctx, opRead).end()
	return s.next.Read(ctx, req)
}

func (s *nodeShim) Swap(ctx context.Context, req *proto.SwapReq) (*proto.SwapReply, error) {
	defer s.begin(ctx, opSwap).end()
	return s.next.Swap(ctx, req)
}

func (s *nodeShim) Add(ctx context.Context, req *proto.AddReq) (*proto.AddReply, error) {
	defer s.begin(ctx, opAdd).end()
	return s.next.Add(ctx, req)
}

func (s *nodeShim) BatchAdd(ctx context.Context, req *proto.BatchAddReq) (*proto.BatchAddReply, error) {
	defer s.begin(ctx, opBatchAdd).end()
	return s.next.BatchAdd(ctx, req)
}

func (s *nodeShim) BatchAddMulti(ctx context.Context, req *proto.BatchAddMultiReq) (*proto.BatchAddMultiReply, error) {
	defer s.begin(ctx, opBatchAddMulti).end()
	return proto.BatchAddMulti(ctx, s.next, req)
}

func (s *nodeShim) CheckTID(ctx context.Context, req *proto.CheckTIDReq) (*proto.CheckTIDReply, error) {
	defer s.begin(ctx, opCheckTID).end()
	return s.next.CheckTID(ctx, req)
}

func (s *nodeShim) TryLock(ctx context.Context, req *proto.TryLockReq) (*proto.TryLockReply, error) {
	defer s.begin(ctx, opTryLock).end()
	return s.next.TryLock(ctx, req)
}

func (s *nodeShim) SetLock(ctx context.Context, req *proto.SetLockReq) (*proto.SetLockReply, error) {
	defer s.begin(ctx, opSetLock).end()
	return s.next.SetLock(ctx, req)
}

func (s *nodeShim) GetState(ctx context.Context, req *proto.GetStateReq) (*proto.GetStateReply, error) {
	defer s.begin(ctx, opGetState).end()
	return s.next.GetState(ctx, req)
}

func (s *nodeShim) GetRecent(ctx context.Context, req *proto.GetRecentReq) (*proto.GetRecentReply, error) {
	defer s.begin(ctx, opGetRecent).end()
	return s.next.GetRecent(ctx, req)
}

func (s *nodeShim) Reconstruct(ctx context.Context, req *proto.ReconstructReq) (*proto.ReconstructReply, error) {
	defer s.begin(ctx, opReconstruct).end()
	return s.next.Reconstruct(ctx, req)
}

func (s *nodeShim) Finalize(ctx context.Context, req *proto.FinalizeReq) (*proto.FinalizeReply, error) {
	defer s.begin(ctx, opFinalize).end()
	return s.next.Finalize(ctx, req)
}

func (s *nodeShim) GCOld(ctx context.Context, req *proto.GCOldReq) (*proto.GCReply, error) {
	defer s.begin(ctx, opGCOld).end()
	return s.next.GCOld(ctx, req)
}

func (s *nodeShim) GCRecent(ctx context.Context, req *proto.GCRecentReq) (*proto.GCReply, error) {
	defer s.begin(ctx, opGCRecent).end()
	return s.next.GCRecent(ctx, req)
}

func (s *nodeShim) Probe(ctx context.Context, req *proto.ProbeReq) (*proto.ProbeReply, error) {
	defer s.begin(ctx, opProbe).end()
	return s.next.Probe(ctx, req)
}

func (s *nodeShim) PartialSum(ctx context.Context, req *proto.PartialSumReq) (*proto.PartialSumReply, error) {
	defer s.begin(ctx, opPartialSum).end()
	return proto.PartialSum(ctx, s.next, req)
}

// storeShim times the block store calls of one storage node.
type storeShim struct {
	next blockstore.Store
	tr   *tracer
	site int
}

func (s *storeShim) Get(key blockstore.Key) ([]byte, bool) {
	defer s.tr.leaf(context.Background(), layerBlockstore, opGet, s.site).end()
	return s.next.Get(key)
}

func (s *storeShim) Put(key blockstore.Key, block []byte) error {
	defer s.tr.leaf(context.Background(), layerBlockstore, opPut, s.site).end()
	return s.next.Put(key, block)
}

func (s *storeShim) Keys() []blockstore.Key { return s.next.Keys() }
func (s *storeShim) Flush() error           { return s.next.Flush() }
func (s *storeShim) Close() error           { return s.next.Close() }

// volumeShim times the tier layer's calls into the volume (its
// tier.Stamped base).
type volumeShim struct {
	next tier.Stamped
	tr   *tracer
}

var _ tier.Stamped = (*volumeShim)(nil)

func (s *volumeShim) BlockSize() int      { return s.next.BlockSize() }
func (s *volumeShim) StripeK() int        { return s.next.StripeK() }
func (s *volumeShim) GroupBlocks() uint64 { return s.next.GroupBlocks() }
func (s *volumeShim) Capacity() uint64    { return s.next.Capacity() }

func (s *volumeShim) ReadBlock(ctx context.Context, addr uint64) ([]byte, error) {
	ctx, sp := s.tr.child(ctx, layerVolume, opRead)
	defer sp.end()
	return s.next.ReadBlock(ctx, addr)
}

func (s *volumeShim) WriteBlock(ctx context.Context, addr uint64, data []byte) error {
	ctx, sp := s.tr.child(ctx, layerVolume, opWrite)
	defer sp.end()
	return s.next.WriteBlock(ctx, addr, data)
}

func (s *volumeShim) ReadBlockStamped(ctx context.Context, addr uint64) ([]byte, core.ReadStamp, error) {
	ctx, sp := s.tr.child(ctx, layerVolume, opRead)
	defer sp.end()
	return s.next.ReadBlockStamped(ctx, addr)
}

func (s *volumeShim) WriteBlockStamped(ctx context.Context, addr uint64, data []byte) (proto.TID, proto.TID, error) {
	ctx, sp := s.tr.child(ctx, layerVolume, opWrite)
	defer sp.end()
	return s.next.WriteBlockStamped(ctx, addr, data)
}

func (s *volumeShim) WriteStripes(ctx context.Context, writes []bulk.StripeWrite) ([]error, bulk.WriteStats) {
	ctx, sp := s.tr.child(ctx, layerVolume, opStripes)
	defer sp.end()
	return s.next.WriteStripes(ctx, writes)
}

// tierShim times the calls gateway or benchmark clients make into the
// tier layer, and owns the traced assembly's connections.
type tierShim struct {
	l     *tier.Layer
	tr    *tracer
	conns []*rpc.Client
}

func (s *tierShim) BlockSize() int                  { return s.l.BlockSize() }
func (s *tierShim) Capacity() uint64                { return s.l.Capacity() }
func (s *tierShim) Flush(ctx context.Context) error { return s.l.Flush(ctx) }
func (s *tierShim) CacheStats() *readcache.Stats    { return s.l.CacheStats() }
func (s *tierShim) TierStats() *smallwrite.Stats    { return s.l.TierStats() }

func (s *tierShim) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	ctx, sp := s.tr.child(ctx, layerTier, opRead)
	defer sp.end()
	return s.l.ReadAt(ctx, p, off)
}

func (s *tierShim) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	ctx, sp := s.tr.child(ctx, layerTier, opWrite)
	defer sp.end()
	return s.l.WriteAt(ctx, p, off)
}

// Reader's span runs from the call until the stream ends, so the
// engine's readahead fetches are its children.
func (s *tierShim) Reader(ctx context.Context, off, nBytes int64) io.Reader {
	ctx, sp := s.tr.child(ctx, layerTier, opReader)
	return &spanReader{r: s.l.Reader(ctx, off, nBytes), sp: sp}
}

func (s *tierShim) Close() error {
	errs := []error{s.l.Close()}
	for _, c := range s.conns {
		errs = append(errs, c.Close())
	}
	return errors.Join(errs...)
}

// spanReader ends its span when the stream reports EOF or an error.
type spanReader struct {
	r    io.Reader
	sp   openSpan
	done bool
}

func (r *spanReader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	if err != nil && !r.done {
		r.done = true
		r.sp.end()
	}
	return n, err
}
