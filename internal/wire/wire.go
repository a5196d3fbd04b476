// Package wire defines the binary encoding of every AJX protocol
// message. The same codec serves the TCP RPC transport and the
// byte-accounting used by the shaped transport and the experiment
// harness (message sizes feed the bandwidth model).
//
// Encoding is big-endian and deliberately simple:
//
//	u8/u32/u64   fixed-width integers
//	bool         one byte, 0 or 1
//	bytes        u32 length prefix + raw bytes
//	TID          seq u64 + block u32 + client u32
//	[]TIDTime    u32 count + entries (TID + time u64)
//	[]int32      u32 count + values
//
// Every message is framed as: u32 total length, u8 message type, u64
// request id, u32 deadline budget in microseconds (0 = none), payload.
// The deadline rides every request frame so a storage node can shed
// work whose caller has already given up; replies carry 0.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ecstore/internal/bufpool"
	"ecstore/internal/proto"
)

// MsgType identifies a message on the wire.
type MsgType uint8

// Message types. Requests and replies are distinct types so a frame is
// self-describing.
const (
	TRead MsgType = iota + 1
	TReadReply
	TSwap
	TSwapReply
	TAdd
	TAddReply
	TCheckTID
	TCheckTIDReply
	TTryLock
	TTryLockReply
	TSetLock
	TSetLockReply
	TGetState
	TGetStateReply
	TGetRecent
	TGetRecentReply
	TReconstruct
	TReconstructReply
	TFinalize
	TFinalizeReply
	TGCOld
	TGCRecent
	TGCReply
	TProbe
	TProbeReply
	TError // reply carrying an error: u8 ErrCode, then message text
	TBatchAdd
	TBatchAddReply
	TBatchAddMulti
	TBatchAddMultiReply
	TPartialSum
	TPartialSumReply
)

// ErrTruncated reports a frame shorter than its contents require.
var ErrTruncated = errors.New("wire: truncated message")

// ErrBadType reports an unknown message type byte.
var ErrBadType = errors.New("wire: unknown message type")

// FrameOverhead is the per-message framing cost in bytes: u32 length,
// u8 type, u64 request id, u32 deadline budget (microseconds).
const FrameOverhead = 4 + 1 + 8 + 4

const tidSize = 16

// --- encoder --------------------------------------------------------------

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) boolean(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) tid(t proto.TID) {
	e.u64(t.Seq)
	e.u32(t.Block)
	e.u32(uint32(t.Client))
}
func (e *encoder) tidTimes(list []proto.TIDTime) {
	e.u32(uint32(len(list)))
	for _, item := range list {
		e.tid(item.TID)
		e.u64(item.Time)
	}
}
func (e *encoder) i32s(list []int32) {
	e.u32(uint32(len(list)))
	for _, v := range list {
		e.u32(uint32(v))
	}
}
func (e *encoder) batchAddReq(m *proto.BatchAddReq) {
	e.u64(m.Stripe)
	e.u32(uint32(m.Slot))
	e.bytes(m.Delta)
	e.u32(uint32(len(m.Entries)))
	for _, entry := range m.Entries {
		e.u32(uint32(entry.DataSlot))
		e.tid(entry.NTID)
		e.tid(entry.OTID)
	}
	e.u64(m.Epoch)
}
func (e *encoder) batchAddReply(m *proto.BatchAddReply) {
	e.u8(uint8(m.Status))
	e.u8(uint8(m.OpMode))
	e.u8(uint8(m.LockMode))
	e.i32s(m.Blockers)
}

// --- decoder --------------------------------------------------------------

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}
func (d *decoder) u8() uint8 {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}
func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}
func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}
func (d *decoder) boolean() bool { return d.u8() != 0 }
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	if !d.need(n) {
		return nil
	}
	// Block-sized payload fields dominate decode allocation; draw them
	// from the buffer pool. The decoded message owns the buffer — see
	// Recycle for the one place that returns request payloads.
	out := bufpool.Get(n)
	copy(out, d.buf[d.off:])
	d.off += n
	return out
}
func (d *decoder) tid() proto.TID {
	return proto.TID{Seq: d.u64(), Block: d.u32(), Client: proto.ClientID(d.u32())}
}
func (d *decoder) tidTimes() []proto.TIDTime {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.buf) { // defensive bound against corrupt counts
		d.err = ErrTruncated
		return nil
	}
	out := make([]proto.TIDTime, 0, n)
	for i := 0; i < n; i++ {
		t := d.tid()
		tm := d.u64()
		if d.err != nil {
			return nil
		}
		out = append(out, proto.TIDTime{TID: t, Time: tm})
	}
	return out
}
func (d *decoder) i32s() []int32 {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	out := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, int32(d.u32()))
	}
	if d.err != nil {
		return nil
	}
	return out
}

// --- message encode/decode -------------------------------------------------

// Encode serializes a protocol message body (no framing) and returns
// its type tag. It supports every request and reply in package proto.
func Encode(msg any) (MsgType, []byte, error) {
	return EncodeAppend(msg, nil)
}

// EncodeAppend is Encode into caller-provided storage: the body is
// appended to buf (usually buf[:0] of a pooled buffer sized with
// Size), growing it only if the capacity is short.
func EncodeAppend(msg any, buf []byte) (MsgType, []byte, error) {
	e := &encoder{buf: buf}
	switch m := msg.(type) {
	case *proto.ReadReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		return TRead, e.buf, nil
	case *proto.ReadReply:
		e.boolean(m.OK)
		e.bytes(m.Block)
		e.u8(uint8(m.LockMode))
		e.tid(m.TID)
		return TReadReply, e.buf, nil
	case *proto.SwapReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.bytes(m.Value)
		e.tid(m.NTID)
		return TSwap, e.buf, nil
	case *proto.SwapReply:
		e.boolean(m.OK)
		e.bytes(m.Block)
		e.u64(m.Epoch)
		e.tid(m.OTID)
		e.u8(uint8(m.LockMode))
		return TSwapReply, e.buf, nil
	case *proto.AddReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.bytes(m.Delta)
		e.u32(uint32(m.DataSlot))
		e.boolean(m.Premultiplied)
		e.tid(m.NTID)
		e.tid(m.OTID)
		e.u64(m.Epoch)
		return TAdd, e.buf, nil
	case *proto.AddReply:
		e.u8(uint8(m.Status))
		e.u8(uint8(m.OpMode))
		e.u8(uint8(m.LockMode))
		return TAddReply, e.buf, nil
	case *proto.BatchAddReq:
		e.batchAddReq(m)
		return TBatchAdd, e.buf, nil
	case *proto.BatchAddReply:
		e.batchAddReply(m)
		return TBatchAddReply, e.buf, nil
	case *proto.BatchAddMultiReq:
		e.u32(uint32(len(m.Adds)))
		for _, sub := range m.Adds {
			e.batchAddReq(sub)
		}
		return TBatchAddMulti, e.buf, nil
	case *proto.BatchAddMultiReply:
		e.u32(uint32(len(m.Replies)))
		for _, sub := range m.Replies {
			e.batchAddReply(sub)
		}
		return TBatchAddMultiReply, e.buf, nil
	case *proto.CheckTIDReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.tid(m.NTID)
		e.tid(m.OTID)
		return TCheckTID, e.buf, nil
	case *proto.CheckTIDReply:
		e.u8(uint8(m.Status))
		return TCheckTIDReply, e.buf, nil
	case *proto.TryLockReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u8(uint8(m.Mode))
		e.u32(uint32(m.Caller))
		return TTryLock, e.buf, nil
	case *proto.TryLockReply:
		e.boolean(m.OK)
		e.u8(uint8(m.OldMode))
		return TTryLockReply, e.buf, nil
	case *proto.SetLockReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u8(uint8(m.Mode))
		e.u32(uint32(m.Caller))
		return TSetLock, e.buf, nil
	case *proto.SetLockReply:
		return TSetLockReply, e.buf, nil
	case *proto.GetStateReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.boolean(m.NoBlock)
		return TGetState, e.buf, nil
	case *proto.GetStateReply:
		e.u8(uint8(m.OpMode))
		e.u8(uint8(m.LockMode))
		e.u64(m.Epoch)
		e.i32s(m.ReconsSet)
		e.tidTimes(m.OldList)
		e.tidTimes(m.RecentList)
		e.bytes(m.Block)
		e.boolean(m.BlockValid)
		return TGetStateReply, e.buf, nil
	case *proto.GetRecentReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u8(uint8(m.Mode))
		e.u32(uint32(m.Caller))
		return TGetRecent, e.buf, nil
	case *proto.GetRecentReply:
		e.tidTimes(m.RecentList)
		return TGetRecentReply, e.buf, nil
	case *proto.ReconstructReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.i32s(m.CSet)
		e.bytes(m.Block)
		e.boolean(m.InPlace)
		return TReconstruct, e.buf, nil
	case *proto.ReconstructReply:
		e.u64(m.Epoch)
		return TReconstructReply, e.buf, nil
	case *proto.FinalizeReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u64(m.Epoch)
		return TFinalize, e.buf, nil
	case *proto.FinalizeReply:
		return TFinalizeReply, e.buf, nil
	case *proto.GCOldReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u32(uint32(len(m.TIDs)))
		for _, t := range m.TIDs {
			e.tid(t)
		}
		return TGCOld, e.buf, nil
	case *proto.GCRecentReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u32(uint32(len(m.TIDs)))
		for _, t := range m.TIDs {
			e.tid(t)
		}
		return TGCRecent, e.buf, nil
	case *proto.GCReply:
		e.u8(uint8(m.Status))
		return TGCReply, e.buf, nil
	case *proto.PartialSumReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		e.u8(m.Coef)
		e.bytes(m.Acc)
		return TPartialSum, e.buf, nil
	case *proto.PartialSumReply:
		e.boolean(m.OK)
		e.bytes(m.Sum)
		e.u8(uint8(m.OpMode))
		e.u8(uint8(m.LockMode))
		return TPartialSumReply, e.buf, nil
	case *proto.ProbeReq:
		e.u64(m.Stripe)
		e.u32(uint32(m.Slot))
		return TProbe, e.buf, nil
	case *proto.ProbeReply:
		e.u8(uint8(m.OpMode))
		e.u8(uint8(m.LockMode))
		e.u32(uint32(m.RecentCount))
		e.u64(m.OldestAge)
		e.boolean(m.HasRecent)
		e.u64(m.Epoch)
		return TProbeReply, e.buf, nil
	default:
		return 0, nil, fmt.Errorf("wire: cannot encode %T", msg)
	}
}

// Decode parses a message body of the given type.
func Decode(t MsgType, buf []byte) (any, error) {
	d := &decoder{buf: buf}
	var msg any
	switch t {
	case TRead:
		msg = &proto.ReadReq{Stripe: d.u64(), Slot: int32(d.u32())}
	case TReadReply:
		msg = &proto.ReadReply{OK: d.boolean(), Block: d.bytes(), LockMode: proto.LockMode(d.u8()), TID: d.tid()}
	case TSwap:
		msg = &proto.SwapReq{Stripe: d.u64(), Slot: int32(d.u32()), Value: d.bytes(), NTID: d.tid()}
	case TSwapReply:
		msg = &proto.SwapReply{OK: d.boolean(), Block: d.bytes(), Epoch: d.u64(), OTID: d.tid(), LockMode: proto.LockMode(d.u8())}
	case TAdd:
		msg = &proto.AddReq{
			Stripe: d.u64(), Slot: int32(d.u32()), Delta: d.bytes(),
			DataSlot: int32(d.u32()), Premultiplied: d.boolean(),
			NTID: d.tid(), OTID: d.tid(), Epoch: d.u64(),
		}
	case TAddReply:
		msg = &proto.AddReply{Status: proto.Status(d.u8()), OpMode: proto.OpMode(d.u8()), LockMode: proto.LockMode(d.u8())}
	case TBatchAdd:
		msg = d.batchAddReq()
	case TBatchAddReply:
		msg = d.batchAddReply()
	case TBatchAddMulti:
		req := &proto.BatchAddMultiReq{}
		cnt := int(d.u32())
		if d.err == nil && cnt > 0 {
			if cnt > len(d.buf) {
				d.err = ErrTruncated
			} else {
				req.Adds = make([]*proto.BatchAddReq, 0, cnt)
				for i := 0; i < cnt; i++ {
					req.Adds = append(req.Adds, d.batchAddReq())
					if d.err != nil {
						req.Adds = nil
						break
					}
				}
			}
		}
		msg = req
	case TBatchAddMultiReply:
		rep := &proto.BatchAddMultiReply{}
		cnt := int(d.u32())
		if d.err == nil && cnt > 0 {
			if cnt > len(d.buf) {
				d.err = ErrTruncated
			} else {
				rep.Replies = make([]*proto.BatchAddReply, 0, cnt)
				for i := 0; i < cnt; i++ {
					rep.Replies = append(rep.Replies, d.batchAddReply())
					if d.err != nil {
						rep.Replies = nil
						break
					}
				}
			}
		}
		msg = rep
	case TCheckTID:
		msg = &proto.CheckTIDReq{Stripe: d.u64(), Slot: int32(d.u32()), NTID: d.tid(), OTID: d.tid()}
	case TCheckTIDReply:
		msg = &proto.CheckTIDReply{Status: proto.Status(d.u8())}
	case TTryLock:
		msg = &proto.TryLockReq{Stripe: d.u64(), Slot: int32(d.u32()), Mode: proto.LockMode(d.u8()), Caller: proto.ClientID(d.u32())}
	case TTryLockReply:
		msg = &proto.TryLockReply{OK: d.boolean(), OldMode: proto.LockMode(d.u8())}
	case TSetLock:
		msg = &proto.SetLockReq{Stripe: d.u64(), Slot: int32(d.u32()), Mode: proto.LockMode(d.u8()), Caller: proto.ClientID(d.u32())}
	case TSetLockReply:
		msg = &proto.SetLockReply{}
	case TGetState:
		msg = &proto.GetStateReq{Stripe: d.u64(), Slot: int32(d.u32()), NoBlock: d.boolean()}
	case TGetStateReply:
		msg = &proto.GetStateReply{
			OpMode: proto.OpMode(d.u8()), LockMode: proto.LockMode(d.u8()), Epoch: d.u64(),
			ReconsSet: d.i32s(), OldList: d.tidTimes(), RecentList: d.tidTimes(),
			Block: d.bytes(), BlockValid: d.boolean(),
		}
	case TGetRecent:
		msg = &proto.GetRecentReq{Stripe: d.u64(), Slot: int32(d.u32()), Mode: proto.LockMode(d.u8()), Caller: proto.ClientID(d.u32())}
	case TGetRecentReply:
		msg = &proto.GetRecentReply{RecentList: d.tidTimes()}
	case TReconstruct:
		msg = &proto.ReconstructReq{Stripe: d.u64(), Slot: int32(d.u32()), CSet: d.i32s(), Block: d.bytes(), InPlace: d.boolean()}
	case TReconstructReply:
		msg = &proto.ReconstructReply{Epoch: d.u64()}
	case TFinalize:
		msg = &proto.FinalizeReq{Stripe: d.u64(), Slot: int32(d.u32()), Epoch: d.u64()}
	case TFinalizeReply:
		msg = &proto.FinalizeReply{}
	case TGCOld:
		req := &proto.GCOldReq{Stripe: d.u64(), Slot: int32(d.u32())}
		req.TIDs = d.tids()
		msg = req
	case TGCRecent:
		req := &proto.GCRecentReq{Stripe: d.u64(), Slot: int32(d.u32())}
		req.TIDs = d.tids()
		msg = req
	case TGCReply:
		msg = &proto.GCReply{Status: proto.Status(d.u8())}
	case TPartialSum:
		msg = &proto.PartialSumReq{Stripe: d.u64(), Slot: int32(d.u32()), Coef: d.u8(), Acc: d.bytes()}
	case TPartialSumReply:
		msg = &proto.PartialSumReply{OK: d.boolean(), Sum: d.bytes(), OpMode: proto.OpMode(d.u8()), LockMode: proto.LockMode(d.u8())}
	case TProbe:
		msg = &proto.ProbeReq{Stripe: d.u64(), Slot: int32(d.u32())}
	case TProbeReply:
		msg = &proto.ProbeReply{
			OpMode: proto.OpMode(d.u8()), LockMode: proto.LockMode(d.u8()),
			RecentCount: int32(d.u32()), OldestAge: d.u64(), HasRecent: d.boolean(), Epoch: d.u64(),
		}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadType, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after %d message", len(buf)-d.off, t)
	}
	return msg, nil
}

func (d *decoder) batchAddReq() *proto.BatchAddReq {
	req := &proto.BatchAddReq{Stripe: d.u64(), Slot: int32(d.u32()), Delta: d.bytes()}
	cnt := int(d.u32())
	if d.err == nil && cnt > 0 {
		if cnt > len(d.buf) {
			d.err = ErrTruncated
		} else {
			req.Entries = make([]proto.BatchEntry, 0, cnt)
			for i := 0; i < cnt; i++ {
				req.Entries = append(req.Entries, proto.BatchEntry{
					DataSlot: int32(d.u32()), NTID: d.tid(), OTID: d.tid(),
				})
			}
			if d.err != nil {
				req.Entries = nil
			}
		}
	}
	req.Epoch = d.u64()
	return req
}

func (d *decoder) batchAddReply() *proto.BatchAddReply {
	return &proto.BatchAddReply{
		Status: proto.Status(d.u8()), OpMode: proto.OpMode(d.u8()),
		LockMode: proto.LockMode(d.u8()), Blockers: d.i32s(),
	}
}

func (d *decoder) tids() []proto.TID {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	if n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	out := make([]proto.TID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.tid())
	}
	if d.err != nil {
		return nil
	}
	return out
}

// Recycle returns a message's block payload buffer to the block pool
// and nils the field. The RPC server calls it once the reply is on the
// wire, on both sides of the call: the decoded request (storage node
// handlers fold or copy request payloads during the call and retain no
// reference) and the handler's reply (storage nodes hand out reply
// payloads they own and never touch again — package storage documents
// this). The buffers' lifetimes are fully visible there.
//
// The RPC client never recycles replies: the payloads it decodes (read
// blocks, swap old-values) are returned to its caller and escape into
// application code.
func Recycle(msg any) {
	switch m := msg.(type) {
	case *proto.ReadReply:
		bufpool.Put(m.Block)
		m.Block = nil
	case *proto.SwapReply:
		bufpool.Put(m.Block)
		m.Block = nil
	case *proto.GetStateReply:
		bufpool.Put(m.Block)
		m.Block = nil
	case *proto.PartialSumReply:
		bufpool.Put(m.Sum)
		m.Sum = nil
	case *proto.SwapReq:
		bufpool.Put(m.Value)
		m.Value = nil
	case *proto.AddReq:
		bufpool.Put(m.Delta)
		m.Delta = nil
	case *proto.BatchAddReq:
		bufpool.Put(m.Delta)
		m.Delta = nil
	case *proto.BatchAddMultiReq:
		for _, sub := range m.Adds {
			bufpool.Put(sub.Delta)
			sub.Delta = nil
		}
	case *proto.ReconstructReq:
		bufpool.Put(m.Block)
		m.Block = nil
	case *proto.PartialSumReq:
		bufpool.Put(m.Acc)
		m.Acc = nil
	}
}

// Size returns the on-wire size of a message including framing,
// without serializing it. The shaped transport and the experiment
// harness use it for bandwidth accounting on every call, so it must
// stay allocation-free.
func Size(msg any) int {
	body := 0
	switch m := msg.(type) {
	case *proto.ReadReq, *proto.ProbeReq:
		body = 12
	case *proto.GetStateReq:
		body = 13
	case *proto.ReadReply:
		body = 1 + 4 + len(m.Block) + 1 + tidSize
	case *proto.SwapReq:
		body = 12 + 4 + len(m.Value) + tidSize
	case *proto.SwapReply:
		body = 1 + 4 + len(m.Block) + 8 + tidSize + 1
	case *proto.AddReq:
		body = 12 + 4 + len(m.Delta) + 4 + 1 + 2*tidSize + 8
	case *proto.AddReply:
		body = 3
	case *proto.BatchAddReq:
		body = 12 + 4 + len(m.Delta) + 4 + len(m.Entries)*(4+2*tidSize) + 8
	case *proto.BatchAddReply:
		body = 3 + 4 + 4*len(m.Blockers)
	case *proto.BatchAddMultiReq:
		body = 4
		for _, sub := range m.Adds {
			body += 12 + 4 + len(sub.Delta) + 4 + len(sub.Entries)*(4+2*tidSize) + 8
		}
	case *proto.BatchAddMultiReply:
		body = 4
		for _, sub := range m.Replies {
			body += 3 + 4 + 4*len(sub.Blockers)
		}
	case *proto.CheckTIDReq:
		body = 12 + 2*tidSize
	case *proto.CheckTIDReply:
		body = 1
	case *proto.TryLockReq, *proto.SetLockReq, *proto.GetRecentReq:
		body = 12 + 1 + 4
	case *proto.TryLockReply:
		body = 2
	case *proto.SetLockReply, *proto.FinalizeReply:
		body = 0
	case *proto.GetStateReply:
		body = 2 + 8 + 4 + 4*len(m.ReconsSet) +
			4 + (tidSize+8)*len(m.OldList) +
			4 + (tidSize+8)*len(m.RecentList) +
			4 + len(m.Block) + 1
	case *proto.GetRecentReply:
		body = 4 + (tidSize+8)*len(m.RecentList)
	case *proto.ReconstructReq:
		body = 12 + 4 + 4*len(m.CSet) + 4 + len(m.Block) + 1
	case *proto.ReconstructReply:
		body = 8
	case *proto.FinalizeReq:
		body = 12 + 8
	case *proto.GCOldReq:
		body = 12 + 4 + tidSize*len(m.TIDs)
	case *proto.GCRecentReq:
		body = 12 + 4 + tidSize*len(m.TIDs)
	case *proto.GCReply:
		body = 1
	case *proto.PartialSumReq:
		body = 12 + 1 + 4 + len(m.Acc)
	case *proto.PartialSumReply:
		body = 1 + 4 + len(m.Sum) + 2
	case *proto.ProbeReply:
		body = 2 + 4 + 8 + 1 + 8
	default:
		return FrameOverhead // unknown: framing only
	}
	return FrameOverhead + body
}
