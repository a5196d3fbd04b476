package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"ecstore/internal/blockstore"
	"ecstore/internal/gf"
	"ecstore/internal/proto"
)

func openFileStore(t *testing.T, dir string, writeBack int) *blockstore.File {
	t.Helper()
	store, _, err := blockstore.OpenFile(blockstore.FileOptions{
		Dir: dir, BlockSize: testBlockSize, WriteBackLimit: writeBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func TestPersistedBlocksSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	store := openFileStore(t, dir, 4)
	n := MustNew(Options{ID: "p0", BlockSize: testBlockSize, Store: store})
	want := block(0xEE)
	if r, err := n.Swap(ctx, &proto.SwapReq{Stripe: 5, Slot: 1, Value: want, NTID: tid(1, 1, 1)}); err != nil || !r.OK {
		t.Fatalf("swap: %v %+v", err, r)
	}
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 5, Slot: 3, Delta: block(0x11), Premultiplied: true, NTID: tid(2, 1, 1)}); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("add: %v %+v", err, r)
	}
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Restart with TrustPersisted: blocks come back NORM.
	store2 := openFileStore(t, dir, 0)
	n2 := MustNew(Options{ID: "p0'", BlockSize: testBlockSize, Store: store2, TrustPersisted: true})
	r, err := n2.Read(ctx, &proto.ReadReq{Stripe: 5, Slot: 1})
	if err != nil || !r.OK {
		t.Fatalf("read after restart: %v %+v", err, r)
	}
	if !bytes.Equal(r.Block, want) {
		t.Fatal("persisted block corrupted across restart")
	}
	st, _ := n2.GetState(ctx, &proto.GetStateReq{Stripe: 5, Slot: 3})
	if !bytes.Equal(st.Block, block(0x11)) {
		t.Fatal("persisted parity block corrupted across restart")
	}
	if err := n2.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestUntrustedRestartStartsInit(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store := openFileStore(t, dir, 0)
	n := MustNew(Options{ID: "u0", BlockSize: testBlockSize, Store: store})
	if r, _ := n.Swap(ctx, &proto.SwapReq{Stripe: 1, Slot: 0, Value: block(0x33), NTID: tid(1, 0, 1)}); !r.OK {
		t.Fatal("swap failed")
	}
	_ = n.Shutdown()

	// Restart WITHOUT TrustPersisted: the bytes are there, but the node
	// cannot prove it missed no writes — the slot must present as INIT
	// so recovery revalidates it.
	store2 := openFileStore(t, dir, 0)
	n2 := MustNew(Options{ID: "u0'", BlockSize: testBlockSize, Store: store2})
	defer n2.Shutdown()
	if r, _ := n2.Read(ctx, &proto.ReadReq{Stripe: 1, Slot: 0}); r.OK {
		t.Fatal("untrusted restart served a read")
	}
	st, _ := n2.GetState(ctx, &proto.GetStateReq{Stripe: 1, Slot: 0})
	if st.OpMode != proto.Init {
		t.Fatalf("opmode = %v, want INIT", st.OpMode)
	}
	// A slot the store never saw behaves like a fresh slot.
	st, _ = n2.GetState(ctx, &proto.GetStateReq{Stripe: 9, Slot: 0})
	if st.OpMode != proto.Norm {
		t.Fatalf("fresh slot opmode = %v, want NORM", st.OpMode)
	}
}

func TestRecoveryRepopulatesPersistentReplacement(t *testing.T) {
	// End-to-end: a replacement node with a File store receives
	// reconstructed blocks; after a restart they are still there.
	dir := t.TempDir()
	ctx := context.Background()
	store := openFileStore(t, dir, 0)
	n := MustNew(Options{ID: "r0", BlockSize: testBlockSize, Store: store, Replacement: true})
	if _, err := n.Reconstruct(ctx, &proto.ReconstructReq{Stripe: 2, Slot: 0, CSet: []int32{0, 1}, Block: block(0x77)}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Finalize(ctx, &proto.FinalizeReq{Stripe: 2, Slot: 0, Epoch: 1}); err != nil {
		t.Fatal(err)
	}
	_ = n.Shutdown()

	store2 := openFileStore(t, dir, 0)
	n2 := MustNew(Options{ID: "r0'", BlockSize: testBlockSize, Store: store2, TrustPersisted: true})
	defer n2.Shutdown()
	r, err := n2.Read(ctx, &proto.ReadReq{Stripe: 2, Slot: 0})
	if err != nil || !r.OK || !bytes.Equal(r.Block, block(0x77)) {
		t.Fatalf("recovered block lost across restart: %v %+v", err, r)
	}
}

func TestFlushNoStoreIsNoop(t *testing.T) {
	n := MustNew(Options{ID: "m", BlockSize: testBlockSize})
	if err := n.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := n.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

// lossyStore wraps a store and reports lost keys unreadable, the way
// blockstore.File.Get reports a failed pread.
type lossyStore struct {
	blockstore.Store
	mu   sync.Mutex
	lost map[blockstore.Key]bool
}

func (s *lossyStore) lose(key blockstore.Key) {
	s.mu.Lock()
	s.lost[key] = true
	s.mu.Unlock()
}

func (s *lossyStore) Get(key blockstore.Key) ([]byte, bool) {
	s.mu.Lock()
	lost := s.lost[key]
	s.mu.Unlock()
	if lost {
		return nil, false
	}
	return s.Store.Get(key)
}

func TestWrittenSlotMissingFromStoreFails(t *testing.T) {
	ctx := context.Background()
	store := &lossyStore{Store: blockstore.NewMem(), lost: map[blockstore.Key]bool{}}
	n := MustNew(Options{ID: "lossy", BlockSize: testBlockSize, Store: store})
	if r, err := n.Swap(ctx, &proto.SwapReq{Stripe: 1, Slot: 0, Value: block(0x21), NTID: tid(1, 0, 1)}); err != nil || !r.OK {
		t.Fatalf("swap: %v %+v", err, r)
	}
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 1, Slot: 3, Delta: block(0x42), Premultiplied: true, NTID: tid(1, 0, 1)}); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("add: %v %+v", err, r)
	}
	store.lose(blockstore.Key{Stripe: 1, Slot: 0})
	store.lose(blockstore.Key{Stripe: 1, Slot: 3})

	// Every op that needs a lost block fails; none serves or folds
	// into zeros.
	if r, err := n.Read(ctx, &proto.ReadReq{Stripe: 1, Slot: 0}); err == nil {
		t.Fatalf("read of a lost block returned %+v, want an error", r)
	}
	if r, err := n.Swap(ctx, &proto.SwapReq{Stripe: 1, Slot: 0, Value: block(0x22), NTID: tid(2, 0, 1)}); err == nil {
		t.Fatalf("swap over a lost block returned %+v, want an error", r)
	}
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 1, Slot: 3, Delta: block(0x43), Premultiplied: true, NTID: tid(2, 0, 1), OTID: tid(1, 0, 1)}); err == nil {
		t.Fatalf("add into a lost block returned %+v, want an error", r)
	}
	if r, err := n.BatchAdd(ctx, &proto.BatchAddReq{Stripe: 1, Slot: 3, Delta: block(0x44),
		Entries: []proto.BatchEntry{{DataSlot: 0, NTID: tid(3, 0, 1), OTID: tid(1, 0, 1)}}}); err == nil {
		t.Fatalf("batch-add into a lost block returned %+v, want an error", r)
	}
	if r, err := n.GetState(ctx, &proto.GetStateReq{Stripe: 1, Slot: 0}); err == nil {
		t.Fatalf("getstate of a lost block returned %+v, want an error", r)
	}
	if r, err := n.PartialSum(ctx, &proto.PartialSumReq{Stripe: 1, Slot: 3, Coef: 1}); err == nil {
		t.Fatalf("partial sum of a lost block returned %+v, want an error", r)
	}
	// A failed add recorded nothing: the write is not taken as applied.
	if r, _ := n.CheckTID(ctx, &proto.CheckTIDReq{Stripe: 1, Slot: 3, NTID: tid(2, 0, 1), OTID: tid(1, 0, 1)}); r.Status != proto.StatusInit {
		t.Fatalf("checktid after a failed add = %v, want INIT (tid not recorded)", r.Status)
	}

	// A slot never written still reads as zeros.
	r, err := n.Read(ctx, &proto.ReadReq{Stripe: 2, Slot: 0})
	if err != nil || !r.OK || !bytes.Equal(r.Block, make([]byte, testBlockSize)) {
		t.Fatalf("read of a fresh slot: %v %+v", err, r)
	}
}

// failingStore wraps a store whose next failPuts puts store the block
// and then fail, the way blockstore.File.Put keeps a block in its
// write-back cache when the flush after it fails.
type failingStore struct {
	blockstore.Store
	failPuts int
}

var errFlush = errors.New("injected flush failure")

func (s *failingStore) Put(key blockstore.Key, b []byte) error {
	if err := s.Store.Put(key, b); err != nil {
		return err
	}
	if s.failPuts > 0 {
		s.failPuts--
		return errFlush
	}
	return nil
}

// TestFailedPutLeavesPreOpBytes checks that an op whose put fails
// leaves the slot serving its pre-op bytes, so a retry with the same
// tid returns the true old value (swap) and folds its delta exactly
// once (add, batch-add), and that a slot whose bytes cannot be put
// back goes INIT instead of serving them.
func TestFailedPutLeavesPreOpBytes(t *testing.T) {
	ctx := context.Background()
	store := &failingStore{Store: blockstore.NewMem()}
	n := MustNew(Options{ID: "failing", BlockSize: testBlockSize, Store: store})
	swap := func(fill byte, seq uint64) (*proto.SwapReply, error) {
		return n.Swap(ctx, &proto.SwapReq{Stripe: 1, Slot: 0, Value: block(fill), NTID: tid(seq, 0, 1)})
	}
	read := func(slot int32) []byte {
		t.Helper()
		r, err := n.Read(ctx, &proto.ReadReq{Stripe: 1, Slot: slot})
		if err != nil || !r.OK {
			t.Fatalf("read slot %d: %v %+v", slot, err, r)
		}
		return r.Block
	}

	// A failed first write leaves the slot reading as zeros.
	store.failPuts = 1
	if _, err := swap(0x11, 1); !errors.Is(err, errFlush) {
		t.Fatalf("swap with a failing put: err = %v", err)
	}
	if r, err := swap(0x11, 1); err != nil || !r.OK || !bytes.Equal(r.Block, block(0)) {
		t.Fatalf("retried first swap: %v %+v, want old value zeros", err, r)
	}
	// A failed overwrite: the retry sees the value before it.
	store.failPuts = 1
	if _, err := swap(0x22, 2); !errors.Is(err, errFlush) {
		t.Fatalf("swap with a failing put: err = %v", err)
	}
	if r, err := swap(0x22, 2); err != nil || !r.OK || !bytes.Equal(r.Block, block(0x11)) || r.OTID != tid(1, 0, 1) {
		t.Fatalf("retried swap: %v %+v, want old value 0x11 and otid 1", err, r)
	}

	add := func(fill byte, seq, prev uint64) (*proto.AddReply, error) {
		return n.Add(ctx, &proto.AddReq{Stripe: 1, Slot: 3, Delta: block(fill), Premultiplied: true,
			NTID: tid(seq, 0, 1), OTID: tid(prev, 0, 1)})
	}
	batchAdd := func(fill byte, seq, prev uint64) (*proto.BatchAddReply, error) {
		return n.BatchAdd(ctx, &proto.BatchAddReq{Stripe: 1, Slot: 3, Delta: block(fill),
			Entries: []proto.BatchEntry{{DataSlot: 0, NTID: tid(seq, 0, 1), OTID: tid(prev, 0, 1)}}})
	}
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 1, Slot: 3, Delta: block(0x01), Premultiplied: true, NTID: tid(1, 0, 1)}); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("add: %v %+v", err, r)
	}
	want := block(0x01)
	store.failPuts = 1
	if _, err := batchAdd(0x06, 2, 1); !errors.Is(err, errFlush) {
		t.Fatalf("batch-add with a failing put: err = %v", err)
	}
	if r, err := batchAdd(0x06, 2, 1); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("retried batch-add: %v %+v", err, r)
	}
	gf.AddSlice(want, block(0x06))
	if got := read(3); !bytes.Equal(got, want) {
		t.Fatalf("after a retried batch-add: block %x, want %x (delta folded once)", got, want)
	}
	store.failPuts = 1
	if _, err := add(0x30, 3, 2); !errors.Is(err, errFlush) {
		t.Fatalf("add with a failing put: err = %v", err)
	}
	if r, err := add(0x30, 3, 2); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("retried add: %v %+v", err, r)
	}
	gf.AddSlice(want, block(0x30))
	if got := read(3); !bytes.Equal(got, want) {
		t.Fatalf("after a retried add: block %x, want %x (delta folded once)", got, want)
	}

	// The put that would restore the pre-op bytes fails too: the slot
	// goes INIT and serves nothing.
	store.failPuts = 2
	if _, err := swap(0x33, 3); !errors.Is(err, errFlush) {
		t.Fatalf("swap with failing puts: err = %v", err)
	}
	if r, err := n.Read(ctx, &proto.ReadReq{Stripe: 1, Slot: 0}); err != nil || r.OK {
		t.Fatalf("read after an unrestorable swap: %v %+v, want not OK", err, r)
	}
	if r, err := n.GetState(ctx, &proto.GetStateReq{Stripe: 1, Slot: 0}); err != nil || r.OpMode != proto.Init || r.BlockValid {
		t.Fatalf("getstate after an unrestorable swap: %v %+v, want INIT without a valid block", err, r)
	}
}

// TestNodeHeapHoldsNoBlockBytes writes 32 MiB of distinct blocks
// through a File-backed node: the node's heap may grow by the store's
// write-back buffers and the slot metadata, never by the stored bytes.
func TestNodeHeapHoldsNoBlockBytes(t *testing.T) {
	const (
		blockSize = 64 << 10
		blocks    = 512 // 32 MiB
		writeBack = 16
		slack     = 4 << 20 // slot metadata, index maps, runtime noise
	)
	store, _, err := blockstore.OpenFile(blockstore.FileOptions{
		Dir: t.TempDir(), BlockSize: blockSize, WriteBackLimit: writeBack,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	n := MustNew(Options{ID: "heap", BlockSize: blockSize, Store: store})
	ctx := context.Background()
	v := make([]byte, blockSize)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < blocks; i++ {
		binary.BigEndian.PutUint64(v, uint64(i)+1)
		if r, err := n.Swap(ctx, &proto.SwapReq{Stripe: uint64(i), Slot: 0, Value: v, NTID: tid(uint64(i)+1, 0, 1)}); err != nil || !r.OK {
			t.Fatalf("swap %d: %v %+v", i, err, r)
		}
	}
	// Drop the buffer pool's free lists (two cycles clear sync.Pool).
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapInuse) - int64(before.HeapInuse)
	if limit := int64(writeBack*blockSize + slack); grew >= limit {
		t.Fatalf("heap grew %d KiB writing %d KiB of blocks, want < %d KiB", grew>>10, blocks*blockSize>>10, limit>>10)
	}
	t.Logf("heap grew %d KiB for %d KiB of blocks", grew>>10, blocks*blockSize>>10)

	for _, i := range []int{0, blocks / 2, blocks - 1} {
		r, err := n.Read(ctx, &proto.ReadReq{Stripe: uint64(i), Slot: 0})
		if err != nil || !r.OK || binary.BigEndian.Uint64(r.Block) != uint64(i)+1 {
			t.Fatalf("read back block %d: %v %+v", i, err, r != nil && r.OK)
		}
	}
	runtime.KeepAlive(n)
}

// TestWriteThroughReadsServeDiskBytes runs a node over a write-through
// File store and rewrites the data file behind its back: every read
// after a write must return the file's bytes, proving no copy of the
// block survives anywhere else.
func TestWriteThroughReadsServeDiskBytes(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	store := openFileStore(t, dir, 0)
	defer store.Close()
	n := MustNew(Options{ID: "wt", BlockSize: testBlockSize, Store: store})
	const slots = 8
	for i := 0; i < slots; i++ {
		if r, err := n.Swap(ctx, &proto.SwapReq{Stripe: uint64(i), Slot: 0, Value: block(byte(i + 1)), NTID: tid(1, 0, 1)}); err != nil || !r.OK {
			t.Fatalf("swap %d: %v %+v", i, err, r)
		}
	}
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 0, Slot: 2, Delta: block(0x30), Premultiplied: true, NTID: tid(1, 0, 1)}); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("add: %v %+v", err, r)
	}

	// Invert every byte of the data file.
	path := filepath.Join(dir, "blocks.dat")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != (slots+1)*testBlockSize {
		t.Fatalf("data file holds %d bytes, want %d: writes did not go through", len(raw), (slots+1)*testBlockSize)
	}
	for i := range raw {
		raw[i] ^= 0xFF
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < slots; i++ {
		r, err := n.Read(ctx, &proto.ReadReq{Stripe: uint64(i), Slot: 0})
		if err != nil || !r.OK || !bytes.Equal(r.Block, block(byte(i+1)^0xFF)) {
			t.Fatalf("read %d did not serve the data file's bytes: %v %+v", i, err, r)
		}
	}
	// Adds fold into the disk bytes too.
	if r, err := n.Add(ctx, &proto.AddReq{Stripe: 0, Slot: 2, Delta: block(0x01), Premultiplied: true, NTID: tid(2, 0, 1)}); err != nil || r.Status != proto.StatusOK {
		t.Fatalf("add: %v %+v", err, r)
	}
	st, err := n.GetState(ctx, &proto.GetStateReq{Stripe: 0, Slot: 2})
	if err != nil || !bytes.Equal(st.Block, block(0x30^0xFF^0x01)) {
		t.Fatalf("parity block after add = %v %v, want the disk bytes plus the delta", err, st)
	}
}
