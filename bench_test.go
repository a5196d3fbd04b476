// Benchmarks mapping to the paper's tables and figures. Each
// Benchmark's name carries the experiment it regenerates; running
//
//	go test -bench=. -benchmem
//
// produces the microbenchmark numbers behind Figs. 8(a)/8(b), the
// protocol operation costs behind Fig. 1, throughput points behind
// Figs. 9/10 (reported as MB/s metrics), and recovery/GC costs.
// cmd/experiments prints the full tables; these benches give the
// per-operation view with allocation counts.
package ecstore_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ecstore"
	"ecstore/internal/blockstore"
	"ecstore/internal/bufpool"
	"ecstore/internal/cluster"
	"ecstore/internal/core"
	"ecstore/internal/erasure"
	"ecstore/internal/experiments"
	"ecstore/internal/gf"
	"ecstore/internal/obs"
	"ecstore/internal/resilience"
	"ecstore/internal/sim"
	"ecstore/internal/storage"
	"ecstore/internal/wire"

	"ecstore/internal/proto"
)

const benchBlock = 1024

func randBlock(seed int64) []byte {
	b := make([]byte, benchBlock)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// --- GF(2^8) substrate -------------------------------------------------------

func BenchmarkGF_MulSlice_1KB(b *testing.B) {
	src, dst := randBlock(1), make([]byte, benchBlock)
	b.SetBytes(benchBlock)
	for i := 0; i < b.N; i++ {
		gf.MulSlice(0x1D, dst, src)
	}
}

func BenchmarkGF_MulAddSlice_1KB(b *testing.B) {
	src, dst := randBlock(1), make([]byte, benchBlock)
	b.SetBytes(benchBlock)
	for i := 0; i < b.N; i++ {
		gf.MulAddSlice(0x1D, dst, src)
	}
}

func BenchmarkGF_AddSlice_1KB(b *testing.B) {
	src, dst := randBlock(1), make([]byte, benchBlock)
	b.SetBytes(benchBlock)
	for i := 0; i < b.N; i++ {
		gf.AddSlice(dst, src)
	}
}

// --- Fig. 8(a): per-code computation times, 1 KB blocks ----------------------

func BenchmarkFig8a_Delta(b *testing.B) {
	for _, kn := range [][2]int{{2, 4}, {3, 5}, {5, 7}} {
		b.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(b *testing.B) {
			code := erasure.Must(kn[0], kn[1])
			v, w := randBlock(1), randBlock(2)
			b.SetBytes(benchBlock)
			for i := 0; i < b.N; i++ {
				_ = code.Delta(code.K(), 0, v, w)
			}
		})
	}
}

func BenchmarkFig8a_FullEncode(b *testing.B) {
	for _, kn := range [][2]int{{2, 4}, {3, 5}, {5, 7}} {
		b.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(b *testing.B) {
			code := erasure.Must(kn[0], kn[1])
			data := make([][]byte, code.K())
			for i := range data {
				data[i] = randBlock(int64(i))
			}
			parity := make([][]byte, code.P())
			for i := range parity {
				parity[i] = make([]byte, benchBlock)
			}
			b.SetBytes(int64(benchBlock * code.K()))
			for i := 0; i < b.N; i++ {
				code.EncodeInto(parity, data)
			}
		})
	}
}

func BenchmarkFig8a_FullDecode(b *testing.B) {
	for _, kn := range [][2]int{{2, 4}, {3, 5}, {5, 7}} {
		b.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(b *testing.B) {
			code := erasure.Must(kn[0], kn[1])
			data := make([][]byte, code.K())
			for i := range data {
				data[i] = randBlock(int64(i))
			}
			full, err := code.EncodeStripe(data)
			if err != nil {
				b.Fatal(err)
			}
			erase := min(code.P(), code.K())
			b.SetBytes(int64(benchBlock * code.K()))
			for i := 0; i < b.N; i++ {
				work := make([][]byte, code.N())
				copy(work, full)
				for e := 0; e < erase; e++ {
					work[e] = nil
				}
				if err := code.Reconstruct(work); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 8(b): encode grows with k, Delta+Add stays flat --------------------

func BenchmarkFig8b_Encode(b *testing.B) {
	for _, kn := range [][2]int{{4, 8}, {8, 16}, {16, 32}} {
		b.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(b *testing.B) {
			code := erasure.Must(kn[0], kn[1])
			data := make([][]byte, code.K())
			for i := range data {
				data[i] = randBlock(int64(i))
			}
			parity := make([][]byte, code.P())
			for i := range parity {
				parity[i] = make([]byte, benchBlock)
			}
			for i := 0; i < b.N; i++ {
				code.EncodeInto(parity, data)
			}
		})
	}
}

func BenchmarkFig8b_DeltaPlusAdd(b *testing.B) {
	for _, kn := range [][2]int{{4, 8}, {8, 16}, {16, 32}} {
		b.Run(fmt.Sprintf("%d-of-%d", kn[0], kn[1]), func(b *testing.B) {
			code := erasure.Must(kn[0], kn[1])
			v, w := randBlock(1), randBlock(2)
			acc := make([]byte, benchBlock)
			for i := 0; i < b.N; i++ {
				d := code.Delta(code.K(), 0, v, w)
				gf.AddSlice(acc, d)
			}
		})
	}
}

// --- Fig. 1: protocol operation costs on the real implementation -------------

func benchCluster(b *testing.B, mode resilience.UpdateMode) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(cluster.Options{
		K: 3, N: 5, BlockSize: benchBlock, Mode: mode,
		RetryDelay: 50 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkFig1_Write(b *testing.B) {
	for _, mode := range []resilience.UpdateMode{resilience.Parallel, resilience.Serial, resilience.Hybrid, resilience.Broadcast} {
		b.Run(mode.String(), func(b *testing.B) {
			c := benchCluster(b, mode)
			cl := c.Clients[0]
			ctx := context.Background()
			v := randBlock(3)
			b.SetBytes(benchBlock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.WriteBlock(ctx, uint64(i%64), i%3, v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := cl.CollectGarbage(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkFig1_Read(b *testing.B) {
	c := benchCluster(b, resilience.Parallel)
	cl := c.Clients[0]
	ctx := context.Background()
	if err := cl.WriteBlock(ctx, 0, 0, randBlock(4)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.ReadBlock(ctx, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Recovery and GC costs ----------------------------------------------------

func BenchmarkRecovery_3of5(b *testing.B) {
	c := benchCluster(b, resilience.Parallel)
	cl := c.Clients[0]
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := cl.WriteBlock(ctx, 0, i, randBlock(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Recover(ctx, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGarbageCollection(b *testing.B) {
	c := benchCluster(b, resilience.Parallel)
	cl := c.Clients[0]
	ctx := context.Background()
	v := randBlock(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for w := 0; w < 8; w++ {
			if err := cl.WriteBlock(ctx, uint64(w%4), w%3, v); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := cl.CollectGarbage(ctx); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.CollectGarbage(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Wire codec ---------------------------------------------------------------

func BenchmarkWire_EncodeAddReq(b *testing.B) {
	req := &proto.AddReq{
		Stripe: 7, Slot: 4, Delta: randBlock(6), DataSlot: 1, Premultiplied: true,
		NTID: proto.TID{Seq: 1, Block: 1, Client: 2}, Epoch: 3,
	}
	b.SetBytes(int64(wire.Size(req)))
	for i := 0; i < b.N; i++ {
		if _, _, err := wire.Encode(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWire_DecodeAddReq(b *testing.B) {
	req := &proto.AddReq{
		Stripe: 7, Slot: 4, Delta: randBlock(6), DataSlot: 1, Premultiplied: true,
		NTID: proto.TID{Seq: 1, Block: 1, Client: 2}, Epoch: 3,
	}
	mt, buf, err := wire.Encode(req)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		if _, err := wire.Decode(mt, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 9/10: throughput points (reported as MB/s metrics) ----------------

// BenchmarkFig9a_ShapedWritePoint measures one Fig. 9(a) point — the
// real protocol under the shaped network model — and reports
// testbed-equivalent MB/s.
func BenchmarkFig9a_ShapedWritePoint(b *testing.B) {
	sc, err := experiments.NewShapedCluster(experiments.ShapedOptions{
		K: 3, N: 5, BlockSize: benchBlock, Clients: 2, TimeScale: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	v := randBlock(7)
	op := func(ctx context.Context, cl *core.Client, worker int) (int, error) {
		s := uint64(worker*131+1) % 512
		if err := cl.WriteBlock(ctx, s, worker%3, v); err != nil {
			return 0, err
		}
		return benchBlock, nil
	}
	var mbps float64
	for i := 0; i < b.N; i++ {
		res := experiments.RunLoad(ctx, sc.Clients, 16, 30*time.Millisecond, 100*time.Millisecond, op)
		mbps = res.MBps() * sc.Scale
	}
	b.ReportMetric(mbps, "MB/s-equiv")
}

// BenchmarkFig10_SimPoint runs one simulator point per protocol and
// reports MB/s; virtual time, fully deterministic.
func BenchmarkFig10_SimPoint(b *testing.B) {
	for _, p := range []sim.Protocol{sim.AJXPar, sim.AJXBcast, sim.FAB, sim.GWGR} {
		b.Run(p.String(), func(b *testing.B) {
			var last sim.Result
			for i := 0; i < b.N; i++ {
				cfg := sim.DefaultConfig(8, 10, benchBlock, 4, 16, p, sim.RandomWrite)
				cfg.Duration = 100 * time.Millisecond
				r, err := sim.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.ReportMetric(last.ThroughputMBps(), "MB/s")
		})
	}
}

// BenchmarkVolume_WriteAt exercises the public facade end to end.
func BenchmarkVolume_WriteAt(b *testing.B) {
	vol, err := ecstore.New(ecstore.Options{K: 3, N: 5, BlockSize: benchBlock})
	if err != nil {
		b.Fatal(err)
	}
	defer vol.Close()
	ctx := context.Background()
	payload := make([]byte, 4*benchBlock)
	rand.New(rand.NewSource(8)).Read(payload)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vol.WriteAt(ctx, payload, int64(i%16)*benchBlock); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteStripe compares the batched full-stripe write against
// k per-block writes on the real in-process implementation.
func BenchmarkWriteStripe(b *testing.B) {
	b.Run("batched", func(b *testing.B) {
		c := benchCluster(b, resilience.Parallel)
		cl := c.Clients[0]
		ctx := context.Background()
		values := make([][]byte, 3)
		for i := range values {
			values[i] = randBlock(int64(i))
		}
		b.SetBytes(int64(3 * benchBlock))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := cl.WriteStripe(ctx, uint64(i%64), values); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-block", func(b *testing.B) {
		c := benchCluster(b, resilience.Parallel)
		cl := c.Clients[0]
		ctx := context.Background()
		values := make([][]byte, 3)
		for i := range values {
			values[i] = randBlock(int64(i))
		}
		b.SetBytes(int64(3 * benchBlock))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for slot := 0; slot < 3; slot++ {
				if err := cl.WriteBlock(ctx, uint64(i%64), slot, values[slot]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkObsOverhead compares the 16 KiB write hot path with
// instrumentation disabled (nil registry: every observation is a no-op
// on a nil receiver) against fully enabled. The enabled/noop ratio is
// the overhead budget the obs package has to stay inside (< 2%).
func BenchmarkObsOverhead(b *testing.B) {
	const obsBlock = 16 << 10
	for _, bc := range []struct {
		name string
		reg  *obs.Registry
	}{
		{"noop", nil},
		{"enabled", obs.NewRegistry()},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				K: 3, N: 5, BlockSize: obsBlock,
				RetryDelay: 50 * time.Microsecond,
				Obs:        bc.reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			cl := c.Clients[0]
			ctx := context.Background()
			v := make([]byte, obsBlock)
			rand.New(rand.NewSource(9)).Read(v)
			b.SetBytes(obsBlock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cl.WriteBlock(ctx, uint64(i%64), i%3, v); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := cl.CollectGarbage(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkDegradedRead16KiB compares the normal 1-RTT read (Fig. 4)
// against the degraded k-survivor fallback at 16 KiB blocks: the data
// node is crashed with no replacement, so every read pays a parallel
// getstate sweep plus a local decode. Recorded in BENCH_robustness.json.
func BenchmarkDegradedRead16KiB(b *testing.B) {
	const dblock = 16 << 10
	for _, bc := range []struct {
		name     string
		degraded bool
	}{
		{"normal", false},
		{"degraded", true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := cluster.New(cluster.Options{
				K: 3, N: 5, BlockSize: dblock,
				NoReplacements: true,
				RetryDelay:     50 * time.Microsecond,
				Retry: core.RetryPolicy{
					BaseDelay:     50 * time.Microsecond,
					MaxDelay:      200 * time.Microsecond,
					DegradedAfter: 1,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			cl := c.Clients[0]
			ctx := context.Background()
			v := make([]byte, dblock)
			rand.New(rand.NewSource(10)).Read(v)
			if err := cl.WriteBlock(ctx, 0, 0, v); err != nil {
				b.Fatal(err)
			}
			if bc.degraded {
				c.CrashNodeForStripeSlot(0, 0)
			}
			b.SetBytes(dblock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cl.ReadBlock(ctx, 0, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if bc.degraded && cl.Stats().DegradedReads.Load() == 0 {
				b.Fatal("degraded case never took the fallback path")
			}
		})
	}
}

// BenchmarkBlockstoreFilePut measures persistent block writes with and
// without write-back buffering.
func BenchmarkBlockstoreFilePut(b *testing.B) {
	for _, limit := range []int{0, 64} {
		b.Run(fmt.Sprintf("writeback=%d", limit), func(b *testing.B) {
			store, _, err := blockstore.OpenFile(blockstore.FileOptions{
				Dir: b.TempDir(), BlockSize: benchBlock, WriteBackLimit: limit,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			blk := randBlock(11)
			b.SetBytes(benchBlock)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := store.Put(blockstore.Key{Stripe: uint64(i % 128)}, blk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNodeFile prices one storage-node op over a blockstore.File
// at 4 KiB blocks. The ops cycle over four times more slots than the
// write-back holds, so every op reads its block from the data file,
// and swaps and adds pay their share of write-back flushes. Reply
// blocks go back to the buffer pool, as the RPC server does once a
// reply is on the wire. Recorded in BENCH_robustness.json.
func BenchmarkNodeFile(b *testing.B) {
	const (
		blockSize = 4 << 10
		writeBack = 64
		slots     = 4 * writeBack
	)
	ctx := context.Background()
	for _, op := range []string{"read", "swap", "add"} {
		b.Run(op, func(b *testing.B) {
			store, _, err := blockstore.OpenFile(blockstore.FileOptions{
				Dir: b.TempDir(), BlockSize: blockSize, WriteBackLimit: writeBack,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer store.Close()
			node := storage.MustNew(storage.Options{ID: "bench", BlockSize: blockSize, Store: store})
			v := make([]byte, blockSize)
			rand.New(rand.NewSource(13)).Read(v)
			seq := uint64(0)
			ntid := func() proto.TID {
				seq++
				return proto.TID{Seq: seq, Client: 1}
			}
			for s := 0; s < slots; s++ {
				if _, err := node.Swap(ctx, &proto.SwapReq{Stripe: uint64(s), Value: v, NTID: ntid()}); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.Flush(); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(blockSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stripe := uint64(i % slots)
				switch op {
				case "read":
					rep, err := node.Read(ctx, &proto.ReadReq{Stripe: stripe})
					if err != nil || !rep.OK {
						b.Fatalf("read: %v", err)
					}
					bufpool.Put(rep.Block)
				case "swap":
					rep, err := node.Swap(ctx, &proto.SwapReq{Stripe: stripe, Value: v, NTID: ntid()})
					if err != nil || !rep.OK {
						b.Fatalf("swap: %v", err)
					}
					bufpool.Put(rep.Block)
				case "add":
					rep, err := node.Add(ctx, &proto.AddReq{Stripe: stripe, Delta: v, Premultiplied: true, NTID: ntid()})
					if err != nil || rep.Status != proto.StatusOK {
						b.Fatalf("add: %v", err)
					}
				}
			}
		})
	}
}
