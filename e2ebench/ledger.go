package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/readcache"
	"ecstore/internal/smallwrite"
)

// ledgerOps are the shard operations the ledger reports one by one.
var ledgerOps = []uint8{opRead, opSwap, opAdd, opBatchAdd, opBatchAddMulti}

// runTraced measures the facade untraced for half the window, then the
// traced assembly for the other half, and reports the per-layer ledger
// of the traced half.
func runTraced(ctx context.Context, work, name string, cfg config, seed uint64, d time.Duration) (*result, error) {
	half := d / 2
	st, wl, clients, err := setup(ctx, runDir(work, 0), name, cfg, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	base, err := timed(ctx, st, wl, clients, half)
	if err != nil {
		wl.release()
		_ = st.close()
		return nil, fmt.Errorf("%s untraced window: %w", name, err)
	}
	if err := finish(ctx, st, wl); err != nil {
		return nil, fmt.Errorf("%s untraced final check: %w", name, err)
	}

	tr := newTracer()
	st, wl, clients, err = setup(ctx, runDir(work, 1), name, cfg, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s traced set-up: %w", name, err)
	}
	before := snapshot(st)
	hs := startSampler(func() int {
		n := 0
		for _, c := range st.conns {
			n += c.PendingCalls()
		}
		return n
	})
	tr.enable()
	w, err := timed(ctx, st, wl, clients, half)
	spans := tr.disable()
	hs.end()
	after := snapshot(st)
	if err != nil {
		wl.release()
		_ = st.close()
		return nil, fmt.Errorf("%s traced window: %w", name, err)
	}
	controlBytes := st.cl.controlBytesPerSlot()
	if err := finish(ctx, st, wl); err != nil {
		return nil, fmt.Errorf("%s traced final check: %w", name, err)
	}
	if err := writeSpans(filepath.Join(work, "spans-"+name+".csv"), spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	m := perLayer(analyse(spans), w, before, after)
	m["storage.control_bytes_per_slot"] = metric{Value: controlBytes, Unit: "bytes"}
	m["rpc.pending_calls_mean"] = metric{Value: ratio(hs.pendSum, float64(hs.pendN)), Unit: "count", n: hs.pendN}
	untraced := float64(base.ops()) / base.elapsed.Seconds()
	traced := float64(w.ops()) / w.elapsed.Seconds()
	m["trace.overhead_frac"] = metric{Value: 1 - ratio(traced, untraced), Unit: "ratio"}
	return &result{Correct: true, Attempted: w.ops(), Failed: w.failed, Metrics: m}, nil
}

// snap is every counter the ledger differences across the window.
type snap struct {
	at      time.Time
	client  map[string]float64 // Options.Obs registry
	server  map[string]float64 // the servers' registries, summed
	rejects float64            // storage nodes' rejected operations
	layers  map[string]float64 // readcache and smallwrite stats
	pool    bufpool.Stats
	cpu     time.Duration // process user + system
	gcCPU   float64       // seconds
	allocs  uint64        // heap bytes allocated
	steal   float64       // host CPU ticks stolen
	hostCPU float64       // host CPU ticks, all states
}

func snapshot(st *stack) snap {
	s := snap{at: time.Now(), client: map[string]float64{}, server: st.cl.counters(), rejects: st.cl.rejects(), pool: bufpool.Snapshot()}
	addCounters(s.client, st.reg)
	s.layers = layerStats(st.stats.CacheStats(), st.stats.TierStats())
	s.cpu = processCPU()
	ms := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(ms)
	s.gcCPU = ms[0].Value.Float64()
	s.allocs = ms[1].Value.Uint64()
	s.steal, s.hostCPU = hostTicks()
	return s
}

// processCPU is the process's user + system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// layerStats reads the cache and small-write counters by name.
func layerStats(c *readcache.Stats, t *smallwrite.Stats) map[string]float64 {
	return map[string]float64{
		"hits":           float64(c.Hits.Load()),
		"misses":         float64(c.Misses.Load()),
		"fills":          float64(c.Fills.Load()),
		"fills_poisoned": float64(c.FillsPoisoned.Load()),
		"chain_installs": float64(c.ChainInstalls.Load()),
		"chain_breaks":   float64(c.ChainBreaks.Load()),
		"chain_orphans":  float64(c.ChainOrphans.Load()),
		"evictions":      float64(c.Evictions.Load()),
		"writes":         float64(t.Writes.Load()),
		"commits":        float64(t.Commits.Load()),
		"commit_records": float64(t.CommitRecords.Load()),
		"flushes":        float64(t.Flushes.Load()),
		"flushed_blocks": float64(t.FlushedBlocks.Load()),
		"supersedes":     float64(t.Supersedes.Load()),
	}
}

// hostTicks reads the steal and total ticks of the host's aggregate
// CPU line in /proc/stat (zeros where it is unavailable).
func hostTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, x := range f[1:] {
		v, _ := strconv.ParseFloat(x, 64)
		if i >= 8 { // guest time is already counted in user
			break
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// perLayer turns the span ledger and the counter deltas into the
// per-layer metrics.
func perLayer(lg *ledger, w *window, a, b snap) map[string]metric {
	ops := float64(w.ops())
	us := func(ns float64, n int) float64 { return ratio(ns/1e3, float64(n)) }
	cd := func(name string) float64 { return b.client[name] - a.client[name] }
	sd := func(name string) float64 { return b.server[name] - a.server[name] }
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

	// gateway: absent (0) on workloads that do not use it.
	gw := lg.layer(layerGateway)
	put("gateway.self_us_per_op", ratio(gw.self/1e3, ops), "us")
	put("gateway.backend_calls_per_op", ratio(float64(lg.childrenOf[layerGateway][layerTier]), float64(gw.n)), "count")
	put("gateway.shed_frac", ratio(cd("gateway.throttled")+cd("gateway.overloaded"), float64(gw.n)), "ratio")

	// tier (+bulk, readcache, smallwrite)
	t := lg.layer(layerTier)
	put("tier.self_us_per_op", ratio(t.self/1e3, ops), "us")
	put("tier.base_calls_per_op", ratio(float64(lg.childrenOf[layerTier][layerVolume]), ops), "count")
	ld := func(name string) float64 { return b.layers[name] - a.layers[name] }
	hits, misses := ld("hits"), ld("misses")
	installs, breaks, orphans := ld("chain_installs"), ld("chain_breaks"), ld("chain_orphans")
	put("readcache.hit_ratio", ratio(hits, hits+misses), "ratio")
	put("readcache.evictions_per_read", ratio(ld("evictions"), hits+misses), "count")
	put("readcache.chain_install_ratio", ratio(installs, installs+breaks+orphans), "ratio")
	put("readcache.fill_waste_frac", ratio(ld("fills_poisoned"), ld("fills")+ld("fills_poisoned")), "ratio")
	flushes := ld("flushes")
	put("smallwrite.records_per_commit", ratio(ld("commit_records"), ld("commits")), "count")
	put("smallwrite.superseded_frac", ratio(ld("supersedes"), ld("writes")), "ratio")
	put("smallwrite.flushes_per_s", flushes/b.at.Sub(a.at).Seconds(), "1/s")
	put("smallwrite.flushed_blocks_per_flush", ratio(ld("flushed_blocks"), flushes), "count")
	var flushMs float64
	for _, x := range w.flushOps {
		flushMs += x
	}
	m["smallwrite.flush_op_ms"] = metric{Value: ratio(flushMs, float64(len(w.flushOps))), Unit: "ms", n: len(w.flushOps)}
	put("bulk.window_stalls_per_op", ratio(cd("bulk.window_stalls"), ops), "count")
	put("bulk.rpcs_per_batch_call", ratio(cd("bulk.batch_rpcs"), cd("bulk.batch_calls")), "count")

	// volume (+core, placement, erasure, gf)
	for _, k := range []struct {
		name string
		op   uint8
	}{{"read", opRead}, {"write", opWrite}, {"stripes", opStripes}} {
		v := lg.by[layerVolume][k.op]
		put("volume.self_us."+k.name, us(v.self, v.n), "us")
		put("volume.shard_calls_per_call."+k.name, ratio(float64(v.childCalls), float64(v.n)), "count")
	}
	retries := cd("core.swap_retries") + cd("core.add_retries") + cd("core.write_restarts")
	put("core.retries_per_write", ratio(retries, cd("core.writes")+cd("core.stripe_writes")), "count")
	put("core.degraded_read_frac", ratio(cd("core.degraded_reads"), cd("core.reads")), "ratio")
	put("core.unavailable_errors", cd("core.unavailable_errors"), "count")

	// rpc (+wire, bufpool, loopback)
	var calls float64
	for _, name := range shardOpNames {
		calls += sd("rpc." + name + ".calls")
	}
	for _, op := range ledgerOps {
		name := shardOpNames[op]
		c, s := lg.by[layerRPC][op], lg.by[layerStorage][op]
		put("rpc.transit_us."+name, us(c.dur, c.n)-us(s.dur, s.n), "us")
		put("rpc.calls_per_op."+name, ratio(sd("rpc."+name+".calls"), ops), "count")
		put("storage.self_us."+name, us(s.self, s.n), "us")
	}
	put("rpc.bytes_per_call", ratio(sd("rpc.bytes_in")+sd("rpc.bytes_out"), calls), "bytes")
	put("rpc.zero_copy_frac", ratio(cd("rpc.vec_bytes")+sd("rpc.vec_bytes"), cd("rpc.bytes_out")+sd("rpc.bytes_out")), "ratio")
	put("bufpool.hit_ratio", ratio(float64(b.pool.Hits-a.pool.Hits), float64(b.pool.Gets-a.pool.Gets)), "ratio")

	// storage, blockstore
	put("storage.rejects_per_call", ratio(b.rejects-a.rejects, calls), "count")
	get, pt := lg.by[layerBlockstore][opGet], lg.by[layerBlockstore][opPut]
	put("blockstore.self_us.get", us(get.self, get.n), "us")
	put("blockstore.self_us.put", us(pt.self, pt.n), "us")
	put("blockstore.disk_writes_per_put", ratio(sd("blockstore.disk_writes"), sd("blockstore.puts")), "count")

	// process
	cpu := (b.cpu - a.cpu).Seconds()
	put("process.cpu_us_per_op", ratio(cpu*1e6, ops), "us")
	put("process.alloc_bytes_per_op", ratio(float64(b.allocs-a.allocs), ops), "bytes")
	put("process.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, cpu), "ratio")
	put("host.steal_frac", ratio(b.steal-a.steal, b.hostCPU-a.hostCPU), "ratio")
	return m
}
