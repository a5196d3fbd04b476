// Package ecstore is a distributed block store that keeps data
// erasure-coded across storage nodes using the AJX protocol (Aguilera,
// Janakiraman, Xu — "Using Erasure Codes Efficiently for Storage in a
// Distributed System", DSN 2005).
//
// A k-of-n Reed-Solomon code spreads every stripe of k data blocks and
// n-k redundant blocks over n storage nodes, tolerating node crashes
// with far less space than replication. Reads cost one round trip to
// one node; writes cost a swap on the data node plus parity deltas on
// the n-k redundant nodes — no locks, no two-phase commit, and no
// old-version logs, even with concurrent writers. Node crashes are
// repaired online by a three-phase recovery procedure.
//
// # Quick start
//
//	store, _ := ecstore.New(ecstore.Options{
//		K: 3, N: 5, BlockSize: 1024,
//	})
//	defer store.Close()
//	_ = store.WriteBlock(ctx, 42, data)
//	got, _ := store.ReadBlock(ctx, 42)
//
// New runs everything in-process (development, testing, experiments).
// Connect speaks the same protocol to storaged servers over TCP
// (cmd/storaged). Both return the unified Store facade; see MIGRATION.md
// if you are coming from the removed NewLocalCluster/ConnectCluster
// API.
package ecstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"ecstore/internal/blockstore"
	"ecstore/internal/bulk"
	"ecstore/internal/core"
	"ecstore/internal/directory"
	"ecstore/internal/erasure"
	"ecstore/internal/obs"
	"ecstore/internal/proto"
	"ecstore/internal/readcache"
	"ecstore/internal/resilience"
	"ecstore/internal/rpc"
	"ecstore/internal/smallwrite"
	"ecstore/internal/storage"
	"ecstore/internal/stripe"
	"ecstore/internal/tier"
	"ecstore/internal/transport"
)

// UpdateMode selects how writes update the redundant nodes.
type UpdateMode = resilience.UpdateMode

// Update modes. Parallel gives 2-round-trip writes; Serial tolerates
// more simultaneous failures (Theorem 1 vs 2); Hybrid interpolates;
// Broadcast sends one unmultiplied delta to all redundant nodes.
const (
	Serial    = resilience.Serial
	Parallel  = resilience.Parallel
	Hybrid    = resilience.Hybrid
	Broadcast = resilience.Broadcast
)

// Errors re-exported from the protocol core.
var (
	// ErrUnrecoverable: too many failures; the stripe cannot be rebuilt.
	ErrUnrecoverable = core.ErrUnrecoverable
	// ErrWriteExhausted: a write kept being interrupted and gave up.
	ErrWriteExhausted = core.ErrWriteExhausted
)

// Options configures a Store (and the deprecated Cluster facade). The
// single struct covers both shapes of deployment: with Groups == 1
// (the default) the store is one stripe group exactly as before; with
// Groups > 1 the flat address space is split into group extents placed
// over a site pool by rendezvous hashing.
type Options struct {
	// K is the number of data blocks per stripe; N the total including
	// redundancy. Required: 2 <= K < N, and N-K <= K for the
	// resiliency theorems to apply.
	K, N int
	// BlockSize is the fixed block size in bytes. Required.
	BlockSize int
	// Mode selects the redundant-update strategy. Default: Parallel.
	Mode UpdateMode
	// TP is the number of simultaneous client crashes to tolerate
	// (affects recovery slack and hybrid grouping). Default 0.
	TP int
	// LockLease expires recovery locks whose holder vanished, for
	// deployments without an external failure detector. Local clusters
	// default to 5 seconds; 0 keeps the default, negative disables.
	LockLease time.Duration
	// DataDir, when set on a local single-group store, persists every
	// node's blocks under DataDir/node-<i>. Reopening a cluster on the
	// same directory restores the data; because a restarting deployment
	// provably missed no writes (every node restarts together), blocks
	// are served as valid.
	DataDir string

	// Groups is the number of stripe groups. Default 1 (a single group,
	// unbounded address space). With Groups > 1 the address space is
	// bounded at Groups*BlocksPerGroup blocks.
	Groups int
	// BlocksPerGroup sizes each group's extent of the flat address
	// space (must be a multiple of K). Defaults to K << 20. Only
	// meaningful with Groups > 1.
	BlocksPerGroup uint64
	// ClientID identifies this store's protocol clients. Every
	// concurrent writer should use its own ID. Defaults to 1.
	ClientID uint32
	// Sites is the pool size of a local multi-group store. Defaults to
	// N; must be >= N.
	Sites int
	// SiteWeights optionally skews placement toward bigger local sites
	// (len must equal Sites).
	SiteWeights []float64

	// EnableRepair starts the background repair/rebalance scheduler on
	// a local sharded store (Groups > 1 or Sites > 0): damaged stripe
	// groups queue by survivor count — a group one shard from data
	// loss repairs before a group missing one of many — fed by failure
	// reports and a periodic sweep, and pool membership changes enqueue
	// rebalance moves toward the rendezvous-hash ideal placement.
	EnableRepair bool
	// RepairBandwidth caps background repair traffic in bytes per
	// second through a token-bucket governor; 0 means unlimited.
	RepairBandwidth int64
	// RepairBurst is the governor's burst allowance in bytes; 0
	// defaults to one second of RepairBandwidth.
	RepairBurst int64
	// RepairInterval paces the scheduler's inspection sweep. Default
	// 30 seconds.
	RepairInterval time.Duration

	// HedgeAfter enables tail-tolerant hedged reads: a read the data
	// node has not answered after this minimum delay (or the site's
	// adaptive, latency-tracked delay, whichever is larger) races a
	// reconstruction from k survivors and takes whichever finishes
	// first. It also turns on per-site health tracking: slot ranking
	// away from gray sites and a per-site circuit breaker. 0 (the
	// default) disables hedging and health tracking.
	HedgeAfter time.Duration
	// HedgeBudget caps the steady-state hedge rate in hedges per read
	// (0.1 = at most ~10% of reads hedge). 0 means 0.1 when hedging
	// is enabled.
	HedgeBudget float64
	// CallDeadline bounds every RPC issued by a TCP deployment and is
	// propagated to storaged inside each request frame, so servers
	// shed queued work whose deadline already expired instead of
	// wasting effort on answers nobody is waiting for. 0 adds none.
	CallDeadline time.Duration
	// GrayRetireAfter, when > 0, retires a site whose latency stays
	// above the gray threshold for this long, exactly as if it had
	// crashed: its groups remap and repair rebuilds the moved shards.
	// Local sharded stores only (TCP pools cannot provision
	// replacement shards). Implies health tracking like HedgeAfter.
	GrayRetireAfter time.Duration

	// SmallWriteTier enables the staged small-write tier: sub-block
	// WriteAt spans are absorbed into a group-committed, erasure-coded
	// staging segment (durable on acknowledge) instead of paying a
	// read-modify-write swap round each, and merge into their home
	// blocks on Flush or when the segment fills. Requires ClientID in
	// [1,16] — each client identity owns a disjoint staging extent. On
	// a bounded store the staging region is carved off the top of the
	// capacity, so Capacity() shrinks accordingly.
	SmallWriteTier bool
	// SmallWriteStaging is the per-client staging segment length in
	// blocks. Default 256. Advanced; only meaningful with
	// SmallWriteTier.
	SmallWriteStaging uint64
	// CacheBytes bounds the client-side hot-read cache in payload
	// bytes; 0 (the default) disables it. The cache is invalidated by
	// the write identifiers that flow on every protocol reply — no
	// TTLs — and fills only from failure-free direct reads, which keeps
	// cached reads regular-register safe (see DESIGN.md section 17).
	CacheBytes int64

	// MaxInFlight bounds the bulk-I/O pipeline window in stripes: how
	// many stripes of a large ReadAt/WriteAt span are in flight at
	// once. Default 16; 1 degrades to the strictly sequential path.
	MaxInFlight int
	// ReadAhead is the streaming Reader's prefetch depth in stripes.
	// Defaults to MaxInFlight.
	ReadAhead int

	// Stripes spreads each storaged endpoint's calls over this many
	// pipelined TCP connections (request ids hashed across them), so
	// bulk transfers are not capped by a single flow's bandwidth
	// ceiling. TCP deployments only. Default 1.
	Stripes int
	// Nagle re-enables Nagle's algorithm on TCP connections. The
	// default (false) sets TCP_NODELAY, which the request/response
	// protocol wants: every frame is a complete message.
	Nagle bool
	// SockReadBuffer and SockWriteBuffer set SO_RCVBUF / SO_SNDBUF on
	// every TCP connection, in bytes. 0 keeps the kernel defaults.
	SockReadBuffer  int
	SockWriteBuffer int

	// Obs optionally collects metrics from every layer the store
	// touches — protocol clients, the bulk engine, the RPC stubs of a
	// TCP cluster, and the persistent block stores of a local one. Nil
	// (the default) disables instrumentation entirely.
	Obs *obs.Registry
}

func (o *Options) normalize() error {
	if o.K < 1 || o.N <= o.K {
		return fmt.Errorf("ecstore: invalid code K=%d N=%d", o.K, o.N)
	}
	if o.BlockSize <= 0 {
		return fmt.Errorf("ecstore: BlockSize must be positive, got %d", o.BlockSize)
	}
	if o.Mode == 0 {
		o.Mode = Parallel
	}
	if o.LockLease == 0 {
		o.LockLease = 5 * time.Second
	}
	if o.LockLease < 0 {
		o.LockLease = 0
	}
	if o.Groups == 0 {
		o.Groups = 1
	}
	if o.Groups < 1 {
		return fmt.Errorf("ecstore: Groups must be >= 1, got %d", o.Groups)
	}
	if o.ClientID == 0 {
		o.ClientID = 1
	}
	if o.Stripes == 0 {
		o.Stripes = 1
	}
	if o.Stripes < 1 {
		return fmt.Errorf("ecstore: Stripes must be >= 1, got %d", o.Stripes)
	}
	return o.checkTierClientID(o.ClientID)
}

// checkTierClientID rejects client identities that cannot own a
// staging slot. The mapping is clientID-1 with no wrapping: a modulo
// would let, say, ID 17 silently share slot 0 with ID 1, and the
// construction-time Salvage would replay and tombstone the live
// sibling client's active staging segment.
func (o *Options) checkTierClientID(clientID uint32) error {
	if o.SmallWriteTier && (clientID < 1 || clientID > tier.StagingSlots) {
		return fmt.Errorf("ecstore: SmallWriteTier requires ClientID in [1,%d], got %d",
			tier.StagingSlots, clientID)
	}
	return nil
}

// tierOptions maps the facade knobs to the tier layer's options for
// one client identity (validated by checkTierClientID when the tier is
// enabled) over the given stamped base. cache, when non-nil, is the
// cluster-wide shared hot-read cache (all client handles of one
// cluster must form one coherence domain).
func (o *Options) tierOptions(base tier.Stamped, clientID uint32, cache *readcache.Cache) tier.Options {
	slot := 0
	if o.SmallWriteTier {
		slot = int(clientID) - 1
	}
	return tier.Options{
		Base:          base,
		SmallWrite:    o.SmallWriteTier,
		StagingBlocks: o.SmallWriteStaging,
		ClientSlot:    slot,
		CacheBytes:    o.CacheBytes,
		Cache:         cache,
		MaxInFlight:   o.MaxInFlight,
		ReadAhead:     o.ReadAhead,
		Obs:           o.Obs,
	}
}

// rpcDialOpts maps the facade's transport knobs to rpc.Dial options.
func (o *Options) rpcDialOpts(m *rpc.Metrics) []rpc.Option {
	return []rpc.Option{
		rpc.WithMetrics(m),
		rpc.WithCallTimeout(o.CallDeadline),
		rpc.WithStripes(o.Stripes),
		rpc.WithNoDelay(!o.Nagle),
		rpc.WithSocketBuffers(o.SockReadBuffer, o.SockWriteBuffer),
	}
}

// hedgePolicy maps the facade's hedge knobs to the core policy.
func (o *Options) hedgePolicy() core.HedgePolicy {
	return core.HedgePolicy{After: o.HedgeAfter, Budget: o.HedgeBudget}
}

// cluster is a handle on a deployment: an erasure code, a set of
// storage nodes, and a directory mapping stripes to nodes. The Store
// facade (New/Connect) wraps it; tests reach it for multi-identity
// clients.
type cluster struct {
	opts   Options
	code   *erasure.Code
	layout stripe.Layout
	dir    *directory.Service

	local []*storage.Node // non-nil for local clusters
	conns []*rpc.Client   // non-nil for TCP clusters
	rpcm  *rpc.Metrics    // shared by all TCP stubs (nil when Obs unset)
	gen   int

	// cache is the hot-read cache shared by every Volume of this
	// cluster (nil when Options.CacheBytes is 0): one coherence domain
	// per process, so one client's write installs/invalidations are
	// visible to every other handle's reads.
	cache *readcache.Cache
}

// newCache builds the cluster-wide shared read cache, or nil when
// disabled.
func (o *Options) newCache() *readcache.Cache {
	if o.CacheBytes <= 0 {
		return nil
	}
	return readcache.New(o.CacheBytes, o.Obs)
}

// newLocalCluster builds an in-process cluster with N in-memory
// storage nodes. Crashed nodes are automatically replaced by fresh
// INIT nodes, which recovery then repopulates.
func newLocalCluster(opts Options) (*cluster, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	code, err := erasure.New(opts.K, opts.N)
	if err != nil {
		return nil, err
	}
	layout := stripe.MustLayout(opts.K, opts.N)
	c := &cluster{opts: opts, code: code, layout: layout, cache: opts.newCache()}

	handles := make([]proto.StorageNode, opts.N)
	c.local = make([]*storage.Node, opts.N)
	for i := 0; i < opts.N; i++ {
		nodeOpts := storage.Options{
			ID:        fmt.Sprintf("local-%d", i),
			BlockSize: opts.BlockSize,
			Code:      code,
			LockLease: opts.LockLease,
		}
		if opts.DataDir != "" {
			store, _, err := blockstore.OpenFile(blockstore.FileOptions{
				Dir:            filepath.Join(opts.DataDir, fmt.Sprintf("node-%d", i)),
				BlockSize:      opts.BlockSize,
				WriteBackLimit: 64,
				Obs:            opts.Obs,
			})
			if err != nil {
				return nil, err
			}
			nodeOpts.Store = store
			nodeOpts.TrustPersisted = true
		}
		node, err := storage.New(nodeOpts)
		if err != nil {
			return nil, err
		}
		c.local[i] = node
		handles[i] = node
	}
	dir, err := directory.New(layout, handles, c.replaceLocal)
	if err != nil {
		return nil, err
	}
	dir.Instrument(opts.Obs)
	c.dir = dir
	return c, nil
}

func (c *cluster) replaceLocal(phys int) proto.StorageNode {
	c.gen++
	node := storage.MustNew(storage.Options{
		ID:          fmt.Sprintf("local-%d.%d", phys, c.gen),
		BlockSize:   c.opts.BlockSize,
		Code:        c.code,
		Replacement: true,
		LockLease:   c.opts.LockLease,
	})
	c.local[phys] = node
	return node
}

// connectCluster dials N storaged servers (cmd/storaged) over TCP.
// addrs must have exactly N entries, in slot order. Failed nodes are
// not replaced automatically: start a replacement storaged with
// -replacement and install it with Volume.ReplaceNode.
func connectCluster(opts Options, addrs []string) (*cluster, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if len(addrs) != opts.N {
		return nil, fmt.Errorf("ecstore: %d addresses for N=%d nodes", len(addrs), opts.N)
	}
	code, err := erasure.New(opts.K, opts.N)
	if err != nil {
		return nil, err
	}
	layout := stripe.MustLayout(opts.K, opts.N)
	c := &cluster{opts: opts, code: code, layout: layout, cache: opts.newCache()}
	if opts.Obs != nil {
		c.rpcm = rpc.NewMetrics(opts.Obs, "rpc")
	}
	handles := make([]proto.StorageNode, opts.N)
	for i, addr := range addrs {
		cl := rpc.Dial(addr, opts.rpcDialOpts(c.rpcm)...)
		c.conns = append(c.conns, cl)
		handles[i] = cl
	}
	dir, err := directory.New(layout, handles, nil)
	if err != nil {
		return nil, err
	}
	dir.Instrument(opts.Obs)
	c.dir = dir
	return c, nil
}

// ReplaceNode points physical node index phys at a replacement
// storaged server (TCP clusters).
func (c *cluster) ReplaceNode(phys int, addr string) error {
	if phys < 0 || phys >= c.opts.N {
		return fmt.Errorf("ecstore: node index %d out of range [0,%d)", phys, c.opts.N)
	}
	cl := rpc.Dial(addr, c.opts.rpcDialOpts(c.rpcm)...)
	c.conns = append(c.conns, cl)
	c.dir.ReplaceNode(phys, cl)
	return nil
}

// CrashNode fail-stops a local node (testing and demos). It returns an
// error for TCP clusters — crash those by stopping the server.
func (c *cluster) CrashNode(phys int) error {
	if c.local == nil {
		return errors.New("ecstore: CrashNode only applies to local clusters")
	}
	if phys < 0 || phys >= len(c.local) {
		return fmt.Errorf("ecstore: node index %d out of range", phys)
	}
	c.local[phys].Crash()
	return nil
}

// Close releases TCP connections and flushes/close-marks any
// persistent local stores.
func (c *cluster) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, node := range c.local {
		if err := node.Shutdown(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// BlockSize returns the configured block size.
func (c *cluster) BlockSize() int { return c.opts.BlockSize }

// Code returns (k, n).
func (c *cluster) Code() (k, n int) { return c.opts.K, c.opts.N }

// Volume opens a client handle with the given non-zero client ID.
// Every concurrent writer (process or thread pool) should use its own
// ID; IDs are embedded in write identifiers for ordering and recovery.
// With SmallWriteTier enabled the ID must lie in [1, tier.StagingSlots]
// — it selects the client's staging extent, and an out-of-range ID must
// never silently alias another client's slot.
func (c *cluster) Volume(clientID uint32) (*Volume, error) {
	if err := c.opts.checkTierClientID(clientID); err != nil {
		return nil, err
	}
	cl, err := core.NewClient(core.Config{
		ID:        proto.ClientID(clientID),
		Code:      c.code,
		Resolver:  c.dir,
		BlockSize: c.opts.BlockSize,
		Mode:      c.opts.Mode,
		TP:        c.opts.TP,
		Multicast: transport.Parallel{},
		Hedge:     c.opts.hedgePolicy(),
		Obs:       c.opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	v := &Volume{cluster: c, cl: cl}
	layer, err := tier.NewLayer(c.opts.tierOptions((*clusterTarget)(v), clientID, c.cache))
	if err != nil {
		return nil, err
	}
	v.layer = layer
	return v, nil
}

// Volume is a logical-block view of the cluster for one client
// identity. Applications address flat logical blocks; striping,
// rotation, and the erasure code are hidden (Section 2's design goal).
// All I/O flows through the tier layer: the hot-read cache and the
// staged small-write tier (when enabled by Options) sit between these
// methods and the protocol client. Volumes are safe for concurrent use
// and satisfy Store.
type Volume struct {
	cluster *cluster
	cl      *core.Client
	layer   *tier.Layer
	owns    bool // Close also closes the cluster (Store built via New/Connect)
}

// BlockSize returns the volume's block size in bytes.
func (v *Volume) BlockSize() int { return v.cluster.opts.BlockSize }

// Code returns the erasure code's (k, n).
func (v *Volume) Code() (k, n int) { return v.cluster.Code() }

// NewClient opens a sibling volume over the same cluster under a
// different client identity. Every concurrent writer must use its own
// non-zero ID (IDs are embedded in write timestamps for ordering and
// recovery); with SmallWriteTier enabled the ID also selects the
// client's staging extent, so it must stay within [1, 16]. The sibling
// has its own cache and staging segment and must be Closed, but closing
// it never shuts down the shared cluster — that remains the original
// volume's job.
func (v *Volume) NewClient(clientID uint32) (*Volume, error) {
	return v.cluster.Volume(clientID)
}

// Capacity returns 0: a single-group volume's flat address space is
// unbounded (blocks exist when written; unwritten blocks read as
// zeros).
func (v *Volume) Capacity() uint64 { return 0 }

// Close flushes any staged small writes, then releases the volume. A
// volume obtained from New or Connect owns its cluster and shuts it
// down; one obtained from a shared cluster leaves it to its owner.
func (v *Volume) Close() error {
	err := v.layer.Close()
	if v.owns {
		if cerr := v.cluster.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ReadBlock reads one logical block. Unwritten blocks read as zeros.
// With CacheBytes set, hot blocks are served from the client-side
// cache; staged small writes are patched over the result either way.
func (v *Volume) ReadBlock(ctx context.Context, logical uint64) ([]byte, error) {
	return v.layer.ReadBlock(ctx, logical)
}

// WriteBlock writes one logical block. data must be exactly BlockSize
// bytes.
func (v *Volume) WriteBlock(ctx context.Context, logical uint64, data []byte) error {
	return v.layer.WriteBlock(ctx, logical, data)
}

// ReadAt reads len(p) bytes at byte offset off, spanning blocks as
// needed. Blocks are fetched concurrently under the bulk engine's
// pipeline window, which is what makes large sequential reads pipeline
// across storage nodes the way Section 3.11 intends. On failure the
// count is the contiguous prefix that definitely succeeded.
func (v *Volume) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	return v.layer.ReadAt(ctx, p, off)
}

// WriteAt writes p at byte offset off, spanning blocks as needed.
// Stripe-aligned runs go through the batched stripe write (Section
// 3.11's sequential optimization: k swaps plus one combined parity
// delta per redundant node) with up to MaxInFlight stripes in flight
// and their same-node deltas coalesced into combined RPCs. Unaligned
// head and tail blocks are read-modify-written; the read-modify-write
// is not atomic with respect to concurrent writers of the same block.
// On failure the count is the length of the longest prefix known
// written. With SmallWriteTier enabled, sub-block head and tail spans
// are absorbed by the staged small-write tier instead of paying a
// read-modify-write swap round each.
func (v *Volume) WriteAt(ctx context.Context, p []byte, off int64) (int, error) {
	return v.layer.WriteAt(ctx, p, off)
}

// Flush merges every staged small write into its home block and resets
// the staging segment: a barrier after which all acknowledged bytes
// are in their final erasure-coded blocks. A no-op without
// SmallWriteTier.
func (v *Volume) Flush(ctx context.Context) error {
	return v.layer.Flush(ctx)
}

// WriteStripeBlocks writes the k logical blocks of one stripe (those
// with logical indices stripe*k .. stripe*k+k-1) in a single batched
// operation.
func (v *Volume) WriteStripeBlocks(ctx context.Context, stripe uint64, values [][]byte) error {
	k := uint64(v.cluster.opts.K)
	errs, _ := v.layer.WriteStripes(ctx, []bulk.StripeWrite{{Addr: stripe * k, Values: values}})
	return errs[0]
}

// Recover runs the recovery procedure for the stripe containing the
// given logical block. Normally recovery is triggered automatically
// when reads or writes stumble on a failure.
func (v *Volume) Recover(ctx context.Context, logical uint64) error {
	s, _ := v.cluster.layout.Locate(logical)
	err := v.cl.Recover(ctx, s)
	if errors.Is(err, core.ErrRecoveryBusy) {
		return nil // someone else is already repairing it
	}
	return err
}

// CollectGarbage runs one pass of the two-phase GC protocol over every
// stripe this volume has touched, trimming write-id lists at the
// storage nodes. Run it periodically; two consecutive passes fully
// retire completed writes.
func (v *Volume) CollectGarbage(ctx context.Context) error {
	_, err := v.cl.CollectGarbage(ctx)
	return err
}

// Monitor probes every touched stripe for partial writes older than
// maxAge and for crashed nodes, triggering recovery where needed
// (Section 3.10). It returns the number of stripes recovered.
func (v *Volume) Monitor(ctx context.Context, maxAge time.Duration) (int, error) {
	report, err := v.cl.MonitorTracked(ctx, maxAge)
	if err != nil {
		return 0, err
	}
	return len(report.Recovered), nil
}

// Scrub audits every stripe this volume has touched against the
// erasure code, repairing localizable damage (missing blocks, single
// silent corruptions). It returns counts of clean, busy (skipped, try
// again later), and repaired stripes.
func (v *Volume) Scrub(ctx context.Context) (clean, busy, repaired int, err error) {
	return v.cl.ScrubTracked(ctx)
}

// Stats exposes protocol event counters (reads, writes, recoveries...).
func (v *Volume) Stats() *core.ClientStats { return v.cl.Stats() }

// CacheStats exposes the hot-read cache's counters, or nil when
// Options.CacheBytes was 0.
func (v *Volume) CacheStats() *readcache.Stats { return v.layer.CacheStats() }

// TierStats exposes the small-write tier's counters, or nil when
// Options.SmallWriteTier was off.
func (v *Volume) TierStats() *smallwrite.Stats { return v.layer.TierStats() }

// CrashNode fail-stops physical node phys (testing and demos). Local
// stores only; crash a TCP deployment by stopping its server.
func (v *Volume) CrashNode(phys int) error { return v.cluster.CrashNode(phys) }

// ReplaceNode points physical node index phys at a replacement
// storaged server (TCP deployments).
func (v *Volume) ReplaceNode(phys int, addr string) error {
	return v.cluster.ReplaceNode(phys, addr)
}

// Reader returns an io.Reader streaming nBytes from byte offset off,
// prefetching ReadAhead stripes ahead of the consumer. nBytes must be
// >= 0 on this unbounded volume.
func (v *Volume) Reader(ctx context.Context, off, nBytes int64) io.Reader {
	return v.layer.Reader(ctx, off, nBytes)
}

// clusterTarget adapts a single-group Volume to bulk.Target: the whole
// logical address space is one group, stripe s holds logical blocks
// s*k .. s*k+k-1.
type clusterTarget Volume

func (t *clusterTarget) BlockSize() int      { return t.cluster.opts.BlockSize }
func (t *clusterTarget) StripeK() int        { return t.cluster.opts.K }
func (t *clusterTarget) GroupBlocks() uint64 { return 0 }
func (t *clusterTarget) Capacity() uint64    { return 0 }

func (t *clusterTarget) ReadBlock(ctx context.Context, addr uint64) ([]byte, error) {
	s, slot := t.cluster.layout.Locate(addr)
	return t.cl.ReadBlock(ctx, s, slot)
}

func (t *clusterTarget) WriteBlock(ctx context.Context, addr uint64, data []byte) error {
	s, slot := t.cluster.layout.Locate(addr)
	return t.cl.WriteBlock(ctx, s, slot, data)
}

func (t *clusterTarget) ReadBlockStamped(ctx context.Context, addr uint64) ([]byte, core.ReadStamp, error) {
	s, slot := t.cluster.layout.Locate(addr)
	return t.cl.ReadBlockStamped(ctx, s, slot)
}

func (t *clusterTarget) WriteBlockStamped(ctx context.Context, addr uint64, data []byte) (proto.TID, proto.TID, error) {
	s, slot := t.cluster.layout.Locate(addr)
	return t.cl.WriteBlockStamped(ctx, s, slot, data)
}

func (t *clusterTarget) WriteStripes(ctx context.Context, writes []bulk.StripeWrite) ([]error, bulk.WriteStats) {
	v := (*Volume)(t)
	k := uint64(v.cluster.opts.K)
	sw := make([]core.StripeWrite, len(writes))
	for i, w := range writes {
		sw[i] = core.StripeWrite{Stripe: w.Addr / k, Values: w.Values}
	}
	errs, stats := v.cl.WriteStripes(ctx, sw)
	return errs, bulk.WriteStats{BatchCalls: stats.BatchCalls, BatchRPCs: stats.BatchRPCs}
}

var _ tier.Stamped = (*clusterTarget)(nil)
