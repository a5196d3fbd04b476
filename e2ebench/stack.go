package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"ecstore"
	"ecstore/internal/blockstore"
	"ecstore/internal/erasure"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/proto"
	"ecstore/internal/readcache"
	"ecstore/internal/resilience"
	"ecstore/internal/rpc"
	"ecstore/internal/smallwrite"
	"ecstore/internal/storage"
	"ecstore/internal/tier"
	"ecstore/internal/transport"
	"ecstore/internal/volume"
)

// Deployment constants shared by every workload and by both sides of
// every comparison.
const (
	codeK, codeN   = 3, 5
	blockSize      = 4096
	nServers       = 5
	groups         = 4
	blocksPerGroup = 12288 // 4 groups = 192 MiB, so every working set spans groups
	writeBack      = 64    // storaged's default -write-back
	lockLease      = 10 * time.Second
)

// backend is what the workloads drive: the facade Store, or the tier
// front of the traced assembly. Both satisfy gateway.Backend.
type backend interface {
	BlockSize() int
	Capacity() uint64
	ReadAt(ctx context.Context, p []byte, off int64) (int, error)
	WriteAt(ctx context.Context, p []byte, off int64) (int, error)
	Reader(ctx context.Context, off, nBytes int64) io.Reader
	Flush(ctx context.Context) error
	Close() error
}

// server is one storaged-equivalent node: a storage.Node over a
// blockstore.File, served by rpc.Serve with storaged's defaults
// (TCP_NODELAY, 10 s lock lease, rpc metrics as -metrics-addr enables).
type server struct {
	srv  *rpc.Server
	node *storage.Node
	reg  *obs.Registry
}

// cluster is the five loopback servers of one stack.
type cluster struct {
	dir     string
	servers []*server
}

// startCluster starts the servers with their block stores under dir.
// A non-nil tracer puts its shims between rpc.Serve and each node and
// under each node's block store.
func startCluster(dir string, tr *tracer) (*cluster, error) {
	code, err := erasure.New(codeK, codeN)
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir}
	for i := 0; i < nServers; i++ {
		reg := obs.NewRegistry()
		file, _, err := blockstore.OpenFile(blockstore.FileOptions{
			Dir:            filepath.Join(dir, fmt.Sprintf("node-%d", i)),
			BlockSize:      blockSize,
			WriteBackLimit: writeBack,
			Obs:            reg,
		})
		if err != nil {
			_ = c.close()
			return nil, err
		}
		var bs blockstore.Store = file
		if tr != nil {
			bs = &storeShim{next: file, tr: tr, site: i}
		}
		node, err := storage.New(storage.Options{
			ID:        fmt.Sprintf("bench-%d", i),
			BlockSize: blockSize,
			Code:      code,
			LockLease: lockLease,
			Store:     bs,
		})
		if err != nil {
			_ = file.Close()
			_ = c.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			_ = node.Shutdown()
			_ = c.close()
			return nil, err
		}
		var h proto.StorageNode = node
		if tr != nil {
			h = &nodeShim{next: node, tr: tr, layer: layerStorage, site: i}
		}
		srv := rpc.Serve(ln, h,
			rpc.WithMetrics(rpc.NewMetrics(reg, "rpc")),
			rpc.WithNoDelay(true),
		)
		c.servers = append(c.servers, &server{srv: srv, node: node, reg: reg})
	}
	return c, nil
}

func (c *cluster) addrs() []string {
	out := make([]string, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.srv.Addr().String()
	}
	return out
}

// counters sums every server's counter and func-gauge values by name.
func (c *cluster) counters() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range c.servers {
		addCounters(out, s.reg)
	}
	return out
}

// rejects sums the storage nodes' rejected adds, order rejects and
// stale epochs.
func (c *cluster) rejects() float64 {
	var n uint64
	for _, s := range c.servers {
		st := s.node.Stats()
		n += st.RejectedAdds + st.OrderRejects + st.StaleEpochs
	}
	return float64(n)
}

// controlBytesPerSlot is the nodes' protocol control state per slot.
func (c *cluster) controlBytesPerSlot() float64 {
	var bytes, slots int
	for _, s := range c.servers {
		b, n := s.node.ControlOverhead()
		bytes += b
		slots += n
	}
	return ratio(float64(bytes), float64(slots))
}

// close stops the servers, closes their stores and removes the data.
func (c *cluster) close() error {
	var errs []error
	for _, s := range c.servers {
		errs = append(errs, s.srv.Close(), s.node.Shutdown())
	}
	errs = append(errs, os.RemoveAll(c.dir))
	return errors.Join(errs...)
}

// addCounters adds reg's counters and func gauges into out.
func addCounters(out map[string]float64, reg *obs.Registry) {
	for name, v := range reg.Snapshot() {
		switch x := v.(type) {
		case uint64:
			out[name] += float64(x)
		case int64:
			out[name] += float64(x)
		}
	}
}

// storeOptions is the facade configuration of every stack.
func storeOptions() ecstore.Options {
	return ecstore.Options{
		K: codeK, N: codeN, BlockSize: blockSize,
		Groups:         groups,
		BlocksPerGroup: blocksPerGroup,
		ClientID:       1,
		SmallWriteTier: true,
		CacheBytes:     8 << 20,
	}
}

// tierCounters exposes the read cache's and small-write tier's stats;
// the facade and tier.Layer both provide it.
type tierCounters interface {
	CacheStats() *readcache.Stats
	TierStats() *smallwrite.Stats
}

// stack is one deployment under test: servers plus the client side.
type stack struct {
	cl    *cluster
	store backend
	stats tierCounters
	// Traced assembly only.
	reg   *obs.Registry // client-side Options.Obs registry
	conns []*rpc.Client
}

func (s *stack) close() error {
	return errors.Join(s.store.Close(), s.cl.close())
}

// newStack starts a cluster under dir and connects either the facade
// (tr == nil) or the traced assembly to it.
func newStack(dir string, cacheBytes int64, tr *tracer) (*stack, error) {
	cl, err := startCluster(dir, tr)
	if err != nil {
		return nil, err
	}
	opts := storeOptions()
	opts.CacheBytes = cacheBytes
	var st *stack
	if tr == nil {
		st, err = connectFacade(opts, cl.addrs())
	} else {
		st, err = connectTraced(opts, cl.addrs(), tr)
	}
	if err != nil {
		_ = cl.close()
		return nil, err
	}
	st.cl = cl
	return st, nil
}

func connectFacade(opts ecstore.Options, addrs []string) (*stack, error) {
	s, err := ecstore.Connect(opts, addrs)
	if err != nil {
		return nil, err
	}
	stats, ok := s.(tierCounters)
	if !ok {
		_ = s.Close()
		return nil, fmt.Errorf("facade %T exposes no cache/tier stats", s)
	}
	return &stack{store: s, stats: stats}, nil
}

// connectTraced builds the same stack as ecstore.ConnectShardedVolume
// from the layers' constructors, with a timing shim at each seam: the
// tier front, the tier.Stamped view of the volume, and every shard
// handle OpenShard returns.
func connectTraced(opts ecstore.Options, addrs []string, tr *tracer) (*stack, error) {
	reg := obs.NewRegistry()
	rpcm := rpc.NewMetrics(reg, "rpc")
	st := &stack{reg: reg}
	sites := make([]placement.Node, len(addrs))
	shards := make(map[string]proto.StorageNode, len(addrs))
	for i, addr := range addrs {
		cl := rpc.Dial(addr,
			rpc.WithMetrics(rpcm),
			rpc.WithStripes(1),
			rpc.WithNoDelay(true),
		)
		st.conns = append(st.conns, cl)
		shards[addr] = &nodeShim{next: cl, tr: tr, layer: layerRPC, site: i}
		sites[i] = placement.Node{ID: addr}
	}
	fail := func(err error) (*stack, error) {
		for _, c := range st.conns {
			_ = c.Close()
		}
		return nil, err
	}
	pool, err := placement.NewPool(sites...)
	if err != nil {
		return fail(err)
	}
	vol, err := volume.New(volume.Options{
		K: opts.K, N: opts.N, BlockSize: opts.BlockSize,
		Groups:         opts.Groups,
		BlocksPerGroup: opts.BlocksPerGroup,
		Pool:           pool,
		OpenShard: func(site placement.Node, _ uint64, replacement bool) (proto.StorageNode, error) {
			if replacement {
				return nil, errors.New("TCP pools cannot provision replacement shards")
			}
			return shards[site.ID], nil
		},
		NoRemap:   true,
		ClientID:  proto.ClientID(opts.ClientID),
		Mode:      resilience.Parallel,
		Multicast: transport.Parallel{},
		Aggregate: transport.Chain{},
		Obs:       reg,
	})
	if err != nil {
		return fail(err)
	}
	base, ok := vol.BulkTarget().(tier.Stamped)
	if !ok {
		return fail(errors.New("volume target lacks stamped block ops"))
	}
	layer, err := tier.NewLayer(tier.Options{
		Base:       &volumeShim{next: base, tr: tr},
		SmallWrite: opts.SmallWriteTier,
		ClientSlot: int(opts.ClientID) - 1,
		CacheBytes: opts.CacheBytes,
		Obs:        reg,
	})
	if err != nil {
		return fail(err)
	}
	front := &tierShim{l: layer, tr: tr, conns: st.conns}
	st.store = front
	st.stats = layer
	return st, nil
}
