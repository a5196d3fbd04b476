// Package cluster assembles a complete in-process deployment of the
// AJX storage system — storage nodes, directory service, and protocol
// clients — with hooks for failure injection (storage crashes, client
// crashes, node remap). Tests, examples, and the experiment harness
// all build on it.
package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ecstore/internal/blockstore"
	"ecstore/internal/core"
	"ecstore/internal/directory"
	"ecstore/internal/erasure"
	"ecstore/internal/obs"
	"ecstore/internal/proto"
	"ecstore/internal/resilience"
	"ecstore/internal/storage"
	"ecstore/internal/stripe"
)

// Options configures a cluster.
type Options struct {
	// K, N are the erasure code parameters. Required.
	K, N int
	// BlockSize in bytes. Required.
	BlockSize int
	// Clients is the number of protocol clients. Defaults to 1.
	Clients int
	// Mode is the redundant-update mode. Defaults to Parallel.
	Mode resilience.UpdateMode
	// TP is the tolerated client-crash threshold. Defaults to 0.
	TP int
	// WrapNode optionally wraps every storage-node handle (shaping,
	// counting). Applied to initial nodes and replacements alike.
	WrapNode func(phys int, n proto.StorageNode) proto.StorageNode
	// Multicast optionally equips clients with broadcast delivery.
	Multicast proto.Multicaster
	// NoReplacements disables automatic node remapping: a crashed node
	// stays dead (clients keep erroring). Default is to remap to a
	// fresh INIT node on the first failure report.
	NoReplacements bool
	// LockLease configures lease-based lock expiry on storage nodes;
	// zero means expiry happens only through FailClient (oracle).
	LockLease time.Duration
	// RetryDelay overrides the clients' retry pause (speeds up tests).
	RetryDelay time.Duration
	// Retry overrides the clients' backoff/deadline/budget policy.
	Retry core.RetryPolicy
	// Hedge enables speculative reads against gray nodes (off when
	// zero; see core.HedgePolicy).
	Hedge core.HedgePolicy
	// ClientTweak, when set, may adjust each client config before use.
	ClientTweak func(*core.Config)
	// Obs optionally collects every client's metrics in one registry.
	Obs *obs.Registry
	// NodeStore optionally supplies each initial storage node's block
	// store (a blockstore.File, say). Nil, or a nil result, keeps that
	// node's blocks in a blockstore.Mem; replacements always start on
	// a fresh Mem.
	NodeStore func(phys int) blockstore.Store
}

// Cluster is an assembled in-process deployment.
type Cluster struct {
	Code    *erasure.Code
	Layout  stripe.Layout
	Dir     *directory.Service
	Clients []*core.Client

	opts Options

	mu    sync.Mutex
	nodes []*storage.Node // current raw node per physical index
	gen   []int           // replacement generation per physical index
}

// New builds a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.Clients == 0 {
		opts.Clients = 1
	}
	if opts.Mode == 0 {
		opts.Mode = resilience.Parallel
	}
	code, err := erasure.New(opts.K, opts.N)
	if err != nil {
		return nil, err
	}
	layout, err := stripe.NewLayout(opts.K, opts.N)
	if err != nil {
		return nil, err
	}

	c := &Cluster{
		Code:   code,
		Layout: layout,
		opts:   opts,
		nodes:  make([]*storage.Node, opts.N),
		gen:    make([]int, opts.N),
	}

	handles := make([]proto.StorageNode, opts.N)
	for i := 0; i < opts.N; i++ {
		var store blockstore.Store
		if opts.NodeStore != nil {
			store = opts.NodeStore(i)
		}
		node, err := storage.New(storage.Options{
			ID:        fmt.Sprintf("s%d", i),
			BlockSize: opts.BlockSize,
			Code:      code,
			LockLease: opts.LockLease,
			Store:     store,
		})
		if err != nil {
			return nil, err
		}
		c.nodes[i] = node
		handles[i] = c.wrap(i, node)
	}

	var replacer directory.Replacer
	if !opts.NoReplacements {
		replacer = c.replace
	}
	dir, err := directory.New(layout, handles, replacer)
	if err != nil {
		return nil, err
	}
	dir.Instrument(opts.Obs)
	c.Dir = dir

	for i := 0; i < opts.Clients; i++ {
		cfg := core.Config{
			ID:         proto.ClientID(i + 1),
			Code:       code,
			Resolver:   dir,
			BlockSize:  opts.BlockSize,
			Mode:       opts.Mode,
			TP:         opts.TP,
			Multicast:  opts.Multicast,
			RetryDelay: opts.RetryDelay,
			Retry:      opts.Retry,
			Hedge:      opts.Hedge,
			Obs:        opts.Obs,
		}
		if opts.ClientTweak != nil {
			opts.ClientTweak(&cfg)
		}
		cl, err := core.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		c.Clients = append(c.Clients, cl)
	}
	return c, nil
}

// MustNew is New for tests; it panics on error.
func MustNew(opts Options) *Cluster {
	c, err := New(opts)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Cluster) wrap(phys int, n proto.StorageNode) proto.StorageNode {
	if c.opts.WrapNode != nil {
		return c.opts.WrapNode(phys, n)
	}
	return n
}

// replace provisions a fresh INIT replacement node for a crashed
// physical index (directory.Replacer).
func (c *Cluster) replace(phys int) proto.StorageNode {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen[phys]++
	node := storage.MustNew(storage.Options{
		ID:          fmt.Sprintf("s%d.%d", phys, c.gen[phys]),
		BlockSize:   c.opts.BlockSize,
		Code:        c.Code,
		Replacement: true,
		LockLease:   c.opts.LockLease,
	})
	c.nodes[phys] = node
	return c.wrap(phys, node)
}

// Node returns the current raw storage node at a physical index.
func (c *Cluster) Node(phys int) *storage.Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[phys]
}

// CrashNode fail-stops the storage node at a physical index. Clients
// discover the crash on their next access, report it, and the
// directory remaps the index to a fresh INIT node (unless
// NoReplacements).
func (c *Cluster) CrashNode(phys int) {
	c.Node(phys).Crash()
}

// CrashNodeForStripeSlot crashes the node serving the given stripe
// slot and returns its physical index.
func (c *Cluster) CrashNodeForStripeSlot(stripeID uint64, slot int) int {
	phys := c.Layout.PhysicalNode(stripeID, slot)
	c.CrashNode(phys)
	return phys
}

// FailClient simulates a fail-stop client crash observed by an oracle
// failure detector: every storage node expires that client's locks
// (the paper's "upon failure of lid" rule).
func (c *Cluster) FailClient(id proto.ClientID) {
	c.mu.Lock()
	nodes := append([]*storage.Node(nil), c.nodes...)
	c.mu.Unlock()
	for _, n := range nodes {
		n.FailClient(id)
	}
}

// StripeBlocks reads the raw blocks of one stripe directly from the
// current storage nodes (bypassing the protocol), for test assertions.
// Slots on crashed or INIT nodes come back nil.
func (c *Cluster) StripeBlocks(stripeID uint64) [][]byte {
	out := make([][]byte, c.Layout.N())
	for slot := 0; slot < c.Layout.N(); slot++ {
		phys := c.Layout.PhysicalNode(stripeID, slot)
		node := c.Node(phys)
		st, err := node.GetState(noCtx, &proto.GetStateReq{Stripe: stripeID, Slot: int32(slot)})
		if err != nil || !st.BlockValid {
			continue
		}
		out[slot] = st.Block
	}
	return out
}

// VerifyStripe checks that a stripe's surviving blocks are internally
// consistent with the erasure code (all n present and matching).
func (c *Cluster) VerifyStripe(stripeID uint64) (bool, error) {
	blocks := c.StripeBlocks(stripeID)
	for _, b := range blocks {
		if b == nil {
			return false, fmt.Errorf("cluster: stripe %d has missing blocks", stripeID)
		}
	}
	return c.Code.Verify(blocks)
}

var noCtx = context.Background()
