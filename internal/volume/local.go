package volume

import (
	"fmt"
	"sync"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/erasure"
	"ecstore/internal/health"
	"ecstore/internal/obs"
	"ecstore/internal/placement"
	"ecstore/internal/proto"
	"ecstore/internal/resilience"
	"ecstore/internal/storage"
)

// LocalOptions configures an in-process sharded volume.
type LocalOptions struct {
	// K, N, BlockSize as in Options. Required.
	K, N, BlockSize int
	// Groups is the stripe-group count. Required.
	Groups int
	// Sites is the physical pool size. Defaults to N; must be >= N.
	Sites int
	// SiteWeights optionally assigns per-site placement weights
	// (len must equal Sites; zero entries mean weight 1).
	SiteWeights []float64
	// BlocksPerGroup, MaxInFlight, ReadAhead, Mode, TP, ClientID,
	// Multicast, RetryDelay, Retry, Obs as in Options.
	BlocksPerGroup uint64
	MaxInFlight    int
	ReadAhead      int
	Mode           resilience.UpdateMode
	TP             int
	ClientID       proto.ClientID
	Multicast      proto.Multicaster
	// Aggregate enables bandwidth-frugal recovery (see Options).
	Aggregate  proto.Aggregator
	RetryDelay time.Duration
	Retry      core.RetryPolicy
	// Hedge, Health enable tail-tolerant reads and per-site health
	// tracking (see Options).
	Hedge  core.HedgePolicy
	Health *health.Tracker
	// OnDamage is the repair scheduler's fast-path damage feed (see
	// Options.OnDamage).
	OnDamage func(group uint64)
	// LockLease configures lease-based lock expiry on every shard.
	LockLease time.Duration
	Obs       *obs.Registry
	// WrapShard optionally wraps every shard handle the volume opens
	// (latency models, fault injection, counting). It sees the site and
	// group the shard serves.
	WrapShard func(site placement.Node, group uint64, n proto.StorageNode) proto.StorageNode
}

// Local is a Volume over an in-process site pool. Each site hosts one
// independent storage.Node shard per stripe group placed on it, so a
// site crash takes down exactly the groups it serves and nothing else.
type Local struct {
	*Volume
	pool *placement.Pool

	mu    sync.Mutex
	sites map[string]*localSite
	gen   map[string]int // replacement generation per site, for shard IDs

	code  *erasure.Code
	lopts LocalOptions
}

// localSite is one physical host: a set of per-group shards that
// crash together.
type localSite struct {
	mu      sync.Mutex
	crashed bool
	shards  map[uint64]*storage.Node
}

// NewLocal builds an in-process sharded volume with Sites hosts named
// "site-0".."site-<S-1>".
func NewLocal(opts LocalOptions) (*Local, error) {
	if opts.Sites == 0 {
		opts.Sites = opts.N
	}
	if opts.Sites < opts.N {
		return nil, fmt.Errorf("volume: %d sites cannot host %d-node groups", opts.Sites, opts.N)
	}
	if opts.SiteWeights != nil && len(opts.SiteWeights) != opts.Sites {
		return nil, fmt.Errorf("volume: %d weights for %d sites", len(opts.SiteWeights), opts.Sites)
	}
	members := make([]placement.Node, opts.Sites)
	for i := range members {
		members[i] = placement.Node{ID: fmt.Sprintf("site-%d", i)}
		if opts.SiteWeights != nil {
			members[i].Weight = opts.SiteWeights[i]
		}
	}
	pool, err := placement.NewPool(members...)
	if err != nil {
		return nil, err
	}
	code, err := erasure.New(opts.K, opts.N)
	if err != nil {
		return nil, err
	}
	l := &Local{
		pool:  pool,
		sites: make(map[string]*localSite),
		gen:   make(map[string]int),
		code:  code,
		lopts: opts,
	}
	v, err := New(Options{
		K: opts.K, N: opts.N, BlockSize: opts.BlockSize,
		Groups:         opts.Groups,
		BlocksPerGroup: opts.BlocksPerGroup,
		MaxInFlight:    opts.MaxInFlight,
		ReadAhead:      opts.ReadAhead,
		Pool:           pool,
		OpenShard:      l.openShard,
		ClientID:       opts.ClientID,
		Mode:           opts.Mode,
		TP:             opts.TP,
		Multicast:      opts.Multicast,
		Aggregate:      opts.Aggregate,
		RetryDelay:     opts.RetryDelay,
		Retry:          opts.Retry,
		Hedge:          opts.Hedge,
		Health:         opts.Health,
		OnDamage:       opts.OnDamage,
		Obs:            opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	l.Volume = v
	return l, nil
}

// Pool exposes the placement pool (admin add/remove, epoch).
func (l *Local) Pool() *placement.Pool { return l.pool }

func (l *Local) site(id string) *localSite {
	l.mu.Lock()
	defer l.mu.Unlock()
	s, ok := l.sites[id]
	if !ok {
		s = &localSite{shards: make(map[uint64]*storage.Node)}
		l.sites[id] = s
	}
	return s
}

// openShard implements Options.OpenShard over in-memory nodes. A
// replacement request always provisions a fresh INIT shard; reopening
// an existing (site, group) pairing returns the live shard.
func (l *Local) openShard(site placement.Node, group uint64, replacement bool) (proto.StorageNode, error) {
	s := l.site(site.ID)
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh, ok := s.shards[group]; ok && !replacement {
		return l.wrapShard(site, group, sh), nil
	}
	l.mu.Lock()
	l.gen[site.ID]++
	gen := l.gen[site.ID]
	l.mu.Unlock()
	node, err := storage.New(storage.Options{
		ID:          fmt.Sprintf("%s/g%d.%d", site.ID, group, gen),
		BlockSize:   l.lopts.BlockSize,
		Code:        l.code,
		Replacement: replacement,
		LockLease:   l.lopts.LockLease,
	})
	if err != nil {
		return nil, err
	}
	if s.crashed {
		node.Crash()
	}
	s.shards[group] = node
	return l.wrapShard(site, group, node), nil
}

// wrapShard applies the configured WrapShard hook, if any.
func (l *Local) wrapShard(site placement.Node, group uint64, n proto.StorageNode) proto.StorageNode {
	if l.lopts.WrapShard == nil {
		return n
	}
	return l.lopts.WrapShard(site, group, n)
}

// CrashSite fail-stops every shard on a site. Groups placed on it
// discover the crash on their next access, report it, and the volume
// retires the site and remaps only those groups' affected slots.
func (l *Local) CrashSite(id string) {
	s := l.site(id)
	s.mu.Lock()
	s.crashed = true
	shards := make([]*storage.Node, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.Unlock()
	for _, sh := range shards {
		sh.Crash()
	}
}

// AddSite grows the pool (epoch bump); groups lazily rebalance onto
// the new site on their next access.
func (l *Local) AddSite(id string, weight float64) error {
	return l.pool.Add(placement.Node{ID: id, Weight: weight})
}

// RemoveSite drains a live site administratively (epoch bump). Groups
// using it remap to INIT shards elsewhere and recovery rebuilds the
// moved slots from surviving ones.
func (l *Local) RemoveSite(id string) error {
	return l.pool.Remove(id)
}

// SiteShard returns the current shard a site holds for a group, or
// nil (test inspection).
func (l *Local) SiteShard(id string, group uint64) *storage.Node {
	l.mu.Lock()
	s, ok := l.sites[id]
	l.mu.Unlock()
	if !ok {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[group]
}

// Close shuts down every shard.
func (l *Local) Close() error {
	l.mu.Lock()
	sites := make([]*localSite, 0, len(l.sites))
	for _, s := range l.sites {
		sites = append(sites, s)
	}
	l.mu.Unlock()
	var first error
	for _, s := range sites {
		s.mu.Lock()
		for _, sh := range s.shards {
			if err := sh.Shutdown(); err != nil && first == nil {
				first = err
			}
		}
		s.mu.Unlock()
	}
	return first
}
