// Package experiments regenerates every table and figure of the
// paper's evaluation (Section 6): the Fig. 1 cost comparison, the
// Fig. 8 erasure-code microbenchmarks and resiliency table, the
// Fig. 9 measured-system throughput/latency/crash experiments (run on
// the real protocol over the shaped transport), and the Fig. 10
// large-system simulations.
//
// Each experiment returns a Table whose rows mirror the series the
// paper plots; cmd/experiments prints them and EXPERIMENTS.md records
// a captured run against the paper's numbers.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"ecstore/internal/core"
	"ecstore/internal/directory"
	"ecstore/internal/erasure"
	"ecstore/internal/obs"
	"ecstore/internal/proto"
	"ecstore/internal/resilience"
	"ecstore/internal/storage"
	"ecstore/internal/stripe"
	"ecstore/internal/transport"
)

// Table is a printable experiment result.
type Table struct {
	ID     string // e.g. "fig9a"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// cell formats helpers.
func fcell(v float64) string { return fmt.Sprintf("%.2f", v) }
func icell(v int) string     { return fmt.Sprintf("%d", v) }

// --- observability ----------------------------------------------------------

var (
	obsMu  sync.Mutex
	obsReg *obs.Registry
)

// SetObsRegistry points every subsequently built experiment cluster
// (shaped or plain) at reg, so cmd/experiments can emit a metrics
// snapshot alongside each figure. Nil (the default) disables
// instrumentation.
func SetObsRegistry(reg *obs.Registry) {
	obsMu.Lock()
	obsReg = reg
	obsMu.Unlock()
}

// ObsRegistry returns the registry installed by SetObsRegistry, or nil.
func ObsRegistry() *obs.Registry {
	obsMu.Lock()
	defer obsMu.Unlock()
	return obsReg
}

// --- shaped cluster ---------------------------------------------------------

// ShapedCluster is a full in-process deployment of the real protocol
// under the network model: every client has its own NIC (Host) and its
// own directory of shaped node handles, while the raw storage nodes
// and their NICs are shared. This is the paper's 8-host testbed on one
// machine.
type ShapedCluster struct {
	Code    *erasure.Code
	Layout  stripe.Layout
	Clients []*core.Client

	BlockSize int
	// Scale is the applied time dilation: bandwidths were divided and
	// latencies multiplied by it, so measured throughput times Scale
	// is the testbed-equivalent figure. Scaling keeps intrinsic
	// operation times far above the OS timer granularity, which is
	// what makes the curves reproducible on one machine.
	Scale float64

	shape       transport.ShapeConfig
	clientHosts []*transport.Host
	serverHosts []*transport.Host

	mu    sync.Mutex
	nodes []*storage.Node
	gen   []int
}

// ShapedOptions configures a shaped cluster.
type ShapedOptions struct {
	K, N      int
	BlockSize int
	Clients   int
	Mode      resilience.UpdateMode
	TP        int
	// BytesPerSec is the per-NIC bandwidth (default: the paper's
	// 500 Mbit/s).
	BytesPerSec float64
	// Shape is the latency/service model (default: DefaultShape).
	Shape *transport.ShapeConfig
	// Broadcast equips clients with a shaped multicaster.
	Broadcast bool
	// TimeScale dilates the network model (default 16): bandwidth is
	// divided and latency multiplied by it. Throughput results are
	// reported back in testbed-equivalent units via Scale.
	TimeScale float64
}

// NewShapedCluster assembles the deployment.
func NewShapedCluster(opts ShapedOptions) (*ShapedCluster, error) {
	if opts.BytesPerSec == 0 {
		opts.BytesPerSec = transport.DefaultBytesPerSec
	}
	if opts.TimeScale == 0 {
		opts.TimeScale = 16
	}
	shape := transport.DefaultShape()
	if opts.Shape != nil {
		shape = *opts.Shape
	}
	opts.BytesPerSec /= opts.TimeScale
	shape.Latency = time.Duration(float64(shape.Latency) * opts.TimeScale)
	shape.ServerTime = time.Duration(float64(shape.ServerTime) * opts.TimeScale)
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
	reg := ObsRegistry()
	sc := &ShapedCluster{
		Code:      code,
		Layout:    layout,
		BlockSize: opts.BlockSize,
		Scale:     opts.TimeScale,
		shape:     shape,
		nodes:     make([]*storage.Node, opts.N),
		gen:       make([]int, opts.N),
	}
	for i := 0; i < opts.N; i++ {
		sc.nodes[i] = storage.MustNew(storage.Options{
			ID:        fmt.Sprintf("s%d", i),
			BlockSize: opts.BlockSize,
			Code:      code,
		})
		host := transport.NewHost(fmt.Sprintf("s%d", i), opts.BytesPerSec)
		host.PublishTo(reg)
		sc.serverHosts = append(sc.serverHosts, host)
	}
	for c := 0; c < opts.Clients; c++ {
		clientHost := transport.NewHost(fmt.Sprintf("c%d", c), opts.BytesPerSec)
		clientHost.PublishTo(reg)
		sc.clientHosts = append(sc.clientHosts, clientHost)
		handles := make([]proto.StorageNode, opts.N)
		for i := 0; i < opts.N; i++ {
			handles[i] = transport.NewShaped(sc.nodes[i], clientHost, sc.serverHosts[i], shape)
		}
		dir, err := directory.New(layout, handles, sc.replacerFor(clientHost))
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			ID:        proto.ClientID(c + 1),
			Code:      code,
			Resolver:  dir,
			BlockSize: opts.BlockSize,
			Mode:      opts.Mode,
			TP:        opts.TP,
			Obs:       reg,
		}
		if opts.Broadcast {
			cfg.Multicast = transport.NewShapedMulticaster(clientHost, shape)
		}
		cl, err := core.NewClient(cfg)
		if err != nil {
			return nil, err
		}
		sc.Clients = append(sc.Clients, cl)
	}
	return sc, nil
}

// replacerFor builds a per-client directory replacer that shares raw
// replacement nodes across clients: the first failure report creates
// the replacement; later reports (from any client) wrap the same node
// for their own NIC.
func (sc *ShapedCluster) replacerFor(clientHost *transport.Host) directory.Replacer {
	return func(phys int) proto.StorageNode {
		raw := sc.replacementNode(phys)
		return transport.NewShaped(raw, clientHost, sc.serverHosts[phys], sc.shape)
	}
}

func (sc *ShapedCluster) replacementNode(phys int) *storage.Node {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if !sc.nodes[phys].Crashed() {
		return sc.nodes[phys] // already replaced by another client
	}
	sc.gen[phys]++
	sc.nodes[phys] = storage.MustNew(storage.Options{
		ID:          fmt.Sprintf("s%d.%d", phys, sc.gen[phys]),
		BlockSize:   sc.BlockSize,
		Code:        sc.Code,
		Replacement: true,
	})
	return sc.nodes[phys]
}

// CrashNode fail-stops a physical node.
func (sc *ShapedCluster) CrashNode(phys int) {
	sc.mu.Lock()
	n := sc.nodes[phys]
	sc.mu.Unlock()
	n.Crash()
}

// --- closed-loop load generator ---------------------------------------------

// LoadResult aggregates a timed run.
type LoadResult struct {
	Ops     int
	Bytes   int64
	Elapsed time.Duration
	Errs    int
}

// MBps returns payload megabytes per second.
func (r LoadResult) MBps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Bytes) / 1e6 / r.Elapsed.Seconds()
}

// RunLoad drives every client with `outstanding` goroutines issuing
// ops until warmup+duration elapses, counting only operations that
// complete after the warmup (so pipeline fill does not skew short
// windows). In-flight operations are allowed to FINISH past the
// deadline rather than being cancelled: an aborted write is
// indistinguishable from a client crash to the protocol, and a load
// generator that "crashes" dozens of clients per window would blow any
// t_p budget. op returns the payload bytes moved (0 on failure).
func RunLoad(ctx context.Context, clients []*core.Client, outstanding int, warmup, duration time.Duration, op func(ctx context.Context, cl *core.Client, worker int) (int, error)) LoadResult {
	var (
		mu  sync.Mutex
		res LoadResult
	)
	start := time.Now()
	measureFrom := start.Add(warmup)
	deadline := measureFrom.Add(duration)
	var wg sync.WaitGroup
	for ci, cl := range clients {
		for w := 0; w < outstanding; w++ {
			wg.Add(1)
			go func(cl *core.Client, worker int) {
				defer wg.Done()
				for ctx.Err() == nil && time.Now().Before(deadline) {
					n, err := op(ctx, cl, worker)
					if time.Now().Before(measureFrom) {
						continue
					}
					mu.Lock()
					if err != nil {
						res.Errs++
					} else {
						res.Ops++
						res.Bytes += int64(n)
					}
					mu.Unlock()
				}
			}(cl, ci*outstanding+w)
		}
	}
	wg.Wait()
	res.Elapsed = time.Since(start) - warmup
	return res
}

// RawNode returns the current raw storage node at a physical index
// (test and diagnostic use).
func (sc *ShapedCluster) RawNode(phys int) *storage.Node {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.nodes[phys]
}

// ClientHost exposes a client's NIC host (diagnostics).
func (sc *ShapedCluster) ClientHost(i int) *transport.Host { return sc.clientHosts[i] }
