// Command storaged runs one AJX storage node: a thin server exposing
// the protocol's operations (swap, add, read, locks, recovery,
// garbage collection) over TCP. Blocks live in memory, matching the
// paper's evaluation setup, or with -data-dir only on disk: the node
// then keeps just its per-slot protocol state (and the write-back's
// dirty blocks) in RAM.
//
// Usage:
//
//	storaged -addr :7000 -block-size 1024 -k 3 -n 5
//	storaged -addr :7001 -block-size 1024 -k 3 -n 5 -replacement
//	storaged -addr :7000 -block-size 1024 -metrics-addr :7070
//
// The -k/-n parameters let the node apply erasure-code coefficients
// itself when clients use the broadcast write optimization. Start a
// node with -replacement when it substitutes for a crashed one: its
// blocks begin in INIT mode and recovery repopulates them.
//
// With -metrics-addr set, the node serves GET /debug/metrics on that
// address: a JSON snapshot of per-operation request counts, error
// counts, latency histograms, byte totals, and (with -data-dir) block
// store counters.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"ecstore/internal/blockstore"
	"ecstore/internal/drainsig"
	"ecstore/internal/erasure"
	"ecstore/internal/obs"
	"ecstore/internal/rpc"
	"ecstore/internal/storage"
)

// config collects every knob of one storaged instance.
type config struct {
	addr         string
	blockSize    int
	k, n         int
	replacement  bool
	lease        time.Duration
	id           string
	dataDir      string
	writeBack    int
	trust        bool
	metricsAddr  string
	drainTimeout time.Duration
	nagle        bool
	sockReadBuf  int
	sockWriteBuf int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":7000", "listen address")
	flag.IntVar(&cfg.blockSize, "block-size", 1024, "block size in bytes")
	flag.IntVar(&cfg.k, "k", 0, "erasure code data blocks (enables broadcast adds)")
	flag.IntVar(&cfg.n, "n", 0, "erasure code total blocks (enables broadcast adds)")
	flag.BoolVar(&cfg.replacement, "replacement", false, "start as a replacement node (blocks in INIT mode)")
	flag.DurationVar(&cfg.lease, "lock-lease", 10*time.Second, "recovery-lock lease before expiry (0 disables)")
	flag.StringVar(&cfg.id, "id", "", "node identifier (defaults to the listen address)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "persist blocks in this directory (empty: RAM only, like the paper's evaluation)")
	flag.IntVar(&cfg.writeBack, "write-back", 64, "dirty blocks buffered before flushing to disk (0: write-through)")
	flag.BoolVar(&cfg.trust, "trust-data", false, "serve persisted blocks as valid after a restart (only when the node provably missed no writes)")
	flag.StringVar(&cfg.metricsAddr, "metrics-addr", "", "serve /debug/metrics JSON on this address (empty: metrics disabled)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 5*time.Second, "max wait for in-flight requests on SIGTERM before closing (0: close immediately)")
	flag.BoolVar(&cfg.nagle, "nagle", false, "re-enable Nagle's algorithm (default keeps TCP_NODELAY on)")
	flag.IntVar(&cfg.sockReadBuf, "sock-read-buffer", 0, "SO_RCVBUF per accepted connection in bytes (0: kernel default)")
	flag.IntVar(&cfg.sockWriteBuf, "sock-write-buffer", 0, "SO_SNDBUF per accepted connection in bytes (0: kernel default)")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "storaged:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	d, err := setup(cfg)
	if err != nil {
		return err
	}
	log.Printf("storaged %s listening on %s (block size %d, replacement=%v)", d.node.ID(), d.srv.Addr(), cfg.blockSize, cfg.replacement)
	if d.metricsLn != nil {
		log.Printf("storaged %s metrics on http://%s/debug/metrics", d.node.ID(), d.MetricsAddr())
	}

	if err := drainsig.Wait(cfg.drainTimeout, func(ctx context.Context) error {
		log.Printf("storaged %s draining (up to %v)", d.node.ID(), cfg.drainTimeout)
		return d.srv.Drain(ctx)
	}); err != nil {
		log.Printf("storaged %s drain: %v", d.node.ID(), err)
	}
	log.Printf("storaged %s shutting down", d.node.ID())
	return d.Close()
}

// daemon holds one running storaged instance: the RPC server, the
// storage node behind it, and (optionally) the metrics endpoint.
type daemon struct {
	srv  *rpc.Server
	node *storage.Node

	reg       *obs.Registry // nil when metrics are disabled
	metricsLn net.Listener  // nil when metrics are disabled
	metricsWg chan struct{}
}

// MetricsAddr returns the bound metrics listen address, or "" when
// metrics are disabled.
func (d *daemon) MetricsAddr() string {
	if d.metricsLn == nil {
		return ""
	}
	return d.metricsLn.Addr().String()
}

// Drain puts the RPC server into graceful-shutdown mode: new requests
// are refused with a typed ErrDraining (clients instantly retire the
// site and read degraded around it) while in-flight handlers get up to
// timeout to finish. A zero timeout skips the wait.
func (d *daemon) Drain(timeout time.Duration) error {
	ctx, cancel := drainsig.Context(timeout)
	defer cancel()
	return d.srv.Drain(ctx)
}

// Close stops serving and flushes the node's store.
func (d *daemon) Close() error {
	if d.metricsLn != nil {
		_ = d.metricsLn.Close()
		<-d.metricsWg
	}
	if err := d.srv.Close(); err != nil {
		return err
	}
	return d.node.Shutdown()
}

// setup builds the node and starts serving; main waits for a signal,
// tests drive the returned daemon directly.
func setup(cfg config) (*daemon, error) {
	d := &daemon{}
	if cfg.metricsAddr != "" {
		d.reg = obs.NewRegistry()
	}
	opts := storage.Options{
		ID:             cfg.id,
		BlockSize:      cfg.blockSize,
		Replacement:    cfg.replacement,
		LockLease:      cfg.lease,
		TrustPersisted: cfg.trust,
	}
	if opts.ID == "" {
		opts.ID = cfg.addr
	}
	if cfg.dataDir != "" {
		store, clean, err := blockstore.OpenFile(blockstore.FileOptions{
			Dir: cfg.dataDir, BlockSize: cfg.blockSize, WriteBackLimit: cfg.writeBack, Obs: d.reg,
		})
		if err != nil {
			return nil, err
		}
		if cfg.trust && !clean {
			log.Printf("storaged: WARNING: -trust-data set but the previous shutdown was unclean; serving blocks as valid anyway")
		}
		opts.Store = store
	}
	if cfg.k > 0 || cfg.n > 0 {
		code, err := erasure.New(cfg.k, cfg.n)
		if err != nil {
			return nil, err
		}
		opts.Code = code
	}
	node, err := storage.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return nil, err
	}
	d.node = node
	var rpcm *rpc.Metrics
	if d.reg != nil {
		rpcm = rpc.NewMetrics(d.reg, "rpc")
	}
	d.srv = rpc.Serve(ln, node,
		rpc.WithMetrics(rpcm),
		rpc.WithNoDelay(!cfg.nagle),
		rpc.WithSocketBuffers(cfg.sockReadBuf, cfg.sockWriteBuf),
	)

	if cfg.metricsAddr != "" {
		mln, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			_ = d.srv.Close()
			_ = node.Shutdown()
			return nil, err
		}
		d.metricsLn = mln
		d.metricsWg = make(chan struct{})
		mux := http.NewServeMux()
		mux.Handle("/debug/metrics", d.reg.Handler())
		go func() {
			defer close(d.metricsWg)
			_ = http.Serve(mln, mux)
		}()
	}
	return d, nil
}
