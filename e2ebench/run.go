package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// warmLimit bounds a warm-up that never meets its conditions.
const warmLimit = 60 * time.Second

// sample is one op of a timed window.
type sample struct {
	at    time.Duration // completion, since the window started
	ms    float64       // latency; a failed op is +Inf
	read  bool
	bytes int
}

// window is what the clients measured in one closed-loop window.
type window struct {
	samples  []sample
	flushOps []float64 // ms; ops during which smallwrite.flushes advanced
	failed   int
	elapsed  time.Duration
}

func (w *window) ops() int { return len(w.samples) }

// drive runs every client in a closed loop until stop reports true for
// it. A verification failure stops every client and is returned.
func drive(ctx context.Context, st *stack, wl workload, clients []*client, stop func(c *client, n int) bool) (*window, error) {
	var (
		mu     sync.Mutex
		out    window
		failed atomic.Bool
		vErr   error
		wg     sync.WaitGroup
	)
	flushes := func() uint64 { return st.stats.TierStats().Flushes.Load() }
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var w window
			for n := 0; !failed.Load() && !stop(c, n); n++ {
				f0 := flushes()
				res := wl.op(ctx, c)
				smp := sample{at: time.Since(start), ms: float64(res.lat) / 1e6, read: res.kind == kindRead}
				if res.err != nil {
					if errors.Is(res.err, errVerify) {
						mu.Lock()
						if vErr == nil {
							vErr = res.err
						}
						mu.Unlock()
						failed.Store(true)
						return
					}
					w.failed++
					smp.ms = math.Inf(1)
				} else {
					smp.bytes = res.bytes
				}
				w.samples = append(w.samples, smp)
				if flushes() != f0 {
					w.flushOps = append(w.flushOps, smp.ms)
				}
			}
			mu.Lock()
			out.samples = append(out.samples, w.samples...)
			out.flushOps = append(out.flushOps, w.flushOps...)
			out.failed += w.failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	out.elapsed = time.Since(start)
	return &out, vErr
}

// setup builds a stack under dir, preloads the workload and warms it
// up: the cache fills, and where writes are staged, at least one
// segment-full small-write flush completes.
func setup(ctx context.Context, dir, name string, cfg config, seed uint64, tr *tracer) (*stack, workload, []*client, error) {
	st, err := newStack(dir, cfg.cacheBytes, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	wl, bufBytes, err := newWorkload(name, st, cfg, seed)
	if err != nil {
		_ = st.close()
		return nil, nil, nil, err
	}
	fail := func(err error) (*stack, workload, []*client, error) {
		wl.release()
		_ = st.close()
		return nil, nil, nil, err
	}
	if err := wl.preload(ctx); err != nil {
		return fail(err)
	}
	clients := newClients(cfg, seed, bufBytes)
	full0 := st.stats.TierStats().SegmentFullFlush.Load()
	deadline := time.Now().Add(warmLimit)
	stop := func(c *client, n int) bool {
		if time.Now().After(deadline) {
			return true
		}
		if n < wl.warmOps() {
			return false
		}
		return !wl.stagesSmallWrites() || st.stats.TierStats().SegmentFullFlush.Load() > full0
	}
	w, err := drive(ctx, st, wl, clients, stop)
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	if w.failed > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d ops failed", w.failed, w.ops()))
	}
	if time.Now().After(deadline) {
		return fail(fmt.Errorf("warm-up did not complete within %v", warmLimit))
	}
	for _, c := range clients {
		c.tr = tr
	}
	return st, wl, clients, nil
}

// timed runs the closed-loop window for d.
func timed(ctx context.Context, st *stack, wl workload, clients []*client, d time.Duration) (*window, error) {
	end := time.Now().Add(d)
	return drive(ctx, st, wl, clients, func(*client, int) bool { return time.Now().After(end) })
}

// finish verifies the final state and tears the stack down.
func finish(ctx context.Context, st *stack, wl workload) error {
	err := wl.verify(ctx)
	wl.release()
	return errors.Join(err, st.close())
}

// sampler tracks the peak Go heap in use while it runs, and the
// traced assembly's in-flight RPCs.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
	// pending, when set, counts in-flight calls.
	pending func() int
	pendSum float64
	pendN   int
}

func startSampler(pending func() int) *sampler {
	h := &sampler{stop: make(chan struct{}), done: make(chan struct{}), pending: pending}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			if h.pending != nil {
				h.pendSum += float64(h.pending())
				h.pendN++
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and waits for it.
func (h *sampler) end() {
	close(h.stop)
	<-h.done
}

// runDir makes a fresh per-stack data directory under work.
func runDir(work string, i int) string {
	return filepath.Join(work, fmt.Sprintf("run-%d-%d", os.Getpid(), i))
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
