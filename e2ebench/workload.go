package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"syscall"
	"time"

	"ecstore/internal/gateway"
	"ecstore/internal/loadgen"
	"ecstore/internal/regcheck"
)

// config sizes the workloads. fullConfig is the benchmark; tests use a
// scaled-down copy.
type config struct {
	clients    int
	cacheBytes int64
	warmOps    int // minimum warm-up ops per client on block-rw and object-hot
	warmSpans  int // warm-up ops per client on bulk-seq

	blocks int // block-rw working set, blocks

	keys    int // object-hot keys
	payload int // object-hot payload bytes per object

	region int64 // bulk-seq bytes streamed per client
	span   int   // bulk-seq bytes per op
}

func fullConfig() config {
	return config{
		clients:    2,
		cacheBytes: 8 << 20,
		warmOps:    2048,
		warmSpans:  16,
		blocks:     16384, // 64 MiB, 8x the cache
		keys:       4096,  // 64 MiB of payload
		payload:    16 << 10,
		region:     48 << 20,  // 96 MiB over both clients, 12x the cache
		span:       768 << 10, // 64 stripes
	}
}

var workloadNames = []string{"block-rw", "object-hot", "bulk-seq"}

// errVerify marks a read that returned wrong bytes.
var errVerify = errors.New("verification failed")

type opKind uint8

const (
	kindRead opKind = iota
	kindWrite
)

// opResult is one completed op. lat times the calls into the system
// only; generating inputs and checking outputs are not part of it.
type opResult struct {
	kind  opKind
	bytes int
	lat   time.Duration
	err   error
}

// workload generates one workload's inputs from its clients' seeded
// generators, drives them against a stack, and checks every output.
type workload interface {
	// preload writes the initial working set.
	preload(ctx context.Context) error
	// op runs one closed-loop op for client c.
	op(ctx context.Context, c *client) opResult
	// warmOps is the minimum warm-up ops per client, and
	// stagesSmallWrites whether the workload's writes reach the
	// small-write tier (the warm-up then also waits for a segment-full
	// flush).
	warmOps() int
	stagesSmallWrites() bool
	// verify re-reads every block or object after a final Flush.
	verify(ctx context.Context) error
	// release frees the workload's shadow state.
	release()
}

// client is one closed-loop load generator goroutine's state.
type client struct {
	id   int
	rng  *rand.Rand
	buf  []byte // read buffer
	data []byte // write buffer
	tr   *tracer
}

func newClients(cfg config, seed uint64, bufBytes int) []*client {
	cs := make([]*client, cfg.clients)
	for i := range cs {
		cs[i] = &client{
			id:   i,
			rng:  rand.New(rand.NewPCG(seed, uint64(i)+1)),
			buf:  make([]byte, bufBytes),
			data: make([]byte, bufBytes),
		}
	}
	return cs
}

// root starts the op's request span when tracing. A nil client (set-up
// and final checks) traces nothing.
func (c *client) root(ctx context.Context, k opKind) (context.Context, openSpan) {
	if c == nil || c.tr == nil {
		return ctx, openSpan{}
	}
	return c.tr.root(ctx, uint8(k))
}

func (c *client) child(ctx context.Context, l layerID, op uint8) (context.Context, openSpan) {
	if c == nil || c.tr == nil {
		return ctx, openSpan{}
	}
	return c.tr.child(ctx, l, op)
}

// call times one call into the store under the op's request span.
func (c *client) call(ctx context.Context, k opKind, f func(context.Context) error) (time.Duration, error) {
	ctx, sp := c.root(ctx, k)
	t0 := time.Now()
	err := f(ctx)
	lat := time.Since(t0)
	sp.end()
	return lat, err
}

// fill writes pseudo-random bytes from rng into p.
func fill(rng *rand.Rand, p []byte) {
	i := 0
	for ; i+8 <= len(p); i += 8 {
		binary.LittleEndian.PutUint64(p[i:], rng.Uint64())
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], rng.Uint64())
		copy(p[i:], tail[:])
	}
}

// shadow is an off-heap copy of the bytes the benchmark wrote, so that
// peak_heap_MiB counts the system's heap and not the checker's.
type shadow struct {
	b       []byte
	unknown []bool // per unit: a failed write left the content undefined
	unit    int
}

func newShadow(size, unit int) (*shadow, error) {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map shadow: %w", err)
	}
	return &shadow{b: b, unknown: make([]bool, size/unit), unit: unit}, nil
}

func (s *shadow) release() { _ = syscall.Munmap(s.b) }

// check compares got with the shadow bytes at off, skipping units a
// failed write left undefined.
func (s *shadow) check(got []byte, off int64) error {
	for len(got) > 0 {
		u := int(off) / s.unit
		n := min(len(got), (u+1)*s.unit-int(off))
		if !s.unknown[u] && !bytes.Equal(got[:n], s.b[off:off+int64(n)]) {
			return fmt.Errorf("%w: bytes at offset %d differ from the last write", errVerify, off)
		}
		got, off = got[n:], off+int64(n)
	}
	return nil
}

// verifyAll reads the shadowed span back in large reads after a Flush.
func (s *shadow) verifyAll(ctx context.Context, b backend) error {
	if err := b.Flush(ctx); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	const chunk = 768 << 10
	buf := make([]byte, chunk)
	for off := 0; off < len(s.b); off += chunk {
		n := min(chunk, len(s.b)-off)
		if _, err := b.ReadAt(ctx, buf[:n], int64(off)); err != nil {
			return fmt.Errorf("read-back at %d: %w", off, err)
		}
		if err := s.check(buf[:n], int64(off)); err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
	}
	return nil
}

// each runs f(0) .. f(n-1) concurrently and returns the first error.
func each(n int, f func(i int) error) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) { errs <- f(i) }(i)
	}
	var first error
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// preloadSpans writes the shadow's content in stripe-aligned spans,
// split over the clients.
func (s *shadow) preloadSpans(ctx context.Context, b backend, parts int) error {
	const chunk = 768 << 10
	per := (len(s.b)/parts + chunk - 1) / chunk * chunk
	return each(parts, func(p int) error {
		for off := p * per; off < min((p+1)*per, len(s.b)); off += chunk {
			n := min(chunk, len(s.b)-off)
			if _, err := b.WriteAt(ctx, s.b[off:off+n], int64(off)); err != nil {
				return fmt.Errorf("preload at %d: %w", off, err)
			}
		}
		return nil
	})
}

// --- block-rw ----------------------------------------------------------------

// blockRW is uniform random block I/O on a working set eight times the
// cache. Client c owns the blocks with addr % clients == c, so its
// shadow is exact: every read must return the bytes it last wrote.
type blockRW struct {
	b   backend
	cfg config
	sh  *shadow
}

func newBlockRW(b backend, cfg config, seed uint64) (*blockRW, error) {
	sh, err := newShadow(cfg.blocks*blockSize, blockSize)
	if err != nil {
		return nil, err
	}
	fill(rand.New(rand.NewPCG(seed, 0)), sh.b)
	return &blockRW{b: b, cfg: cfg, sh: sh}, nil
}

func (w *blockRW) preload(ctx context.Context) error {
	return w.sh.preloadSpans(ctx, w.b, w.cfg.clients)
}

func (w *blockRW) warmOps() int            { return w.cfg.warmOps }
func (w *blockRW) stagesSmallWrites() bool { return true }
func (w *blockRW) release()                { w.sh.release() }

func (w *blockRW) op(ctx context.Context, c *client) opResult {
	blk := c.rng.IntN(w.cfg.blocks/w.cfg.clients)*w.cfg.clients + c.id
	base := int64(blk) * blockSize
	switch r := c.rng.IntN(100); {
	case r < 50: // 4 KiB aligned read
		p := c.buf[:blockSize]
		lat, err := c.call(ctx, kindRead, func(ctx context.Context) error {
			_, err := w.b.ReadAt(ctx, p, base)
			return err
		})
		if err == nil {
			err = w.sh.check(p, base)
		}
		return opResult{kindRead, blockSize, lat, err}
	case r < 90: // 512 B write inside one block
		off := base + int64(c.rng.IntN(blockSize-512+1))
		return w.write(ctx, c, c.data[:512], off, blk)
	default: // 4 KiB aligned write
		return w.write(ctx, c, c.data[:blockSize], base, blk)
	}
}

func (w *blockRW) write(ctx context.Context, c *client, p []byte, off int64, blk int) opResult {
	fill(c.rng, p)
	lat, err := c.call(ctx, kindWrite, func(ctx context.Context) error {
		_, err := w.b.WriteAt(ctx, p, off)
		return err
	})
	if err != nil {
		w.sh.unknown[blk] = true
	} else {
		copy(w.sh.b[off:], p)
		if len(p) == blockSize {
			w.sh.unknown[blk] = false
		}
	}
	return opResult{kindWrite, len(p), lat, err}
}

func (w *blockRW) verify(ctx context.Context) error { return w.sh.verifyAll(ctx, w.b) }

// --- object-hot --------------------------------------------------------------

const (
	tenant    = "bench"
	objHeader = 16 // write id, key index
)

// objectHot is the gateway object path under Zipf(0.99) key
// popularity. Every body carries a unique write id, so each key's Puts
// and Gets form an internal/regcheck register history.
type objectHot struct {
	gw    *gateway.Gateway
	b     backend
	cfg   config
	zipf  *loadgen.Zipf
	hist  []*regcheck.History
	seqs  []uint64 // per-client write sequence
	names []string
}

func newObjectHot(b backend, cfg config, gw *gateway.Gateway) (*objectHot, error) {
	z, err := loadgen.NewZipf(cfg.keys, 0.99)
	if err != nil {
		return nil, err
	}
	w := &objectHot{gw: gw, b: b, cfg: cfg, zipf: z, seqs: make([]uint64, cfg.clients)}
	for k := 0; k < cfg.keys; k++ {
		w.hist = append(w.hist, regcheck.New())
		w.names = append(w.names, fmt.Sprintf("k%06d", k))
	}
	return w, nil
}

func (w *objectHot) size() int { return objHeader + w.cfg.payload }

// body fills p with the object content for (key, write id).
func body(p []byte, key int, wid uint64) {
	binary.LittleEndian.PutUint64(p[0:], wid)
	binary.LittleEndian.PutUint64(p[8:], uint64(key))
	fill(rand.New(rand.NewPCG(wid, uint64(key))), p[objHeader:])
}

// put writes one version of key with write id wid, recording it in the
// key's history. A failed Put stays open: its value may or may not
// have taken effect.
func (w *objectHot) put(ctx context.Context, c *client, p []byte, key int, wid uint64, preload bool) (time.Duration, error) {
	body(p, key, wid)
	tok := w.hist[key].BeginWrite(wid)
	ctx, sp := c.root(ctx, kindWrite)
	ctx, gsp := c.child(ctx, layerGateway, opWrite)
	t0 := time.Now()
	var err error
	if preload {
		err = w.gw.Preload(ctx, tenant, w.names[key], bytes.NewReader(p), int64(len(p)))
	} else {
		err = w.gw.Put(ctx, tenant, w.names[key], bytes.NewReader(p), int64(len(p)))
	}
	lat := time.Since(t0)
	gsp.end()
	sp.end()
	if err == nil {
		w.hist[key].EndWrite(tok)
	}
	return lat, err
}

// get reads key whole into p and checks the body against the content
// its write id names (regenerated into want), recording the read in the
// key's history.
func (w *objectHot) get(ctx context.Context, c *client, p, want []byte, key int) (time.Duration, error) {
	tok := w.hist[key].BeginRead()
	ctx, sp := c.root(ctx, kindRead)
	ctx, gsp := c.child(ctx, layerGateway, opRead)
	t0 := time.Now()
	err := w.fetch(ctx, p, key)
	lat := time.Since(t0)
	gsp.end()
	sp.end()
	if err != nil {
		return lat, err
	}
	wid := binary.LittleEndian.Uint64(p[0:])
	body(want, key, wid)
	if !bytes.Equal(p, want) {
		return lat, fmt.Errorf("%w: object %s body does not match write %d", errVerify, w.names[key], wid)
	}
	w.hist[key].EndRead(tok, wid)
	return lat, nil
}

// fetch is one gateway Get with its body drained and closed.
func (w *objectHot) fetch(ctx context.Context, p []byte, key int) error {
	rc, info, err := w.gw.Get(ctx, tenant, w.names[key])
	if err != nil {
		return err
	}
	n, err := io.ReadFull(rc, p)
	if err == nil {
		var one [1]byte
		if m, _ := rc.Read(one[:]); m != 0 {
			err = fmt.Errorf("%w: object %s longer than %d bytes", errVerify, w.names[key], len(p))
		}
	}
	_ = rc.Close()
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
		err = fmt.Errorf("%w: object %s is %d bytes (info %d), want %d", errVerify, w.names[key], n, info.Size, len(p))
	}
	return err
}

func (w *objectHot) preload(ctx context.Context) error {
	parts := w.cfg.clients
	return each(parts, func(c int) error {
		p := make([]byte, w.size())
		for k := c; k < w.cfg.keys; k += parts {
			// Preload write ids are 1..keys; client ids start above.
			if _, err := w.put(ctx, nil, p, k, uint64(k)+1, true); err != nil {
				return fmt.Errorf("preload %s: %w", w.names[k], err)
			}
		}
		return nil
	})
}

func (w *objectHot) warmOps() int            { return w.cfg.warmOps }
func (w *objectHot) stagesSmallWrites() bool { return true }
func (w *objectHot) release()                {}

func (w *objectHot) op(ctx context.Context, c *client) opResult {
	key := w.zipf.Sample(c.rng.Float64())
	p := c.buf[:w.size()]
	if c.rng.IntN(100) < 70 {
		lat, err := w.get(ctx, c, p, c.data[:len(p)], key)
		return opResult{kindRead, w.cfg.payload, lat, err}
	}
	w.seqs[c.id]++
	wid := uint64(c.id+1)<<40 | w.seqs[c.id]
	lat, err := w.put(ctx, c, p, key, wid, false)
	return opResult{kindWrite, w.cfg.payload, lat, err}
}

// verify flushes, reads every object once more, and checks every key's
// history for regular-register semantics.
func (w *objectHot) verify(ctx context.Context) error {
	if err := w.b.Flush(ctx); err != nil {
		return fmt.Errorf("final flush: %w", err)
	}
	p, want := make([]byte, w.size()), make([]byte, w.size())
	for k := range w.hist {
		if _, err := w.get(ctx, nil, p, want, k); err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
	}
	for k, h := range w.hist {
		if err := h.Check(); err != nil {
			return fmt.Errorf("%w: object %s: %v", errVerify, w.names[k], err)
		}
	}
	return nil
}

// --- bulk-seq ----------------------------------------------------------------

// bulkSeq streams stripe-aligned spans: each client alternates a write
// of the next span of its own region with a read of an earlier one.
type bulkSeq struct {
	b      backend
	cfg    config
	sh     *shadow
	cursor []int // next span to write, per client
	step   []int
}

func newBulkSeq(b backend, cfg config, seed uint64) (*bulkSeq, error) {
	sh, err := newShadow(int(cfg.region)*cfg.clients, cfg.span)
	if err != nil {
		return nil, err
	}
	fill(rand.New(rand.NewPCG(seed, 0)), sh.b)
	return &bulkSeq{b: b, cfg: cfg, sh: sh, cursor: make([]int, cfg.clients), step: make([]int, cfg.clients)}, nil
}

func (w *bulkSeq) preload(ctx context.Context) error {
	return w.sh.preloadSpans(ctx, w.b, w.cfg.clients)
}

func (w *bulkSeq) warmOps() int            { return w.cfg.warmSpans }
func (w *bulkSeq) stagesSmallWrites() bool { return false }
func (w *bulkSeq) release()                { w.sh.release() }

func (w *bulkSeq) op(ctx context.Context, c *client) opResult {
	spans := int(w.cfg.region) / w.cfg.span
	w.step[c.id]++
	if w.step[c.id]%2 == 1 {
		i := w.cursor[c.id]
		w.cursor[c.id] = (i + 1) % spans
		off := w.cfg.region*int64(c.id) + int64(i*w.cfg.span)
		p := w.sh.b[off : off+int64(w.cfg.span)]
		fill(c.rng, p)
		lat, err := c.call(ctx, kindWrite, func(ctx context.Context) error {
			_, err := w.b.WriteAt(ctx, p, off)
			return err
		})
		w.sh.unknown[off/int64(w.cfg.span)] = err != nil
		return opResult{kindWrite, w.cfg.span, lat, err}
	}
	// An earlier span: 1..spans-1 behind the write cursor.
	i := (w.cursor[c.id] - 1 - c.rng.IntN(spans-1) + 2*spans) % spans
	off := w.cfg.region*int64(c.id) + int64(i*w.cfg.span)
	p := c.buf[:w.cfg.span]
	lat, err := c.call(ctx, kindRead, func(ctx context.Context) error {
		_, err := w.b.ReadAt(ctx, p, off)
		return err
	})
	if err == nil {
		err = w.sh.check(p, off)
	}
	return opResult{kindRead, w.cfg.span, lat, err}
}

func (w *bulkSeq) verify(ctx context.Context) error { return w.sh.verifyAll(ctx, w.b) }

// newWorkload builds the named workload over a connected stack.
func newWorkload(name string, st *stack, cfg config, seed uint64) (workload, int, error) {
	switch name {
	case "block-rw":
		w, err := newBlockRW(st.store, cfg, seed)
		return w, blockSize, err
	case "object-hot":
		gw := gateway.New(st.store, gateway.Options{
			Stripe:     codeK,
			SmallWrite: true,
			Obs:        st.reg,
		})
		w, err := newObjectHot(st.store, cfg, gw)
		return w, objHeader + cfg.payload, err
	case "bulk-seq":
		w, err := newBulkSeq(st.store, cfg, seed)
		return w, cfg.span, err
	}
	return nil, 0, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}
