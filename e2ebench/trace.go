package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// layerID names the seam a span was recorded at.
type layerID uint8

const (
	layerOp         layerID = iota // one benchmark op (the request root)
	layerGateway                   // gateway.Gateway Put / Get+drain+Close
	layerTier                      // calls into tier.Layer
	layerVolume                    // tier.Stamped calls into the volume
	layerRPC                       // client-side shard calls (rpc.Client)
	layerStorage                   // server-side calls into storage.Node
	layerBlockstore                // block store calls under a node
	nLayers
)

var layerNames = [nLayers]string{"op", "gateway", "tier", "volume", "rpc", "storage", "blockstore"}

// span is one timed call. Times are nanoseconds since the tracer's
// epoch. Server-side spans carry no request or parent: no trace id
// crosses the RPC hop.
type span struct {
	id, parent, req uint64
	start, end      int64
	layer           layerID
	op              uint8
	site            int8
}

// tracer keeps spans in memory while enabled; they are analysed and
// written out after the run.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

type traceKey struct{}

// traceCtx is the trace state a context carries: the request id and
// the id of the innermost open span.
type traceCtx struct{ req, span uint64 }

// openSpan is a started span; end records it. The zero value (tracer
// disabled) records nothing.
type openSpan struct {
	tr *tracer
	s  span
}

// leaf starts a span whose callees are not traced through ctx.
func (t *tracer) leaf(ctx context.Context, l layerID, op uint8, site int) openSpan {
	if !t.on.Load() {
		return openSpan{}
	}
	tc, _ := ctx.Value(traceKey{}).(traceCtx)
	return openSpan{tr: t, s: span{
		id: t.nextID.Add(1), parent: tc.span, req: tc.req,
		start: int64(time.Since(t.epoch)), layer: l, op: op, site: int8(site),
	}}
}

// child starts a span and returns the context its callees inherit.
func (t *tracer) child(ctx context.Context, l layerID, op uint8) (context.Context, openSpan) {
	sp := t.leaf(ctx, l, op, -1)
	if sp.tr == nil {
		return ctx, sp
	}
	return context.WithValue(ctx, traceKey{}, traceCtx{req: sp.s.req, span: sp.s.id}), sp
}

// root starts a request: a new request id and its op span.
func (t *tracer) root(ctx context.Context, op uint8) (context.Context, openSpan) {
	if !t.on.Load() {
		return ctx, openSpan{}
	}
	req := t.nextID.Add(1)
	return t.child(context.WithValue(ctx, traceKey{}, traceCtx{req: req}), layerOp, op)
}

func (s openSpan) end() {
	if s.tr == nil {
		return
	}
	s.s.end = int64(time.Since(s.tr.epoch))
	s.tr.mu.Lock()
	s.tr.spans = append(s.tr.spans, s.s)
	s.tr.mu.Unlock()
}

func (t *tracer) enable() {
	t.mu.Lock()
	t.spans = make([]span, 0, 1<<20)
	t.mu.Unlock()
	t.on.Store(true)
}

// disable stops recording and returns the spans recorded.
func (t *tracer) disable() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// writeSpans writes spans as CSV, one per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(w, "id,parent,req,layer,op,site,start_ns,end_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%s,%d,%d,%d\n", s.id, s.parent, s.req, layerNames[s.layer], opName(s.layer, s.op), s.site, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// agg accumulates the spans of one (layer, op).
type agg struct {
	n          int
	dur, self  float64 // ns
	childCalls int     // direct child spans
}

// ledger is the per-(layer, op) summary of a traced run.
type ledger struct {
	by [nLayers][nShardOps]agg
	// childrenOf[p][c] counts layer-c spans whose parent is a layer-p span.
	childrenOf [nLayers][nLayers]int
}

func (lg *ledger) layer(l layerID) agg {
	var t agg
	for _, a := range lg.by[l] {
		t.n += a.n
		t.dur += a.dur
		t.self += a.self
	}
	return t
}

// analyse computes every span's self time — its duration minus the
// union of its children's intervals — and sums per (layer, op).
// Client-side children are linked by parent id. Server-side spans have
// no ids to link, so a block store span is charged to the storage
// spans of the same node whose interval contains it, split equally
// when several do (storage.Node serializes its handlers on one mutex,
// so only one of them actually made the call).
func analyse(spans []span) *ledger {
	idx := make(map[uint64]int, len(spans))
	for i, s := range spans {
		idx[s.id] = i
	}
	type iv struct {
		parent     int
		start, end int64
	}
	var kids []iv
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = float64(s.end - s.start)
		if s.parent == 0 {
			continue
		}
		if p, ok := idx[s.parent]; ok {
			kids = append(kids, iv{p, s.start, s.end})
		}
	}
	sort.Slice(kids, func(a, b int) bool {
		if kids[a].parent != kids[b].parent {
			return kids[a].parent < kids[b].parent
		}
		return kids[a].start < kids[b].start
	})
	lg := &ledger{}
	for i := 0; i < len(kids); {
		j := i
		p := spans[kids[i].parent]
		var covered, curS, curE int64 = 0, -1, -1
		for ; j < len(kids) && kids[j].parent == kids[i].parent; j++ {
			s, e := max(kids[j].start, p.start), min(kids[j].end, p.end)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
			} else if e > curE {
				curE = e
			}
		}
		covered += curE - curS
		self[kids[i].parent] -= float64(covered)
		lg.by[p.layer][p.op].childCalls += j - i
		i = j
	}
	for _, s := range spans {
		if s.parent != 0 {
			if p, ok := idx[s.parent]; ok {
				lg.childrenOf[spans[p].layer][s.layer]++
			}
		}
	}
	chargeBlockstore(spans, self)
	for i, s := range spans {
		a := &lg.by[s.layer][s.op]
		a.n++
		a.dur += float64(s.end - s.start)
		a.self += self[i]
	}
	return lg
}

// chargeBlockstore subtracts each block store span from the self time
// of the storage spans that contain it on the same node.
func chargeBlockstore(spans []span, self []float64) {
	bySite := map[int8][2][]int{}
	for i, s := range spans {
		switch s.layer {
		case layerStorage:
			e := bySite[s.site]
			e[0] = append(e[0], i)
			bySite[s.site] = e
		case layerBlockstore:
			e := bySite[s.site]
			e[1] = append(e[1], i)
			bySite[s.site] = e
		}
	}
	for _, e := range bySite {
		srv, bs := e[0], e[1]
		sort.Slice(srv, func(a, b int) bool { return spans[srv[a]].start < spans[srv[b]].start })
		sort.Slice(bs, func(a, b int) bool { return spans[bs[a]].start < spans[bs[b]].start })
		var active []int
		next := 0
		var holders []int
		for _, b := range bs {
			sb := spans[b]
			for next < len(srv) && spans[srv[next]].start <= sb.start {
				active = append(active, srv[next])
				next++
			}
			live := active[:0]
			holders = holders[:0]
			for _, s := range active {
				if spans[s].end < sb.start {
					continue
				}
				live = append(live, s)
				if spans[s].end >= sb.end {
					holders = append(holders, s)
				}
			}
			active = live
			if len(holders) == 0 {
				continue
			}
			share := float64(sb.end-sb.start) / float64(len(holders))
			for _, s := range holders {
				self[s] -= share
			}
		}
	}
}
