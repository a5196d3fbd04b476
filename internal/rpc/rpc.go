// Package rpc carries the AJX storage protocol over TCP. It mirrors
// the paper's implementation choice of user-mode RPC on TCP: a Server
// exposes one storage node on a listener, and a Client implements
// proto.StorageNode by multiplexing concurrent calls over one or more
// pipelined connections (WithStripes) with out-of-order reply matching
// on request ids.
//
// Framing (see package wire): u32 frame length (type + id + deadline +
// payload), u8 message type, u64 request id, u32 deadline budget in
// microseconds (0 = none), payload. Replies carry the same request id
// and a zero deadline; a TError frame carries a server-side failure as
// a code byte plus text (wire.ErrCode), so typed sentinels like
// proto.ErrDraining survive the round trip.
//
// Write paths are zero-copy for block payloads: at or above
// vectoredMinPayload, both the client request path and the server
// reply path encode the header and fixed fields into a small
// per-connection meta scratch buffer and hand the payload to the
// kernel with a vectored write
// (net.Buffers → writev on TCP), so a 1 MiB block never lands in an
// intermediate frame buffer. Below the threshold, frames take the
// classic copy-into-pooled-buffer path, which batches better and costs
// less than iovec bookkeeping for small messages. The payload buffers
// are only borrowed for the duration of the write — the writev
// completes before the call's send phase returns, so caller ownership
// (per proto.StorageNode's contract) is preserved. On the server side
// the reply's payload belongs to the server (per the same contract),
// which recycles it into internal/bufpool once the reply is written.
//
// Clients translate a context deadline into the frame's budget, and
// the server re-arms it as a context deadline around the handler —
// work whose caller has already given up is shed with
// proto.ErrDeadlineExceeded instead of computing a dead reply. A
// draining server (Server.Drain) refuses new frames with
// proto.ErrDraining while in-flight handlers finish.
package rpc

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ecstore/internal/bufpool"
	"ecstore/internal/obs"
	"ecstore/internal/proto"
	"ecstore/internal/wire"
)

// MaxFrame bounds a frame's length to keep a corrupt or hostile peer
// from forcing huge allocations (16 MiB covers any sane block size).
const MaxFrame = 16 << 20

// vectoredMinPayload is the referenced-payload size at or above which
// a frame is sent with a vectored write (writev) instead of being
// copied into a pooled frame buffer. Below it the copy wins: the frame
// coalesces with its neighbors in the connection's bufio buffer and
// goes out in one syscall, where a writev would pay per-segment iovec
// bookkeeping to save a sub-page memcpy.
const vectoredMinPayload = 4 << 10

// errServer wraps a remote error string delivered in a TError frame.
type errServer struct{ msg string }

func (e *errServer) Error() string { return "rpc: server error: " + e.msg }

// --- Server ----------------------------------------------------------------

// Server serves one storage node over a listener.
type Server struct {
	node     proto.StorageNode
	ln       net.Listener
	metrics  *Metrics
	noDelay  bool
	readBuf  int
	writeBuf int
	draining atomic.Bool

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	closed   bool
	inflight int           // handler goroutines currently running
	idle     chan struct{} // closed when inflight drops to zero
	wg       sync.WaitGroup
}

// Serve starts serving node on ln. It returns immediately; accept and
// request handling run on background goroutines until Close.
func Serve(ln net.Listener, node proto.StorageNode, opts ...Option) *Server {
	o := applyOptions(opts)
	s := &Server{
		node: node, ln: ln, metrics: o.metrics,
		noDelay: o.noDelay, readBuf: o.readBuf, writeBuf: o.writeBuf,
		conns: make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Drain puts the server into graceful-shutdown mode: new requests are
// refused with a typed proto.ErrDraining reply (clients treat it as an
// instant site-retire, not a retry), while in-flight handlers run to
// completion. It returns once the last in-flight handler has finished
// or ctx expires; either way the server keeps refusing work until
// Close. Connections stay open so the refusals can be delivered.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	for {
		s.mu.Lock()
		if s.inflight == 0 {
			s.mu.Unlock()
			return nil
		}
		if s.idle == nil {
			s.idle = make(chan struct{})
		}
		idle := s.idle
		s.mu.Unlock()
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// beginHandler registers an in-flight handler for Drain accounting.
func (s *Server) beginHandler() {
	s.mu.Lock()
	s.inflight++
	s.mu.Unlock()
}

func (s *Server) endHandler() {
	s.mu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

// Close stops the listener and all connections, then waits for
// handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		tuneConn(conn, s.noDelay, s.readBuf, s.writeBuf)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// tuneConn applies socket tuning to a TCP connection: TCP_NODELAY
// (Go's own default is on; noDelay=false re-enables Nagle for
// bandwidth-bound deployments that prefer coalescing) and, when
// non-zero, explicit kernel read/write buffer sizes.
func tuneConn(conn net.Conn, noDelay bool, readBuf, writeBuf int) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	_ = tc.SetNoDelay(noDelay)
	if readBuf > 0 {
		_ = tc.SetReadBuffer(readBuf)
	}
	if writeBuf > 0 {
		_ = tc.SetWriteBuffer(writeBuf)
	}
}

// replyWriter serializes reply frames onto one server connection.
// Large reply payloads (read blocks, swap old-values — buffers the node
// handed over, recycled by serveConn after the write) go out with a
// vectored write; the Frame and meta scratch live here so the steady
// state is allocation-free.
type replyWriter struct {
	mu    sync.Mutex
	conn  net.Conn
	w     *bufio.Writer
	frame wire.Frame
	vec   net.Buffers
	meta  []byte // vectored meta scratch; only borrowed until WriteTo returns
}

// write sends one reply frame (flushing it) and returns its wire size.
// Errors travel as TError frames with a wire.ErrCode prefix so typed
// sentinels survive; vectored reports whether the payload was sent by
// reference.
func (rw *replyWriter) write(id uint64, reply any) (n int, vectored bool, err error) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	if e, ok := reply.(error); ok {
		return rw.writeError(id, e)
	}
	if pb := wire.PayloadBytes(reply); pb >= vectoredMinPayload {
		if need := wire.MetaSize(reply); cap(rw.meta) < need {
			rw.meta = make([]byte, need)
		}
		if eerr := wire.EncodeFrame(&rw.frame, reply, id, 0, rw.meta); eerr != nil {
			n, _, err = rw.writeError(id, eerr)
			return n, false, err
		}
		// Flush buffered small frames first so the segments land in
		// order, then hand the segment list to writev. The payload
		// segments alias the reply's buffers; nothing below may recycle
		// or mutate them until WriteTo returns.
		werr := rw.w.Flush()
		if werr == nil {
			rw.vec = net.Buffers(rw.frame.Segs)
			_, werr = rw.vec.WriteTo(rw.conn)
		}
		return rw.frame.Wire, true, werr
	}
	buf := bufpool.Get(wire.Size(reply) - frameHeaderSize)
	mt, payload, eerr := wire.EncodeAppend(reply, buf[:0])
	if eerr != nil {
		bufpool.Put(buf)
		n, _, err = rw.writeError(id, eerr)
		return n, false, err
	}
	werr := writeFrame(rw.w, mt, id, 0, payload)
	if werr == nil {
		werr = rw.w.Flush()
	}
	bufpool.Put(buf)
	return frameHeaderSize + len(payload), false, werr
}

func (rw *replyWriter) writeError(id uint64, e error) (int, bool, error) {
	msg := wire.AppendError(nil, e)
	werr := writeFrame(rw.w, wire.TError, id, 0, msg)
	if werr == nil {
		werr = rw.w.Flush()
	}
	return frameHeaderSize + len(msg), false, werr
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 64<<10)
	rw := &replyWriter{conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
	var handlers sync.WaitGroup
	defer handlers.Wait()
	for {
		mt, id, deadlineUS, payload, frame, err := readFrame(r)
		if err != nil {
			if errors.Is(err, errBadFrame) {
				s.metrics.noteBadFrame()
			}
			return
		}
		arrival := time.Now()
		s.metrics.noteIn(frameHeaderSize + len(payload))
		handlers.Add(1)
		s.beginHandler()
		go func() {
			defer handlers.Done()
			defer s.endHandler()
			op := s.metrics.Op(mt)
			var sp obs.Span
			if op != nil {
				op.Calls.Inc()
				sp = obs.StartSpan(op.Latency)
			}
			var reply any
			var msg any
			switch {
			case s.draining.Load():
				// Refuse without decoding: the typed reply tells the
				// client to retire this site immediately.
				bufpool.Put(frame)
				s.metrics.noteDrainRefusal()
				reply = proto.ErrDraining
			default:
				ctx := context.Background()
				var cancel context.CancelFunc
				if deadlineUS > 0 {
					deadline := arrival.Add(time.Duration(deadlineUS) * time.Microsecond)
					ctx, cancel = context.WithDeadline(ctx, deadline)
				}
				// Decode copies every field it keeps, so the frame goes
				// back to the pool before the handler even runs.
				var derr error
				msg, derr = wire.Decode(mt, payload)
				bufpool.Put(frame)
				switch {
				case derr != nil:
					reply = derr
				case ctx.Err() != nil:
					// The caller's budget expired while this frame sat
					// in queues; shed it instead of computing a dead
					// reply.
					s.metrics.noteExpired()
					reply = fmt.Errorf("%w: budget %dµs spent before dispatch",
						proto.ErrDeadlineExceeded, deadlineUS)
				default:
					reply = s.dispatch(ctx, msg)
				}
				if cancel != nil {
					cancel()
				}
			}
			if op != nil {
				if _, failed := reply.(error); failed {
					op.noteError()
				}
			}
			n, vectored, werr := rw.write(id, reply)
			if werr != nil {
				_ = conn.Close()
				return
			}
			if vectored {
				s.metrics.noteVectored(wire.PayloadBytes(reply))
			}
			// The handler has returned and the reply is on the wire;
			// node handlers fold or copy request payloads during the
			// call and hand over the reply payloads they return
			// (package storage), so both block buffers are dead here.
			if msg != nil {
				wire.Recycle(msg)
			}
			wire.Recycle(reply)
			s.metrics.noteOut(n)
			sp.End()
		}()
	}
}

// dispatch invokes the node handler for a decoded request and returns
// the reply message (or an error to be sent as TError). ctx carries
// the request's propagated deadline, if any.
func (s *Server) dispatch(ctx context.Context, msg any) any {
	var (
		rep any
		e   error
	)
	switch req := msg.(type) {
	case *proto.ReadReq:
		rep, e = s.node.Read(ctx, req)
	case *proto.SwapReq:
		rep, e = s.node.Swap(ctx, req)
	case *proto.AddReq:
		rep, e = s.node.Add(ctx, req)
	case *proto.BatchAddReq:
		rep, e = s.node.BatchAdd(ctx, req)
	case *proto.BatchAddMultiReq:
		rep, e = proto.BatchAddMulti(ctx, s.node, req)
	case *proto.CheckTIDReq:
		rep, e = s.node.CheckTID(ctx, req)
	case *proto.TryLockReq:
		rep, e = s.node.TryLock(ctx, req)
	case *proto.SetLockReq:
		rep, e = s.node.SetLock(ctx, req)
	case *proto.GetStateReq:
		rep, e = s.node.GetState(ctx, req)
	case *proto.GetRecentReq:
		rep, e = s.node.GetRecent(ctx, req)
	case *proto.ReconstructReq:
		rep, e = s.node.Reconstruct(ctx, req)
	case *proto.FinalizeReq:
		rep, e = s.node.Finalize(ctx, req)
	case *proto.GCOldReq:
		rep, e = s.node.GCOld(ctx, req)
	case *proto.GCRecentReq:
		rep, e = s.node.GCRecent(ctx, req)
	case *proto.ProbeReq:
		rep, e = s.node.Probe(ctx, req)
	case *proto.PartialSumReq:
		if ps, ok := s.node.(proto.PartialSummer); ok {
			rep, e = ps.PartialSum(ctx, req)
		} else {
			e = fmt.Errorf("rpc: node %T does not support partial sums", s.node)
		}
	default:
		e = fmt.Errorf("rpc: unexpected request type %T", msg)
	}
	if e != nil {
		return e
	}
	return rep
}

// --- framing ---------------------------------------------------------------

// frameHeaderSize is the framed overhead per message: u32 length, u8
// type, u64 request id, u32 deadline budget (microseconds, 0 = none).
const frameHeaderSize = 4 + 1 + 8 + 4

// frameBodyMin is the post-length-prefix minimum: type + id + deadline.
const frameBodyMin = frameHeaderSize - 4

// errBadFrame reports a frame whose length prefix is impossible (too
// short for a header, or beyond MaxFrame).
var errBadFrame = errors.New("rpc: bad frame length")

// readFrame reads one frame into a pooled buffer. It returns the
// payload view alongside the whole backing frame: the payload starts
// 13 bytes in, so only the full frame can go back to the pool — the
// caller must Put frame (not payload) once the payload is dead.
func readFrame(r io.Reader) (wire.MsgType, uint64, uint32, []byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, 0, nil, nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length < frameBodyMin || length > MaxFrame {
		return 0, 0, 0, nil, nil, fmt.Errorf("%w %d", errBadFrame, length)
	}
	body := bufpool.Get(int(length))
	if _, err := io.ReadFull(r, body); err != nil {
		bufpool.Put(body)
		return 0, 0, 0, nil, nil, err
	}
	mt := wire.MsgType(body[0])
	id := binary.BigEndian.Uint64(body[1:9])
	deadlineUS := binary.BigEndian.Uint32(body[9:13])
	return mt, id, deadlineUS, body[13:], body, nil
}

func writeFrame(w io.Writer, mt wire.MsgType, id uint64, deadlineUS uint32, payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(frameBodyMin+len(payload)))
	hdr[4] = byte(mt)
	binary.BigEndian.PutUint64(hdr[5:13], id)
	binary.BigEndian.PutUint32(hdr[13:17], deadlineUS)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// --- Client ----------------------------------------------------------------

// Client is a proto.StorageNode stub over TCP. It is safe for
// concurrent use; calls are pipelined and multiplexed out of order by
// request id. With WithStripes(n) the client spreads request ids
// across n connections, each with its own read loop, so one stripe's
// large in-flight payload never head-of-line blocks another's; the
// stripes share the endpoint's dial-cooldown state. A broken
// connection fails that stripe's in-flight calls with ErrNodeDown and
// is re-dialed lazily on the next call routed to it.
type Client struct {
	addr        string
	metrics     *Metrics
	cooldown    time.Duration
	callTimeout time.Duration
	noDelay     bool
	readBuf     int
	writeBuf    int
	dialer      DialFunc
	nextID      atomic.Uint64
	stripes     []*stripeConn

	// dialMu guards the shared dial-cooldown state and the closed flag.
	// Lock order: stripeConn.mu before dialMu; never the reverse.
	dialMu      sync.Mutex
	closed      bool
	lastDialErr error     // cause of the most recent failed dial
	lastDialAt  time.Time // when that dial failed (zero: none pending)
}

// stripeConn is one pipelined connection of a client: its own socket,
// write buffer, pending-reply map, read loop, and vectored-encode
// scratch. All fields are guarded by mu except the read loop's
// transient use of the conn it was started with.
type stripeConn struct {
	c       *Client
	mu      sync.Mutex
	conn    net.Conn
	w       *bufio.Writer
	frame   wire.Frame  // vectored-encode scratch, reused under mu
	vec     net.Buffers // writev cursor; WriteTo consumes it, frame.Segs stays intact
	meta    []byte      // vectored meta scratch; only borrowed until WriteTo returns
	pending map[uint64]chan frameOrErr
}

type frameOrErr struct {
	mt      wire.MsgType
	payload []byte
	frame   []byte // pooled backing buffer of payload; Put after use
	err     error
}

// Dial creates a client for the given address. Connections are
// established lazily on first use; after a failed dial the client
// backs off for a cooldown window (DefaultDialCooldown unless
// overridden by WithDialCooldown) during which calls fail fast
// without touching the network — a dead node costs one dial attempt
// per window, not one per RPC. The cooldown is shared across stripes:
// one stripe's failed dial suppresses the others' attempts too.
func Dial(addr string, opts ...Option) *Client {
	o := applyOptions(opts)
	cooldown := DefaultDialCooldown
	if o.dialCooldownSet {
		cooldown = o.dialCooldown
	}
	c := &Client{
		addr:        addr,
		metrics:     o.metrics,
		cooldown:    cooldown,
		callTimeout: o.callTimeout,
		noDelay:     o.noDelay,
		readBuf:     o.readBuf,
		writeBuf:    o.writeBuf,
		dialer:      o.dialer,
	}
	c.stripes = make([]*stripeConn, o.stripes)
	for i := range c.stripes {
		c.stripes[i] = &stripeConn{c: c, pending: make(map[uint64]chan frameOrErr)}
	}
	return c
}

var _ proto.StorageNode = (*Client)(nil)
var _ proto.MultiBatcher = (*Client)(nil)
var _ proto.PartialSummer = (*Client)(nil)

// Stripes reports the number of connection stripes this client spreads
// request ids across.
func (c *Client) Stripes() int { return len(c.stripes) }

// PendingCalls reports the number of in-flight (registered, unreplied)
// calls across all stripes. It exists for hygiene tests and
// introspection; a quiesced client must report 0.
func (c *Client) PendingCalls() int {
	total := 0
	for _, sc := range c.stripes {
		sc.mu.Lock()
		total += len(sc.pending)
		sc.mu.Unlock()
	}
	return total
}

// Close shuts all stripe connections down; subsequent calls fail.
func (c *Client) Close() error {
	c.dialMu.Lock()
	c.closed = true
	c.dialMu.Unlock()
	var err error
	for _, sc := range c.stripes {
		sc.mu.Lock()
		conn := sc.conn
		sc.failAllLocked(proto.ErrNodeDown)
		sc.conn = nil
		sc.mu.Unlock()
		if conn != nil {
			if cerr := conn.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// dialConn establishes one stripe's connection using the configured
// dialer (or TCP with socket tuning applied).
func (c *Client) dialConn(ctx context.Context) (net.Conn, error) {
	if c.dialer != nil {
		return c.dialer(ctx, c.addr)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	tuneConn(conn, c.noDelay, c.readBuf, c.writeBuf)
	return conn, nil
}

// ensureConnLocked dials this stripe if needed, honoring the client's
// shared post-failure dial cooldown: within cooldown of any stripe's
// failed dial, calls fail fast with the cached cause instead of
// dialing again. Caller must hold sc.mu (not dialMu).
func (sc *stripeConn) ensureConnLocked(ctx context.Context) error {
	c := sc.c
	c.dialMu.Lock()
	if c.closed {
		c.dialMu.Unlock()
		return proto.ErrNodeDown
	}
	if sc.conn != nil {
		c.dialMu.Unlock()
		return nil
	}
	if c.cooldown > 0 && !c.lastDialAt.IsZero() && time.Since(c.lastDialAt) < c.cooldown {
		c.dialMu.Unlock()
		c.metrics.noteDialSuppressed()
		return fmt.Errorf("%w: %s in dial cooldown after: %v", proto.ErrNodeDown, c.addr, c.lastDialErr)
	}
	c.dialMu.Unlock()
	c.metrics.noteDial()
	conn, err := c.dialConn(ctx)
	if err != nil {
		c.metrics.noteDialError()
		c.dialMu.Lock()
		c.lastDialErr = err
		c.lastDialAt = time.Now()
		c.dialMu.Unlock()
		return fmt.Errorf("%w: %v", proto.ErrNodeDown, err)
	}
	c.dialMu.Lock()
	c.lastDialErr = nil
	c.lastDialAt = time.Time{}
	closed := c.closed
	c.dialMu.Unlock()
	if closed {
		_ = conn.Close()
		return proto.ErrNodeDown
	}
	sc.conn = conn
	sc.w = bufio.NewWriterSize(conn, 64<<10)
	go sc.readLoop(conn)
	return nil
}

// Connected reports whether any stripe's TCP connection is up.
func (c *Client) Connected() bool {
	for _, sc := range c.stripes {
		sc.mu.Lock()
		up := sc.conn != nil
		sc.mu.Unlock()
		if up {
			return true
		}
	}
	return false
}

// TryConnect is a reconnect-aware health probe: it ensures a live
// connection on the first stripe, dialing (subject to the cooldown) if
// none exists, and sends nothing. A nil return means the transport is
// up.
func (c *Client) TryConnect(ctx context.Context) error {
	sc := c.stripes[0]
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.ensureConnLocked(ctx)
}

func (sc *stripeConn) readLoop(conn net.Conn) {
	r := bufio.NewReaderSize(conn, 64<<10)
	for {
		mt, id, _, payload, frame, err := readFrame(r)
		if err != nil {
			sc.mu.Lock()
			if sc.conn == conn {
				sc.failAllLocked(fmt.Errorf("%w: %v", proto.ErrNodeDown, err))
				sc.conn = nil
			}
			sc.mu.Unlock()
			_ = conn.Close()
			return
		}
		sc.mu.Lock()
		ch, ok := sc.pending[id]
		delete(sc.pending, id)
		sc.mu.Unlock()
		if ok {
			ch <- frameOrErr{mt: mt, payload: payload, frame: frame}
		} else {
			// Reply for an abandoned call (timeout); nobody will read
			// the payload.
			bufpool.Put(frame)
		}
	}
}

func (sc *stripeConn) failAllLocked(err error) {
	for id, ch := range sc.pending {
		delete(sc.pending, id)
		ch <- frameOrErr{err: err}
	}
}

// send performs the write phase of one call on this stripe: ensure the
// connection, register ch under id, and put the frame on the wire. At
// or above vectoredMinPayload the frame goes out as a vectored write
// whose payload segments alias req's own buffers — they are borrowed
// only until the writev returns (still inside send, under sc.mu), so
// no payload buffer can be recycled while the writev references it.
// Below the threshold the frame is encoded into a pooled buffer and
// written through the stripe's bufio writer. Returns the frame's wire
// size and whether the vectored path carried it.
func (sc *stripeConn) send(ctx context.Context, id uint64, deadlineUS uint32, req any, ch chan frameOrErr) (n int, vectored bool, err error) {
	pb := wire.PayloadBytes(req)
	sc.mu.Lock()
	if cerr := sc.ensureConnLocked(ctx); cerr != nil {
		sc.mu.Unlock()
		return 0, false, cerr
	}
	sc.pending[id] = ch
	var werr error
	if pb >= vectoredMinPayload {
		vectored = true
		if need := wire.MetaSize(req); cap(sc.meta) < need {
			sc.meta = make([]byte, need)
		}
		if eerr := wire.EncodeFrame(&sc.frame, req, id, deadlineUS, sc.meta); eerr != nil {
			delete(sc.pending, id)
			sc.mu.Unlock()
			return 0, false, eerr
		}
		n = sc.frame.Wire
		// Drain buffered small frames first so segments land in order,
		// then writev the segment list. WriteTo consumes sc.vec (and may
		// trim segment views); sc.frame.Segs is reset on the next encode.
		werr = sc.w.Flush()
		if werr == nil {
			sc.vec = net.Buffers(sc.frame.Segs)
			_, werr = sc.vec.WriteTo(sc.conn)
		}
	} else {
		ebuf := bufpool.Get(wire.Size(req) - frameHeaderSize)
		mt, payload, eerr := wire.EncodeAppend(req, ebuf[:0])
		if eerr != nil {
			delete(sc.pending, id)
			sc.mu.Unlock()
			bufpool.Put(ebuf)
			return 0, false, eerr
		}
		n = frameHeaderSize + len(payload)
		werr = writeFrame(sc.w, mt, id, deadlineUS, payload)
		if werr == nil {
			werr = sc.w.Flush()
		}
		bufpool.Put(ebuf)
	}
	if werr != nil {
		delete(sc.pending, id)
		conn := sc.conn
		sc.failAllLocked(proto.ErrNodeDown)
		sc.conn = nil
		sc.mu.Unlock()
		if conn != nil {
			_ = conn.Close()
		}
		return 0, false, fmt.Errorf("%w: %v", proto.ErrNodeDown, werr)
	}
	sc.mu.Unlock()
	return n, vectored, nil
}

// deadlineBudget translates a context deadline into the frame's u32
// microsecond budget. 0 means "no deadline"; budgets beyond the u32
// range (~71 minutes) are clamped. A context that is already done
// reports ok=false so the caller can fail without touching the wire.
func deadlineBudget(ctx context.Context) (uint32, bool) {
	dl, has := ctx.Deadline()
	if !has {
		return 0, true
	}
	rem := time.Until(dl)
	if rem <= 0 {
		return 0, false
	}
	us := rem.Microseconds()
	if us <= 0 {
		us = 1
	}
	if us > int64(^uint32(0)) {
		us = int64(^uint32(0))
	}
	return uint32(us), true
}

// call performs one RPC: write the request frame on the stripe its id
// hashes to, wait for the reply. The remaining context budget rides
// the frame header so the server can shed the work if it expires
// before dispatch.
func (c *Client) call(ctx context.Context, req any) (any, error) {
	if c.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.callTimeout)
		defer cancel()
	}
	deadlineUS, ok := deadlineBudget(ctx)
	if !ok {
		return nil, context.DeadlineExceeded
	}
	mt, known := wire.TypeOf(req)
	if !known {
		return nil, fmt.Errorf("wire: cannot encode %T", req)
	}
	op := c.metrics.Op(mt)
	var sp obs.Span
	if op != nil {
		op.Calls.Inc()
		sp = obs.StartSpan(op.Latency)
	}
	id := c.nextID.Add(1)
	sc := c.stripes[id%uint64(len(c.stripes))]
	ch := make(chan frameOrErr, 1)
	n, vectored, err := sc.send(ctx, id, deadlineUS, req, ch)
	if err != nil {
		op.noteError()
		return nil, err
	}
	c.metrics.noteOut(n)
	if vectored {
		c.metrics.noteVectored(wire.PayloadBytes(req))
	}

	select {
	case <-ctx.Done():
		sc.mu.Lock()
		delete(sc.pending, id)
		sc.mu.Unlock()
		// If the reply raced in just before the delete, reclaim its
		// frame; a reply that arrives later is recycled by readLoop.
		select {
		case f := <-ch:
			bufpool.Put(f.frame)
		default:
		}
		c.metrics.noteTimeout()
		op.noteError()
		return nil, ctx.Err()
	case f := <-ch:
		if f.err != nil {
			op.noteError()
			return nil, f.err
		}
		c.metrics.noteIn(frameHeaderSize + len(f.payload))
		sp.End()
		if f.mt == wire.TError {
			op.noteError()
			code, msg := wire.ParseError(f.payload) // copies before the frame is pooled
			bufpool.Put(f.frame)
			if sentinel := wire.SentinelFor(code); sentinel != nil {
				// Typed server errors (draining, deadline-expired)
				// keep their sentinel so errors.Is works end to end.
				return nil, fmt.Errorf("%w: %s", sentinel, msg)
			}
			return nil, &errServer{msg: msg}
		}
		rep, err := wire.Decode(f.mt, f.payload)
		bufpool.Put(f.frame)
		return rep, err
	}
}

func callTyped[Rep any](c *Client, ctx context.Context, req any) (Rep, error) {
	var zero Rep
	rep, err := c.call(ctx, req)
	if err != nil {
		return zero, err
	}
	typed, ok := rep.(Rep)
	if !ok {
		return zero, fmt.Errorf("rpc: unexpected reply type %T", rep)
	}
	return typed, nil
}

func (c *Client) Read(ctx context.Context, req *proto.ReadReq) (*proto.ReadReply, error) {
	return callTyped[*proto.ReadReply](c, ctx, req)
}
func (c *Client) Swap(ctx context.Context, req *proto.SwapReq) (*proto.SwapReply, error) {
	return callTyped[*proto.SwapReply](c, ctx, req)
}
func (c *Client) Add(ctx context.Context, req *proto.AddReq) (*proto.AddReply, error) {
	return callTyped[*proto.AddReply](c, ctx, req)
}
func (c *Client) BatchAdd(ctx context.Context, req *proto.BatchAddReq) (*proto.BatchAddReply, error) {
	return callTyped[*proto.BatchAddReply](c, ctx, req)
}

// BatchAddMulti implements proto.MultiBatcher: several batch-adds in
// one frame and one round trip. The server applies the sub-requests
// independently (no cross-stripe atomicity) and replies in order.
func (c *Client) BatchAddMulti(ctx context.Context, req *proto.BatchAddMultiReq) (*proto.BatchAddMultiReply, error) {
	rep, err := callTyped[*proto.BatchAddMultiReply](c, ctx, req)
	if err != nil {
		return nil, err
	}
	if len(rep.Replies) != len(req.Adds) {
		return nil, fmt.Errorf("rpc: batch-add multi reply count %d, want %d", len(rep.Replies), len(req.Adds))
	}
	return rep, nil
}
func (c *Client) CheckTID(ctx context.Context, req *proto.CheckTIDReq) (*proto.CheckTIDReply, error) {
	return callTyped[*proto.CheckTIDReply](c, ctx, req)
}
func (c *Client) TryLock(ctx context.Context, req *proto.TryLockReq) (*proto.TryLockReply, error) {
	return callTyped[*proto.TryLockReply](c, ctx, req)
}
func (c *Client) SetLock(ctx context.Context, req *proto.SetLockReq) (*proto.SetLockReply, error) {
	return callTyped[*proto.SetLockReply](c, ctx, req)
}
func (c *Client) GetState(ctx context.Context, req *proto.GetStateReq) (*proto.GetStateReply, error) {
	return callTyped[*proto.GetStateReply](c, ctx, req)
}
func (c *Client) GetRecent(ctx context.Context, req *proto.GetRecentReq) (*proto.GetRecentReply, error) {
	return callTyped[*proto.GetRecentReply](c, ctx, req)
}
func (c *Client) Reconstruct(ctx context.Context, req *proto.ReconstructReq) (*proto.ReconstructReply, error) {
	return callTyped[*proto.ReconstructReply](c, ctx, req)
}
func (c *Client) Finalize(ctx context.Context, req *proto.FinalizeReq) (*proto.FinalizeReply, error) {
	return callTyped[*proto.FinalizeReply](c, ctx, req)
}
func (c *Client) GCOld(ctx context.Context, req *proto.GCOldReq) (*proto.GCReply, error) {
	return callTyped[*proto.GCReply](c, ctx, req)
}
func (c *Client) GCRecent(ctx context.Context, req *proto.GCRecentReq) (*proto.GCReply, error) {
	return callTyped[*proto.GCReply](c, ctx, req)
}
func (c *Client) Probe(ctx context.Context, req *proto.ProbeReq) (*proto.ProbeReply, error) {
	return callTyped[*proto.ProbeReply](c, ctx, req)
}

// PartialSum implements proto.PartialSummer: ship a coefficient (and an
// optional accumulator) to the node and get the folded sum back.
func (c *Client) PartialSum(ctx context.Context, req *proto.PartialSumReq) (*proto.PartialSumReply, error) {
	return callTyped[*proto.PartialSumReply](c, ctx, req)
}

// IsServerError reports whether err was produced by the remote node
// rather than the transport.
func IsServerError(err error) bool {
	var se *errServer
	return errors.As(err, &se)
}
