// Package server is flodbd's service tier: it exposes one shared kv.Store
// over the internal/wire protocol to many network clients.
//
// Concurrency model: one reader goroutine per connection decodes frames.
// A point request — Get, Put or Delete with no deadline and not
// Sync-class — executes right there on the reader, reading its key
// out of the read buffer: no goroutine, no context, no copy. Its
// response waits in the connection's buffered writer, which the reader
// flushes when no further request is buffered, so a pipelined burst is
// answered in a few socket writes. Every other request (Sync-class
// writes, whose fsync group commit wants concurrent; batches; scans,
// iterators and snapshots; anything carrying a deadline) leaves the
// reader for a goroutine of its own, registered for OpCancel, and
// flushes its own response.
//
// So parallelism is across connections; within one, point requests run
// in arrival order. A store opened with Sync as its default class runs
// default-class writes on the reader too, one fsync at a time per
// connection. Two backpressure valves bound the fan-out: a
// per-connection cap on requests running on goroutines of their own (the
// reader stops draining the socket past it, pushing back through TCP) and
// a max-connections cap at accept time.
//
// Server-side state: snapshots and iterators live in a per-connection
// lease table keyed by the handle the open call returned. A janitor
// expires leases idle past Config.LeaseIdle — a client that vanished
// without closing its handles must not pin sstables (or the memory
// version chains a FloDB snapshot bound retains) forever. Expired or
// closed handles answer
// StatusSnapshotReleased, which the client maps back onto
// kv.ErrSnapshotReleased.
//
// Shutdown is a drain, not a guillotine: stop accepting, stop READING
// new requests, let every in-flight request finish and flush its
// response (the reader flushes what its point requests left buffered),
// then close the connections. The store itself is closed by
// the caller (cmd/flodbd) after the drain, so acked Buffered writes get
// the close-time WAL sync the durability contract promises.
package server

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

// Config tunes a Server. The zero value of every field gets a sane
// default from New.
type Config struct {
	// Store is the engine every connection shares. Required.
	Store kv.Store
	// MaxFrame is the frame cap this server offers in the handshake; the
	// connection runs under min(server offer, client offer). Default
	// wire.MaxFrame.
	MaxFrame uint64
	// MaxConns caps concurrent connections; further accepts are closed
	// immediately (and counted in Info().ConnsRejected). Default 1024.
	MaxConns int
	// MaxInFlight caps the requests of one connection running on
	// goroutines of their own; past it the connection's reader blocks,
	// pushing back through TCP. Point requests the reader executes itself
	// run one at a time and take no slot. Default 128.
	MaxInFlight int
	// LeaseIdle is how long an untouched snapshot/iterator lease survives
	// before the janitor releases it. Default 5m.
	LeaseIdle time.Duration
	// SlowRequest is the duration past which a request counts as slow in
	// Info(). Default 1s.
	SlowRequest time.Duration
	// MaxChunkPairs clamps the client-requested pairs per iterator chunk.
	// Default 4096.
	MaxChunkPairs int
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server serves one kv.Store over the wire protocol.
type Server struct {
	cfg Config

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*serverConn]struct{}
	draining  bool
	closed    bool

	reqWG sync.WaitGroup // every in-flight request handler and connection reader

	// Observability (Info / TelemetrySnapshot).
	connsOpen     atomic.Int64
	connsTotal    atomic.Uint64
	connsRejected atomic.Uint64
	inFlight      atomic.Int64
	bytesIn       atomic.Uint64
	bytesOut      atomic.Uint64
	slowRequests  atomic.Uint64
	leasesExpired atomic.Uint64
	requestsByOp  [wire.OpMax]atomic.Uint64

	// reg carries the service tier's own metrics — request latency
	// histograms per opcode plus views over the connection counters —
	// kept separate from the store's registry so the daemon can merge
	// the two snapshots without name collisions.
	reg   *obs.Registry
	opLat [wire.OpMax]*obs.Histogram

	janitorStop chan struct{}
	janitorOnce sync.Once
}

// New builds a Server over cfg.Store.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("server: Config.Store is required")
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 1024
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 128
	}
	if cfg.LeaseIdle <= 0 {
		cfg.LeaseIdle = 5 * time.Minute
	}
	if cfg.SlowRequest <= 0 {
		cfg.SlowRequest = time.Second
	}
	if cfg.MaxChunkPairs <= 0 {
		cfg.MaxChunkPairs = 4096
	}
	if cfg.MaxFrame == 0 {
		cfg.MaxFrame = wire.MaxFrame
	}
	s := &Server{
		cfg:         cfg,
		listeners:   map[net.Listener]struct{}{},
		conns:       map[*serverConn]struct{}{},
		janitorStop: make(chan struct{}),
	}
	s.initObs()
	return s
}

// initObs builds the service tier's metric registry: one latency
// histogram per opcode and scrape-time views over the connection
// counters Info() already reports.
func (s *Server) initObs() {
	reg := obs.NewRegistry()
	s.reg = reg
	for op := wire.Op(1); op < wire.OpMax; op++ {
		s.opLat[op] = reg.Histogram(
			`flodbd_request_seconds{op="`+op.String()+`"}`,
			"Wire request wall time by opcode, decode to response write.")
		reg.CounterFunc(`flodbd_requests_total{op="`+op.String()+`"}`,
			"Wire requests received, by opcode.", s.requestsByOp[op].Load)
	}
	reg.GaugeFunc("flodbd_conns_open", "Connections currently open.",
		func() int64 { return maxInt64(s.connsOpen.Load(), 0) })
	reg.CounterFunc("flodbd_conns_total", "Connections ever accepted.", s.connsTotal.Load)
	reg.CounterFunc("flodbd_conns_rejected_total", "Connections refused at the MaxConns cap.", s.connsRejected.Load)
	reg.GaugeFunc("flodbd_requests_in_flight", "Requests executing on goroutines of their own (point requests run on their connection's reader).",
		func() int64 { return maxInt64(s.inFlight.Load(), 0) })
	reg.CounterFunc("flodbd_bytes_in_total", "Request bytes read off the wire.", s.bytesIn.Load)
	reg.CounterFunc("flodbd_bytes_out_total", "Response bytes written to the wire.", s.bytesOut.Load)
	reg.CounterFunc("flodbd_slow_requests_total", "Requests slower than Config.SlowRequest.", s.slowRequests.Load)
	reg.CounterFunc("flodbd_leases_expired_total", "Snapshot/iterator leases expired by the janitor.", s.leasesExpired.Load)
}

// TelemetrySnapshot freezes the node's metrics: the service tier's
// registry merged with the store's snapshot when the store keeps one. It
// is what OpTelemetry answers and what flodbd serves at /metrics.
func (s *Server) TelemetrySnapshot() obs.Snapshot {
	snap := s.reg.Snapshot()
	if sp, ok := s.cfg.Store.(obs.SnapshotProvider); ok {
		snap = obs.Merge(snap, sp.TelemetrySnapshot())
	}
	return snap
}

// TelemetryEvents returns up to n of the store's recent structured events
// (n <= 0: all retained), or nil when the store keeps no event log.
func (s *Server) TelemetryEvents(n int) []obs.Event {
	if ep, ok := s.cfg.Store.(obs.EventProvider); ok {
		return ep.TelemetryEvents(n)
	}
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until Shutdown or Close. It returns nil
// on a clean shutdown, or the accept error that stopped it.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.draining || s.closed {
		s.mu.Unlock()
		return fmt.Errorf("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	s.janitorOnce.Do(func() { go s.janitor() })

	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.draining || s.closed
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		if int(s.connsOpen.Load()) >= s.cfg.MaxConns {
			s.connsRejected.Add(1)
			nc.Close()
			continue
		}
		c := s.newConn(nc)
		s.mu.Lock()
		if s.draining || s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connsOpen.Add(1)
		s.connsTotal.Add(1)
		go c.run()
	}
}

// Shutdown drains the server: listeners close, connections stop reading
// new requests, in-flight requests finish and flush their responses, and
// only then do connections close. If ctx expires first the remaining work
// is cut off (in-flight contexts canceled, connections closed) and ctx's
// error returned. The store is NOT closed — that is the caller's job,
// after the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	for _, c := range conns {
		c.stopReading()
	}

	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	s.forceClose()
	if err == nil {
		// Connections are closed; drained handlers have flushed.
		<-done
	}
	return err
}

// Close force-stops the server without draining: listeners and
// connections close immediately and in-flight requests are canceled.
// Used by tests modeling a server crash; production paths use Shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	for l := range s.listeners {
		l.Close()
	}
	s.mu.Unlock()
	s.forceClose()
}

func (s *Server) forceClose() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.janitorStop)
	for _, c := range conns {
		c.close()
	}
}

func (s *Server) removeConn(c *serverConn) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if present {
		s.connsOpen.Add(-1)
	}
}

// janitor expires idle snapshot/iterator leases.
func (s *Server) janitor() {
	tick := time.NewTicker(s.cfg.LeaseIdle / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.cfg.LeaseIdle)
		s.mu.Lock()
		conns := make([]*serverConn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		for _, c := range conns {
			s.leasesExpired.Add(uint64(c.expireLeases(cutoff)))
		}
	}
}

// Info snapshots the server-side observability counters.
func (s *Server) Info() wire.ServerInfo {
	info := wire.ServerInfo{
		ConnsOpen:     uint64(maxInt64(s.connsOpen.Load(), 0)),
		ConnsTotal:    s.connsTotal.Load(),
		ConnsRejected: s.connsRejected.Load(),
		InFlight:      uint64(maxInt64(s.inFlight.Load(), 0)),
		BytesIn:       s.bytesIn.Load(),
		BytesOut:      s.bytesOut.Load(),
		SlowRequests:  s.slowRequests.Load(),
		LeasesExpired: s.leasesExpired.Load(),
		RequestsByOp:  map[string]uint64{},
	}
	for op := wire.Op(1); op < wire.OpMax; op++ {
		if n := s.requestsByOp[op].Load(); n > 0 {
			info.RequestsByOp[op.String()] = n
			info.Requests += n
		}
	}
	return info
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// --- Connection --------------------------------------------------------------

type lease struct {
	mu       sync.Mutex // serializes iterator positioning vs close/expiry
	snap     kv.View    // snapshot lease (nil for iterators); set before the lease is published, never cleared
	iter     kv.Iterator
	lastUsed time.Time // guarded by serverConn.mu
	busy     bool      // guarded by serverConn.mu: in use by a handler, janitor must skip
}

type serverConn struct {
	srv *Server
	nc  net.Conn

	wmu   sync.Mutex    // serializes response frames
	bw    *bufio.Writer // guarded by wmu
	frame []byte        // guarded by wmu: the response header being written

	sem chan struct{} // tokens for requests off the reader

	mu         sync.Mutex
	leases     map[uint64]*lease
	inflight   map[uint64]context.CancelFunc
	nextHandle uint64
	closed     bool

	connWG sync.WaitGroup // this connection's handler goroutines

	// maxFrame is the cap negotiated in the handshake (min of the two
	// offers); reads and responses on this connection stay under it.
	maxFrame uint64

	// baseCtx outlives individual requests (iterators opened through one
	// request are positioned by later ones); canceled when the conn dies.
	baseCtx context.Context
	cancel  context.CancelFunc
}

func (s *Server) newConn(nc net.Conn) *serverConn {
	ctx, cancel := context.WithCancel(context.Background())
	return &serverConn{
		srv:      s,
		nc:       nc,
		bw:       bufio.NewWriter(nc),
		sem:      make(chan struct{}, s.cfg.MaxInFlight),
		leases:   map[uint64]*lease{},
		inflight: map[uint64]context.CancelFunc{},
		baseCtx:  ctx,
		cancel:   cancel,
	}
}

// stopReading makes the reader loop return without killing in-flight
// requests: the drain half of Shutdown.
func (c *serverConn) stopReading() {
	c.nc.SetReadDeadline(time.Now())
}

// close tears the connection down: cancels in-flight requests, releases
// leases, closes the socket.
func (c *serverConn) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	cancels := make([]context.CancelFunc, 0, len(c.inflight))
	for _, cf := range c.inflight {
		cancels = append(cancels, cf)
	}
	leases := make([]*lease, 0, len(c.leases))
	for _, l := range c.leases {
		leases = append(leases, l)
	}
	c.leases = map[uint64]*lease{}
	c.mu.Unlock()

	c.cancel()
	for _, cf := range cancels {
		cf()
	}
	c.nc.Close()
	// Handlers may still be running; leases close under their own mutex
	// so an in-flight positioning call finishes before the iterator dies.
	for _, l := range leases {
		releaseLease(l)
	}
	c.srv.removeConn(c)
}

func releaseLease(l *lease) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.iter != nil {
		l.iter.Close()
		l.iter = nil
	}
	// snap stays set: a handler that resolved the lease before it was
	// dropped reads it without l.mu (view), and a closed handle answers
	// it with kv.ErrSnapshotReleased.
	if l.snap != nil {
		l.snap.Close()
	}
}

// expireLeases releases leases untouched since cutoff, returning how many.
func (c *serverConn) expireLeases(cutoff time.Time) int {
	c.mu.Lock()
	var victims []*lease
	for h, l := range c.leases {
		if !l.busy && l.lastUsed.Before(cutoff) {
			victims = append(victims, l)
			delete(c.leases, h)
		}
	}
	c.mu.Unlock()
	for _, l := range victims {
		releaseLease(l)
	}
	return len(victims)
}

// startReader counts a connection's reader into the drain, unless the
// drain has begun: a reader that clears its handshake deadline after
// Shutdown set its stop deadline would otherwise never stop.
func (s *Server) startReader() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// run is the reader loop: frame -> request -> executed here (a point
// request) or on a handler goroutine (everything else).
func (c *serverConn) run() {
	br := bufio.NewReader(c.nc)
	if err := c.handshake(br); err != nil || !c.srv.startReader() {
		if err != nil && err != io.EOF && !isClosedErr(err) {
			c.srv.logf("server: %s: handshake: %v", c.nc.RemoteAddr(), err)
		}
		c.close()
		return
	}
	defer func() {
		// Drain path: the read deadline popped. Send what point requests
		// left in the writer and let handlers finish and flush theirs
		// before the socket closes.
		c.flush()
		c.connWG.Wait()
		c.close()
		c.srv.reqWG.Done()
	}()
	var buf []byte
	// A failed response write cancels baseCtx: stop executing requests
	// whose answers can go nowhere.
	for c.baseCtx.Err() == nil {
		if br.Buffered() == 0 {
			c.flush() // the burst is drained: answer it before blocking
		}
		body, err := wire.ReadFrameLimit(br, buf, c.maxFrame)
		if err != nil {
			if err != io.EOF && !isClosedErr(err) {
				c.srv.logf("server: %s: read: %v", c.nc.RemoteAddr(), err)
			}
			return
		}
		buf = body[:cap(body)]
		c.srv.bytesIn.Add(uint64(len(body)) + uint64(uvarintLen(uint64(len(body)))))
		req, err := wire.ParseRequest(body)
		if err != nil {
			// A malformed frame poisons the stream (framing may be lost):
			// answer if the id parsed, then drop the connection.
			c.srv.logf("server: %s: %v", c.nc.RemoteAddr(), err)
			c.writeResponse(&wire.Response{ID: req.ID, Status: wire.StatusBadRequest, Payload: []byte(err.Error())}, false)
			return
		}
		c.srv.requestsByOp[req.Op].Add(1)
		if req.Op == wire.OpCancel {
			// Handled inline: a cancel must not queue behind the very
			// requests it is trying to cancel.
			c.handleCancel(req.Payload)
			continue
		}
		if runsInline(&req) {
			// Done before the next read reuses buf, which the payload
			// aliases: stores do not keep the slices they are handed.
			c.exec(c.baseCtx, &req, false)
			continue
		}
		// A handler runs while the next frame is read into buf: it gets a
		// copy of the payload.
		req.Payload = append([]byte(nil), req.Payload...)
		select {
		case c.sem <- struct{}{}: // backpressure: cap handlers per connection
		default:
			c.flush() // about to block: do not hold answers back meanwhile
			c.sem <- struct{}{}
		}
		c.srv.reqWG.Add(1)
		c.connWG.Add(1)
		c.srv.inFlight.Add(1)
		go c.handle(req)
	}
}

// runsInline reports whether req executes on its connection's reader: a
// point request that can wait on nothing but the engine. A Sync-class
// write waits on an fsync that group commit wants shared with concurrent
// writes, and a deadline needs a context of its own.
func runsInline(req *wire.Request) bool {
	switch req.Op {
	case wire.OpGet, wire.OpPut, wire.OpDelete:
		return req.Durability != kv.DurabilitySync && req.TimeoutNanos == 0
	}
	return false
}

func isClosedErr(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, os.ErrDeadlineExceeded)
}

// handshakeTimeout bounds how long a fresh connection may sit silent (or
// half-written) before its hello arrives — a mute peer must not pin a
// connection slot forever.
const handshakeTimeout = 10 * time.Second

// handshake runs the server half of the hello exchange: read the client's
// announcement, reply with ours, and fix the connection's negotiated
// frame cap. A peer speaking a different protocol generation (or none)
// still gets our hello — so IT can produce a typed version error — and is
// then disconnected.
func (c *serverConn) handshake(br *bufio.Reader) error {
	c.nc.SetReadDeadline(time.Now().Add(handshakeTimeout))
	// Hello frames are tiny; a huge length here is a stray non-protocol
	// peer, not a frame to buffer.
	body, err := wire.ReadFrameLimit(br, nil, 1024)
	reply := wire.AppendHello(nil, wire.LocalHello(c.srv.cfg.MaxFrame))
	if err != nil {
		return err
	}
	remote, herr := wire.ParseHello(body)
	c.wmu.Lock()
	_, werr := c.nc.Write(reply)
	c.wmu.Unlock()
	if herr != nil {
		return herr
	}
	if werr != nil {
		return werr
	}
	c.nc.SetReadDeadline(time.Time{})
	c.maxFrame = wire.Negotiate(wire.LocalHello(c.srv.cfg.MaxFrame), remote)
	return nil
}

func (c *serverConn) handleCancel(payload []byte) {
	id, n := binary.Uvarint(payload)
	if n <= 0 {
		return
	}
	c.mu.Lock()
	cf := c.inflight[id]
	c.mu.Unlock()
	if cf != nil {
		cf()
	}
}

// handle runs one request on a goroutine of its own. Around exec it adds
// only what such a request needs: a context with its deadline and trace,
// a cancel registration for OpCancel, and its in-flight slot.
func (c *serverConn) handle(req wire.Request) {
	defer func() {
		c.srv.inFlight.Add(-1)
		c.connWG.Done()
		c.srv.reqWG.Done()
		<-c.sem
	}()

	ctx := c.baseCtx
	var cancel context.CancelFunc
	if req.TimeoutNanos > 0 {
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutNanos))
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		cancel()
		return
	}
	c.inflight[req.ID] = cancel
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, req.ID)
		c.mu.Unlock()
		cancel()
	}()
	c.exec(ctx, &req, true)
}

// exec executes one request and writes its response, on whichever
// goroutine runs it: dispatch, encode, and the latency and slow-request
// accounting. flush sends the response now (a handler's); otherwise it
// waits in the writer for the reader to drain its burst.
func (c *serverConn) exec(ctx context.Context, req *wire.Request, flush bool) {
	start := time.Now()
	payload, err := c.dispatch(ctx, req)
	if err == nil && c.maxFrame > 0 && uint64(len(payload))+24 > c.maxFrame {
		// The negotiated cap binds the server too: a response the client
		// would refuse to read must become an error, not a dead stream.
		err = badRequestf("response of %d bytes exceeds negotiated frame cap %d (stream through an iterator)",
			len(payload), c.maxFrame)
	}
	resp := wire.Response{ID: req.ID, Payload: payload}
	if err != nil {
		var msg string
		resp.Status, msg = wire.StatusOf(err)
		resp.Payload = []byte(msg)
	}
	c.writeResponse(&resp, flush)

	d := time.Since(start)
	c.srv.opLat[req.Op].Observe(d)
	if d >= c.srv.cfg.SlowRequest {
		c.srv.slowRequests.Add(1)
		// The slow-request line carries everything needed to chase the
		// outlier back to its caller: the decoded op, the key size, the
		// durability class (a Sync fsync wait is the usual innocent
		// explanation), and the trace ID the client stamped.
		c.srv.logf("server: %s: slow request: op=%s dur=%v key=%dB durability=%v trace=%s",
			c.nc.RemoteAddr(), req.Op, d.Round(time.Microsecond),
			requestKeyLen(req), req.Durability, obs.TraceString(req.TraceID))
	}
}

// writeResponse puts r in the connection's writer, and sends everything
// there when flush is set. The header goes through the reused frame
// buffer and the payload straight into the writer. A failed write closes
// the connection: the writer keeps the error, so every later response on
// it would be lost too.
func (c *serverConn) writeResponse(r *wire.Response, flush bool) {
	c.wmu.Lock()
	c.frame = wire.AppendResponseHeader(c.frame[:0], r)
	n := len(c.frame) + len(r.Payload)
	_, err := c.bw.Write(c.frame)
	if err == nil {
		_, err = c.bw.Write(r.Payload)
	}
	if err == nil && flush {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		c.close()
		return
	}
	c.srv.bytesOut.Add(uint64(n))
}

// flush sends the responses waiting in the writer.
func (c *serverConn) flush() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.close()
	}
}

// --- Dispatch ----------------------------------------------------------------

var errBadRequest = errors.New("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{errBadRequest}, args...)...)
}

// view resolves a request's handle to its read view: 0 is the live
// store, anything else a snapshot lease. Touching the lease refreshes
// its idle clock and marks it busy until release(.)
func (c *serverConn) view(handle uint64) (kv.View, func(), error) {
	if handle == 0 {
		return c.srv.cfg.Store, func() {}, nil
	}
	l, release, err := c.touchLease(handle)
	if err != nil {
		return nil, nil, err
	}
	if l.snap == nil {
		release()
		return nil, nil, badRequestf("handle %d is not a snapshot", handle)
	}
	return l.snap, release, nil
}

// touchLease looks a lease up, refreshes lastUsed, and pins it against
// the janitor until the returned release runs.
func (c *serverConn) touchLease(handle uint64) (*lease, func(), error) {
	c.mu.Lock()
	l, ok := c.leases[handle]
	if !ok {
		c.mu.Unlock()
		// The handle was closed or expired: the kv contract's
		// use-after-release error.
		return nil, nil, kv.ErrSnapshotReleased
	}
	l.lastUsed = time.Now()
	l.busy = true
	c.mu.Unlock()
	release := func() {
		c.mu.Lock()
		l.busy = false
		l.lastUsed = time.Now()
		c.mu.Unlock()
	}
	return l, release, nil
}

func (c *serverConn) addLease(l *lease) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextHandle++
	h := c.nextHandle
	l.lastUsed = time.Now()
	c.leases[h] = l
	return h
}

func (c *serverConn) dropLease(handle uint64) *lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[handle]
	delete(c.leases, handle)
	return l
}

func (c *serverConn) dispatch(ctx context.Context, req *wire.Request) ([]byte, error) {
	store := c.srv.cfg.Store
	var wopts []kv.WriteOption
	if req.Durability != kv.DurabilityDefault {
		wopts = []kv.WriteOption{kv.WithDurability(req.Durability)}
	}
	switch req.Op {
	case wire.OpPing:
		return nil, nil

	case wire.OpGet:
		view, release, err := c.view(req.Handle)
		if err != nil {
			return nil, err
		}
		defer release()
		v, found, err := view.Get(ctx, req.Payload)
		if err != nil {
			return nil, err
		}
		if !found {
			return []byte{0}, nil
		}
		out := make([]byte, 0, 1+len(v))
		out = append(out, 1)
		return append(out, v...), nil

	case wire.OpPut:
		if req.Handle != 0 {
			return nil, badRequestf("write through a snapshot handle")
		}
		key, rest, err := wire.ReadBytes(req.Payload)
		if err != nil {
			return nil, err
		}
		return nil, store.Put(ctx, key, rest, wopts...)

	case wire.OpDelete:
		if req.Handle != 0 {
			return nil, badRequestf("write through a snapshot handle")
		}
		return nil, store.Delete(ctx, req.Payload, wopts...)

	case wire.OpApply:
		if req.Handle != 0 {
			return nil, badRequestf("write through a snapshot handle")
		}
		b := kv.NewBatch()
		err := kv.ForEachOp(req.Payload, func(kind keys.Kind, key, value []byte) error {
			if kind == keys.KindDelete {
				b.Delete(key)
			} else {
				b.Put(key, value)
			}
			return nil
		})
		if err != nil {
			return nil, badRequestf("batch: %v", err)
		}
		return nil, store.Apply(ctx, b, wopts...)

	case wire.OpScan:
		view, release, err := c.view(req.Handle)
		if err != nil {
			return nil, err
		}
		defer release()
		low, rest, err := wire.ReadBound(req.Payload)
		if err != nil {
			return nil, err
		}
		high, _, err := wire.ReadBound(rest)
		if err != nil {
			return nil, err
		}
		pairs, err := view.Scan(ctx, low, high)
		if err != nil {
			return nil, err
		}
		return wire.AppendPairs(nil, pairs), nil

	case wire.OpIterOpen:
		return c.handleIterOpen(req)

	case wire.OpIterNext:
		return c.handleIterNext(ctx, req)

	case wire.OpIterClose:
		if l := c.dropLease(req.Handle); l != nil {
			releaseLease(l)
		}
		return nil, nil // idempotent, like kv.Iterator.Close

	case wire.OpSnapOpen:
		if req.Handle != 0 {
			return nil, badRequestf("snapshot of a snapshot")
		}
		snap, err := store.Snapshot(ctx)
		if err != nil {
			return nil, err
		}
		h := c.addLease(&lease{snap: snap})
		return binary.AppendUvarint(nil, h), nil

	case wire.OpSnapClose:
		if l := c.dropLease(req.Handle); l != nil {
			releaseLease(l)
		}
		return nil, nil // idempotent, like kv.View.Close

	case wire.OpSync:
		return nil, store.Sync(ctx)

	case wire.OpTelemetry:
		snap := c.srv.TelemetrySnapshot()
		payload := wire.TelemetryPayload{
			Ops:     obs.OpQuantiles(snap),
			Metrics: snap.Metrics,
		}
		if len(req.Payload) == 0 {
			payload.Events = c.srv.TelemetryEvents(0)
		} else if n, l := binary.Uvarint(req.Payload); l <= 0 {
			return nil, badRequestf("telemetry event count")
		} else if n > 0 {
			payload.Events = c.srv.TelemetryEvents(int(n))
		}
		return json.Marshal(payload)

	case wire.OpCheckpoint:
		if req.Handle != 0 {
			return nil, badRequestf("checkpoint through a snapshot handle")
		}
		if len(req.Payload) == 0 {
			return nil, badRequestf("checkpoint: empty directory")
		}
		return nil, store.Checkpoint(ctx, string(req.Payload))

	default:
		return nil, badRequestf("opcode %s", req.Op)
	}
}

// handleIterOpen opens a streaming cursor over the live view or a
// snapshot lease. The iterator captures the CONNECTION's context, not the
// request's: it outlives this request and is positioned by later
// OpIterNext calls, dying with the connection (or its lease expiry).
func (c *serverConn) handleIterOpen(req *wire.Request) ([]byte, error) {
	low, rest, err := wire.ReadBound(req.Payload)
	if err != nil {
		return nil, err
	}
	high, _, err := wire.ReadBound(rest)
	if err != nil {
		return nil, err
	}
	view, release, err := c.view(req.Handle)
	if err != nil {
		return nil, err
	}
	defer release()
	it, err := view.NewIterator(c.baseCtx, low, high)
	if err != nil {
		return nil, err
	}
	h := c.addLease(&lease{iter: it})
	return binary.AppendUvarint(nil, h), nil
}

// handleIterNext streams one chunk: up to maxPairs pairs from the leased
// iterator, positioned by cmd. Response layout:
//
//	done(1) | count(uvarint) | count × (key | value)
//
// done=1 means the iterator is exhausted (no further chunks will yield
// pairs). The client drives chunk size — flow control belongs to the
// consumer — and the server clamps it to MaxChunkPairs.
func (c *serverConn) handleIterNext(ctx context.Context, req *wire.Request) ([]byte, error) {
	maxPairs, n := binary.Uvarint(req.Payload)
	if n <= 0 || len(req.Payload) < n+1 {
		return nil, badRequestf("iter-next header")
	}
	cmd := req.Payload[n]
	seekKey := req.Payload[n+1:]
	if maxPairs == 0 || maxPairs > uint64(c.srv.cfg.MaxChunkPairs) {
		maxPairs = uint64(c.srv.cfg.MaxChunkPairs)
	}
	l, release, err := c.touchLease(req.Handle)
	if err != nil {
		return nil, err
	}
	defer release()
	l.mu.Lock()
	defer l.mu.Unlock()
	it := l.iter
	if it == nil {
		return nil, badRequestf("handle %d is not an iterator", req.Handle)
	}

	var pairs []kv.Pair
	var ok bool
	switch cmd {
	case wire.IterCmdFirst:
		ok = it.First()
	case wire.IterCmdSeek:
		ok = it.Seek(seekKey)
	case wire.IterCmdNext:
		ok = it.Next()
	default:
		return nil, badRequestf("iter command %d", cmd)
	}
	for ok {
		// Key/Value are valid only until the next positioning call: copy
		// into the chunk.
		pairs = append(pairs, kv.Pair{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		if uint64(len(pairs)) >= maxPairs {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ok = it.Next()
	}
	done := byte(0)
	if !ok {
		if err := it.Err(); err != nil {
			return nil, err
		}
		done = 1
	}
	out := append(make([]byte, 0, 64), done)
	return wire.AppendPairs(out, pairs), nil
}

func uvarintLen(v uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], v)
}

// requestKeyLen extracts the key length from ops whose payload leads
// with (or is) a key — the slow-request log's size hint. 0 for ops with
// no single key.
func requestKeyLen(req *wire.Request) int {
	switch req.Op {
	case wire.OpGet, wire.OpDelete:
		return len(req.Payload)
	case wire.OpPut:
		if k, _, err := wire.ReadBytes(req.Payload); err == nil {
			return len(k)
		}
	}
	return 0
}
