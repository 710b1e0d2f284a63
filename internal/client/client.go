// Package client is a remote kv.Store: a connection-pooled client for a
// flodbd server that implements the FULL store contract — Get, Put,
// Delete, Apply, Scan, NewIterator, Snapshot, Sync, Checkpoint, Stats —
// with per-operation WriteOptions and honest context handling, so every
// conformance suite, harness mix and figure that drives a kv.Store runs
// against a network round trip unmodified.
//
// Context mapping: a context deadline becomes the request's wire timeout
// (remaining time at send, enforced server-side too), and cancellation is
// honest — the blocked call returns ctx.Err() immediately while a
// best-effort OpCancel tells the server to abandon the work; the late
// response, if any, is discarded by the reader.
//
// Pooling and affinity: stateless requests round-robin across the pool's
// connections; stateful handles (snapshots, iterators) are pinned to the
// connection that created them, because the server's lease table is
// per-connection. Pipelining falls out of the design: every in-flight
// request owns a response channel keyed by request id, so many goroutines
// share one connection without head-of-line blocking in the client.
//
// Failure handling: every connection starts with a protocol handshake (a
// peer from another protocol generation is a typed wire.ErrVersionMismatch,
// not a frame-decode failure). A pooled connection that breaks is redialed
// in place with exponential backoff; while the node stays unreachable,
// calls fail fast with an error satisfying errors.Is(err, kv.ErrUnavailable)
// — the signal that distinguishes "node down" (retry later) from "bad
// request". Stateful handles do not survive their
// connection: the server-side lease died with it.
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

// Option tunes Dial.
type Option func(*options)

type options struct {
	conns      int
	chunkPairs int
}

// dialTimeout bounds each connection attempt.
const dialTimeout = 5 * time.Second

// WithConns sets the connection-pool size (default 4).
func WithConns(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.conns = n
		}
	}
}

// WithChunkPairs sets how many pairs an iterator requests per refill
// round trip (default 512) — the client half of scan flow control.
func WithChunkPairs(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.chunkPairs = n
		}
	}
}

// Client is a remote kv.Store over a pool of flodbd connections.
type Client struct {
	opts   options
	addr   string
	slots  []*slot
	next   atomic.Uint64
	closed atomic.Bool
}

// Dial connects the pool to a flodbd server. An unreachable server fails
// with an error satisfying errors.Is(err, kv.ErrUnavailable); a server
// from another protocol generation with wire.ErrVersionMismatch.
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{conns: 4, chunkPairs: 512}
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	cl := &Client{opts: o, addr: addr}
	for i := 0; i < o.conns; i++ {
		s := &slot{cl: cl}
		c, err := cl.dialConn()
		if err != nil {
			cl.Close()
			return nil, err
		}
		s.c.Store(c)
		cl.slots = append(cl.slots, s)
	}
	return cl, nil
}

func (cl *Client) dialConn() (*conn, error) {
	nc, err := net.DialTimeout("tcp", cl.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %v: %w", cl.addr, err, kv.ErrUnavailable)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // request/response frames must not wait on Nagle
	}
	// Handshake: our hello, their hello, negotiated frame cap. Bounded by
	// the dial timeout — a mute peer is a failed dial, not a hung pool.
	nc.SetDeadline(time.Now().Add(dialTimeout))
	br := bufio.NewReaderSize(nc, 64<<10)
	if _, err := nc.Write(wire.AppendHello(nil, wire.LocalHello(0))); err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake %s: %v: %w", cl.addr, err, kv.ErrUnavailable)
	}
	body, err := wire.ReadFrameLimit(br, nil, 1024)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: handshake %s: %v: %w", cl.addr, err, kv.ErrUnavailable)
	}
	remote, err := wire.ParseHello(body)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("client: %s: %w", cl.addr, err)
	}
	nc.SetDeadline(time.Time{})
	maxFrame := wire.Negotiate(wire.LocalHello(0), remote)
	c := &conn{
		nc:       nc,
		maxFrame: maxFrame,
		pending:  map[uint64]chan wire.Response{},
		done:     make(chan struct{}),
	}
	go c.readLoop(br)
	return c, nil
}

// pickConn returns a live pool connection for a stateless request,
// redialing a broken slot in place (with backoff) when it has to. With
// the whole pool down it fails fast with a kv.ErrUnavailable-wrapped
// error.
func (cl *Client) pickConn() (*conn, error) {
	start := cl.next.Add(1)
	var lastErr error
	for i := 0; i < len(cl.slots); i++ {
		s := cl.slots[(start+uint64(i))%uint64(len(cl.slots))]
		c, err := s.get()
		if err != nil {
			lastErr = err
			continue
		}
		return c, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("client: %s: no connections: %w", cl.addr, kv.ErrUnavailable)
	}
	return nil, lastErr
}

// Close closes every pooled connection. Subsequent operations return
// kv.ErrClosed. Server-side leases the client still holds die with their
// connections.
func (cl *Client) Close() error {
	if cl.closed.Swap(true) {
		return nil
	}
	for _, s := range cl.slots {
		if c := s.c.Load(); c != nil {
			c.close(fmt.Errorf("client: %w", kv.ErrClosed))
		}
	}
	return nil
}

// --- Pool slots (reconnect with backoff) -------------------------------------

// reconnect backoff bounds: first retry after 50ms, doubling to 2s.
const (
	redialBackoffMin = 50 * time.Millisecond
	redialBackoffMax = 2 * time.Second
)

// slot is one pool position. Its connection is replaced in place when it
// breaks; between failed redials the slot fails fast (backoff), so a dead
// node costs one dial timeout per backoff window, not per call.
type slot struct {
	cl *Client
	c  atomic.Pointer[conn]

	mu      sync.Mutex // guards redial state; held across a redial
	nextTry time.Time
	backoff time.Duration
	lastErr error
}

func (s *slot) get() (*conn, error) {
	if c := s.c.Load(); c != nil && c.alive() {
		return c, nil
	}
	if s.cl.closed.Load() {
		return nil, fmt.Errorf("client: %w", kv.ErrClosed)
	}
	// One redial at a time per slot; concurrent callers fail fast to
	// another slot rather than queueing behind the dial.
	if !s.mu.TryLock() {
		return nil, fmt.Errorf("client: %s: redial in flight: %w", s.cl.addr, kv.ErrUnavailable)
	}
	defer s.mu.Unlock()
	if c := s.c.Load(); c != nil && c.alive() {
		return c, nil // another caller already fixed it
	}
	if !s.nextTry.IsZero() && time.Now().Before(s.nextTry) {
		err := s.lastErr
		if err == nil {
			err = fmt.Errorf("client: %s: down: %w", s.cl.addr, kv.ErrUnavailable)
		}
		return nil, err
	}
	c, err := s.cl.dialConn()
	if err != nil {
		if s.backoff == 0 {
			s.backoff = redialBackoffMin
		} else if s.backoff < redialBackoffMax {
			s.backoff *= 2
		}
		s.nextTry = time.Now().Add(s.backoff)
		s.lastErr = err
		return nil, err
	}
	s.backoff = 0
	s.nextTry = time.Time{}
	s.lastErr = nil
	if old := s.c.Swap(c); old != nil {
		old.close(fmt.Errorf("client: %s: replaced by redial: %w", s.cl.addr, kv.ErrUnavailable))
	}
	if s.cl.closed.Load() {
		// Lost the race with Close: don't leak the fresh connection.
		c.close(fmt.Errorf("client: %w", kv.ErrClosed))
		return nil, fmt.Errorf("client: %w", kv.ErrClosed)
	}
	return c, nil
}

// --- Connection --------------------------------------------------------------

type conn struct {
	nc       net.Conn
	maxFrame uint64     // negotiated in the handshake
	wmu      sync.Mutex // serializes request frames
	frame    []byte     // guarded by wmu: the request being written

	mu      sync.Mutex
	pending map[uint64]chan wire.Response
	nextID  uint64
	err     error // set once, before done closes

	done     chan struct{}
	doneOnce sync.Once
}

// alive reports whether the connection is still usable.
func (c *conn) alive() bool {
	select {
	case <-c.done:
		return false
	default:
		return true
	}
}

func (c *conn) close(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.doneOnce.Do(func() { close(c.done) })
	c.nc.Close()
}

// brokenErr reports why the connection died.
func (c *conn) brokenErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return fmt.Errorf("client: connection closed")
}

// readLoop dispatches response frames to their pending request channels.
// It takes over the handshake's reader (which may hold buffered bytes).
// Every frame is read into a buffer of its own, which the caller then owns.
func (c *conn) readLoop(br *bufio.Reader) {
	for {
		body, err := wire.ReadFrameLimit(br, nil, c.maxFrame)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("client: server closed the connection: %w", kv.ErrUnavailable)
			} else {
				err = fmt.Errorf("client: read: %v: %w", err, kv.ErrUnavailable)
			}
			c.close(err)
			return
		}
		resp, err := wire.ParseResponse(body)
		if err != nil {
			c.close(err)
			return
		}
		c.mu.Lock()
		ch := c.pending[resp.ID]
		delete(c.pending, resp.ID)
		c.mu.Unlock()
		if ch != nil {
			ch <- resp // buffered: never blocks the reader
		}
		// else: a canceled request's late response — discarded.
	}
}

// register assigns a request id and a response channel.
func (c *conn) register(req *wire.Request) (chan wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return nil, c.err
	}
	c.nextID++
	req.ID = c.nextID
	ch := make(chan wire.Response, 1)
	c.pending[req.ID] = ch
	return ch, nil
}

func (c *conn) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// maxKeptFrame bounds the encode buffer a connection keeps between
// requests: one large batch must not pin its frame for the connection's
// life.
const maxKeptFrame = 64 << 10

// write encodes req into the connection's frame buffer and sends it.
func (c *conn) write(req *wire.Request) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.frame = wire.AppendRequest(c.frame[:0], req)
	_, err := c.nc.Write(c.frame)
	if cap(c.frame) > maxKeptFrame {
		c.frame = nil
	}
	return err
}

// call performs one round trip on this connection: register, frame,
// write, wait. Context deadlines ride the request as a relative wire
// timeout; cancellation abandons the wait and best-effort-cancels the
// server-side work.
func (c *conn) call(ctx context.Context, req *wire.Request) (wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return wire.Response{}, err
	}
	if req.TraceID == 0 {
		// Reuse the context's trace when one is already flowing,
		// otherwise mint one so every slow-request line downstream is
		// correlatable.
		if id := obs.Trace(ctx); id != 0 {
			req.TraceID = id
		} else {
			req.TraceID = obs.NewTraceID()
		}
	}
	if dl, ok := ctx.Deadline(); ok {
		remain := time.Until(dl)
		if remain <= 0 {
			return wire.Response{}, context.DeadlineExceeded
		}
		req.TimeoutNanos = uint64(remain)
	}
	ch, err := c.register(req)
	if err != nil {
		return wire.Response{}, err
	}
	if err := c.write(req); err != nil {
		c.unregister(req.ID)
		c.close(fmt.Errorf("client: write: %v: %w", err, kv.ErrUnavailable))
		return wire.Response{}, c.brokenErr()
	}
	select {
	case resp := <-ch:
		if resp.Status != wire.StatusOK {
			return resp, wire.ErrOf(resp.Status, string(resp.Payload))
		}
		return resp, nil
	case <-ctx.Done():
		c.unregister(req.ID)
		// Best-effort server-side cancel; the late response is discarded.
		c.write(&wire.Request{Op: wire.OpCancel, Payload: binary.AppendUvarint(nil, req.ID)})
		return wire.Response{}, ctx.Err()
	case <-c.done:
		return wire.Response{}, c.brokenErr()
	}
}

// --- kv.Store ----------------------------------------------------------------

func (cl *Client) call(ctx context.Context, req *wire.Request) (wire.Response, error) {
	if cl.closed.Load() {
		return wire.Response{}, fmt.Errorf("client: %w", kv.ErrClosed)
	}
	c, err := cl.pickConn()
	if err != nil {
		return wire.Response{}, err
	}
	return c.call(ctx, req)
}

func durabilityOf(opts []kv.WriteOption) kv.Durability {
	// The wire carries the resolved per-op CLASS, not the option values:
	// DurabilityDefault means "use the server store's default".
	var o kv.WriteOptions
	for _, opt := range opts {
		if opt != nil {
			opt.ApplyWrite(&o)
		}
	}
	return o.Durability
}

// Get returns the value of key from the server's live view.
func (cl *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	return getVia(ctx, cl, 0, key)
}

func (cl *Client) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	payload := wire.AppendBytes(make([]byte, 0, len(key)+len(value)+4), key)
	payload = append(payload, value...)
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpPut, Durability: durabilityOf(opts), Payload: payload})
	return err
}

func (cl *Client) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpDelete, Durability: durabilityOf(opts), Payload: key})
	return err
}

// Apply commits b atomically on the server: the batch crosses the wire in
// its WAL record encoding, one frame however many mutations it carries.
func (cl *Client) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpApply, Durability: durabilityOf(opts), Payload: kv.EncodeBatchRecord(b)})
	return err
}

func (cl *Client) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	return scanVia(ctx, cl, 0, low, high)
}

// NewIterator opens a server-side cursor and streams it in chunks; see
// remoteIter.
func (cl *Client) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if cl.closed.Load() {
		return nil, fmt.Errorf("client: %w", kv.ErrClosed)
	}
	cn, err := cl.pickConn()
	if err != nil {
		return nil, err
	}
	return openIter(ctx, cn, 0, low, high, cl.opts.chunkPairs)
}

// Snapshot pins a server-side repeatable-read view and returns its
// handle. The view is tied to one pooled connection (the server's lease
// table is per-connection) and must be Closed to release the lease.
func (cl *Client) Snapshot(ctx context.Context) (kv.View, error) {
	if cl.closed.Load() {
		return nil, fmt.Errorf("client: %w", kv.ErrClosed)
	}
	cn, err := cl.pickConn()
	if err != nil {
		return nil, err
	}
	resp, err := cn.call(ctx, &wire.Request{Op: wire.OpSnapOpen})
	if err != nil {
		return nil, err
	}
	h, n := binary.Uvarint(resp.Payload)
	if n <= 0 {
		return nil, fmt.Errorf("client: bad snapshot handle")
	}
	return &remoteView{cl: cl, cn: cn, handle: h}, nil
}

// Sync raises the durability barrier on the server.
func (cl *Client) Sync(ctx context.Context) error {
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpSync})
	return err
}

// Checkpoint asks the server to write an openable copy into dir — a path
// on the SERVER's filesystem.
func (cl *Client) Checkpoint(ctx context.Context, dir string) error {
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpCheckpoint, Payload: []byte(dir)})
	return err
}

// Ping round-trips an empty request (health checks, tests).
func (cl *Client) Ping(ctx context.Context) error {
	_, err := cl.call(ctx, &wire.Request{Op: wire.OpPing})
	return err
}

// Stats reads the node's counters off one telemetry snapshot
// (kv.StatsOf of its metrics): the store's own counters, with the service
// tier's (conns, in-flight, requests, bytes, slow requests) in the Server*
// fields. Wire failures return zero Stats — the StatsProvider contract has
// no error channel.
func (cl *Client) Stats() kv.Stats {
	tp, err := cl.Telemetry(context.Background(), -1)
	if err != nil {
		return kv.Stats{}
	}
	return kv.StatsOf(obs.Snapshot{Metrics: tp.Metrics})
}

// Telemetry fetches the node's observability snapshot: per-op latency
// quantiles, the merged metric registry, and up to maxEvents recent
// structured events (0: every event the node retains; negative: none).
func (cl *Client) Telemetry(ctx context.Context, maxEvents int) (wire.TelemetryPayload, error) {
	var body []byte
	if maxEvents != 0 {
		body = binary.AppendUvarint(nil, uint64(max(maxEvents, 0)))
	}
	resp, err := cl.call(ctx, &wire.Request{Op: wire.OpTelemetry, Payload: body})
	if err != nil {
		return wire.TelemetryPayload{}, err
	}
	var payload wire.TelemetryPayload
	if err := json.Unmarshal(resp.Payload, &payload); err != nil {
		return wire.TelemetryPayload{}, fmt.Errorf("client: telemetry payload: %w", err)
	}
	return payload, nil
}

// --- Shared view plumbing ----------------------------------------------------

// caller abstracts "who do I send through": the pooled client (live view)
// or a pinned connection (snapshot view).
type caller interface {
	call(ctx context.Context, req *wire.Request) (wire.Response, error)
}

func getVia(ctx context.Context, c caller, handle uint64, key []byte) ([]byte, bool, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpGet, Handle: handle, Payload: key})
	if err != nil {
		return nil, false, err
	}
	if len(resp.Payload) < 1 {
		return nil, false, fmt.Errorf("client: bad get response")
	}
	if resp.Payload[0] == 0 {
		return nil, false, nil
	}
	return resp.Payload[1:], true, nil // readLoop gave the frame to this call
}

func scanVia(ctx context.Context, c caller, handle uint64, low, high []byte) ([]kv.Pair, error) {
	payload := wire.AppendBound(nil, low)
	payload = wire.AppendBound(payload, high)
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpScan, Handle: handle, Payload: payload})
	if err != nil {
		return nil, err
	}
	pairs, _, err := wire.ReadPairs(resp.Payload)
	if err != nil {
		return nil, err
	}
	return pairs, nil
}

// --- Snapshot view -----------------------------------------------------------

// remoteView is a snapshot handle: reads pinned at the server-side lease,
// routed through the connection that owns it.
type remoteView struct {
	cl       *Client
	cn       *conn
	handle   uint64
	released atomic.Bool
}

func (v *remoteView) check() error {
	if v.released.Load() {
		return fmt.Errorf("client: %w", kv.ErrSnapshotReleased)
	}
	if v.cl.closed.Load() {
		return fmt.Errorf("client: %w", kv.ErrClosed)
	}
	return nil
}

func (v *remoteView) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if err := v.check(); err != nil {
		return nil, false, err
	}
	return getVia(ctx, v.cn, v.handle, key)
}

func (v *remoteView) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	return scanVia(ctx, v.cn, v.handle, low, high)
}

func (v *remoteView) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := v.check(); err != nil {
		return nil, err
	}
	return openIter(ctx, v.cn, v.handle, low, high, v.cl.opts.chunkPairs)
}

// Close releases the server-side lease. Idempotent.
func (v *remoteView) Close() error {
	if v.released.Swap(true) {
		return nil
	}
	if v.cl.closed.Load() {
		return nil // connection is gone; the lease died with it
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := v.cn.call(ctx, &wire.Request{Op: wire.OpSnapClose, Handle: v.handle})
	return err
}

var (
	_ kv.Store         = (*Client)(nil)
	_ kv.StatsProvider = (*Client)(nil)
	_ kv.View          = (*remoteView)(nil)
)
