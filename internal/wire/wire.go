// Package wire defines flodbd's hand-rolled binary protocol: the frame
// format, request/response layout, opcodes, and the status codes that
// carry the kv error taxonomy across a connection. It is deliberately
// dependency-free (stdlib only) and symmetric — internal/server decodes
// what internal/client encodes and vice versa — so the two ends can never
// drift apart without a test in this package failing.
//
// Framing: every message is one frame,
//
//	uvarint(len(body)) | body
//
// with body capped at MaxFrame. Inside a frame:
//
//	request:  uvarint(id) | op(1) | durability(1) | uvarint(timeoutNanos) | uvarint(handle) | payload
//	response: uvarint(id) | status(1) | payload
//
// The id matches responses to pipelined requests: a client may have many
// requests in flight on one connection, and the server answers each as it
// completes, in any order. durability carries the per-operation
// kv.Durability class (0 = the store default). timeoutNanos is the
// REMAINING time of the client's context deadline at send time — relative,
// not absolute, so the two ends need no clock agreement — and 0 means no
// deadline. handle addresses server-side state: 0 is the live view, other
// values name a snapshot or iterator lease returned by an earlier
// OpSnapOpen/OpIterOpen on the same connection.
//
// Payload layouts are op-specific; the Append*/Read* helpers in this file
// are the shared vocabulary. Scan bounds use a presence byte so a nil
// (open) bound survives the trip distinct from an empty key.
package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"flodb/internal/kv"
	"flodb/internal/obs"
)

// MaxFrame bounds one frame's body: oversized frames are a protocol
// error, not an allocation. Large ranges must stream through iterator
// chunks instead of one materializing Scan response.
const MaxFrame = 64 << 20

// Op identifies a request's operation.
type Op uint8

// The opcodes. OpCancel is special: it acknowledges nothing — it asks the
// server to cancel the in-flight request whose id is in the payload, and
// the canceled request itself answers (with StatusCanceled if the cancel
// won the race).
const (
	OpPing Op = 1 + iota
	OpGet
	OpPut
	OpDelete
	OpApply
	OpScan
	OpIterOpen
	OpIterNext
	OpIterClose
	OpSnapOpen
	OpSnapClose
	OpSync
	OpCheckpoint
	OpCancel

	// OpTelemetry returns the node's observability snapshot — per-op
	// latency quantiles, the merged metric registry, recent structured
	// events — as a TelemetryPayload. It is the one stats RPC: the
	// client's kv.Stats is read off its metrics. The payload, when present, is a uvarint cap on the events
	// returned (0: none); without one every retained event is returned.
	OpTelemetry

	// OpMax bounds the opcode space (for per-opcode counters).
	OpMax
)

// String names the opcode (stats keys, log lines).
func (op Op) String() string {
	switch op {
	case OpPing:
		return "ping"
	case OpGet:
		return "get"
	case OpPut:
		return "put"
	case OpDelete:
		return "delete"
	case OpApply:
		return "apply"
	case OpScan:
		return "scan"
	case OpIterOpen:
		return "iter-open"
	case OpIterNext:
		return "iter-next"
	case OpIterClose:
		return "iter-close"
	case OpSnapOpen:
		return "snap-open"
	case OpSnapClose:
		return "snap-close"
	case OpSync:
		return "sync"
	case OpCheckpoint:
		return "checkpoint"
	case OpCancel:
		return "cancel"
	case OpTelemetry:
		return "telemetry"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Status classifies a response: OK, or which error crossed the wire.
type Status uint8

const (
	StatusOK Status = iota
	// StatusErr is a generic failure; the payload is the error message.
	StatusErr
	// StatusBadRequest reports a malformed or out-of-contract request.
	StatusBadRequest
	// StatusClosed maps kv.ErrClosed.
	StatusClosed
	// StatusSnapshotReleased maps kv.ErrSnapshotReleased (including a
	// lease expired by the server's idle janitor).
	StatusSnapshotReleased
	// StatusNotSupported maps kv.ErrNotSupported.
	StatusNotSupported
	// StatusCanceled maps context.Canceled.
	StatusCanceled
	// StatusDeadline maps context.DeadlineExceeded (the wire deadline the
	// client's context mapped onto, or the server's own enforcement).
	StatusDeadline
	// StatusUnavailable maps kv.ErrUnavailable: the store behind the
	// server could not be reached, as opposed to a caller error.
	StatusUnavailable
)

// ErrBadFrame reports a structurally invalid frame or payload.
var ErrBadFrame = errors.New("wire: bad frame")

// Request is one decoded request frame.
type Request struct {
	ID           uint64
	Op           Op
	Durability   kv.Durability
	TimeoutNanos uint64
	Handle       uint64
	// TraceID correlates this request across tiers: the client stamps
	// the caller's trace (obs.Trace of its context) or a fresh one, and
	// the server's slow-request log line carries it. 0 means untraced.
	TraceID uint64
	Payload []byte
}

// Response is one decoded response frame.
type Response struct {
	ID      uint64
	Status  Status
	Payload []byte
}

// AppendRequest appends r as one complete frame (length prefix included).
func AppendRequest(dst []byte, r *Request) []byte {
	var body [4*binary.MaxVarintLen64 + 2]byte
	n := binary.PutUvarint(body[:], r.ID)
	body[n] = byte(r.Op)
	n++
	body[n] = byte(r.Durability)
	n++
	n += binary.PutUvarint(body[n:], r.TimeoutNanos)
	n += binary.PutUvarint(body[n:], r.Handle)
	n += binary.PutUvarint(body[n:], r.TraceID)
	dst = binary.AppendUvarint(dst, uint64(n+len(r.Payload)))
	dst = append(dst, body[:n]...)
	return append(dst, r.Payload...)
}

// ParseRequest decodes a frame body produced by AppendRequest. The
// returned Payload aliases body.
func ParseRequest(body []byte) (Request, error) {
	var r Request
	id, n := binary.Uvarint(body)
	if n <= 0 || len(body) < n+2 {
		return r, fmt.Errorf("%w: request header", ErrBadFrame)
	}
	r.ID = id
	r.Op = Op(body[n])
	r.Durability = kv.Durability(body[n+1])
	rest := body[n+2:]
	if r.Op == 0 || r.Op >= OpMax {
		return r, fmt.Errorf("%w: opcode %d", ErrBadFrame, body[n])
	}
	if !r.Durability.Valid() {
		return r, fmt.Errorf("%w: durability %d", ErrBadFrame, body[n+1])
	}
	to, n := binary.Uvarint(rest)
	if n <= 0 {
		return r, fmt.Errorf("%w: timeout", ErrBadFrame)
	}
	rest = rest[n:]
	h, n := binary.Uvarint(rest)
	if n <= 0 {
		return r, fmt.Errorf("%w: handle", ErrBadFrame)
	}
	rest = rest[n:]
	tid, n := binary.Uvarint(rest)
	if n <= 0 {
		return r, fmt.Errorf("%w: trace id", ErrBadFrame)
	}
	r.TimeoutNanos = to
	r.Handle = h
	r.TraceID = tid
	r.Payload = rest[n:]
	return r, nil
}

// AppendResponse appends r as one complete frame (length prefix included).
func AppendResponse(dst []byte, r *Response) []byte {
	return append(AppendResponseHeader(dst, r), r.Payload...)
}

// AppendResponseHeader appends r's frame up to its payload: the length
// prefix (which counts the payload) and the id and status. Writing
// r.Payload after it completes the frame, so a writer can send a large
// payload without copying it into the frame.
func AppendResponseHeader(dst []byte, r *Response) []byte {
	var hdr [binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(hdr[:], r.ID)
	hdr[n] = byte(r.Status)
	n++
	dst = binary.AppendUvarint(dst, uint64(n+len(r.Payload)))
	return append(dst, hdr[:n]...)
}

// ParseResponse decodes a frame body produced by AppendResponse. The
// returned Payload aliases body.
func ParseResponse(body []byte) (Response, error) {
	var r Response
	id, n := binary.Uvarint(body)
	if n <= 0 || len(body) < n+1 {
		return r, fmt.Errorf("%w: response header", ErrBadFrame)
	}
	r.ID = id
	r.Status = Status(body[n])
	r.Payload = body[n+1:]
	return r, nil
}

// ReadFrame reads one frame body from br, reusing buf when it is large
// enough. It returns io.EOF only on a clean boundary (no partial frame).
// It enforces the package-default MaxFrame; connections that negotiated a
// different cap in the handshake use ReadFrameLimit.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	return ReadFrameLimit(br, buf, MaxFrame)
}

// ReadFrameLimit is ReadFrame under a negotiated frame cap.
func ReadFrameLimit(br *bufio.Reader, buf []byte, max uint64) ([]byte, error) {
	size, err := binary.ReadUvarint(br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame length: %w", err)
	}
	if size > max {
		return nil, fmt.Errorf("%w: frame of %d bytes exceeds max %d", ErrBadFrame, size, max)
	}
	if uint64(cap(buf)) < size {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("wire: read frame body: %w", err)
	}
	return buf, nil
}

// --- Payload vocabulary ------------------------------------------------------

// AppendBytes appends a uvarint-length-prefixed byte string.
func AppendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// ReadBytes consumes one AppendBytes field. The result aliases p.
func ReadBytes(p []byte) (b, rest []byte, err error) {
	l, n := binary.Uvarint(p)
	if n <= 0 || uint64(len(p)-n) < l {
		return nil, nil, fmt.Errorf("%w: byte field", ErrBadFrame)
	}
	p = p[n:]
	return p[:l], p[l:], nil
}

// AppendBound appends a scan bound, preserving nil-ness: nil bounds are
// open, and an empty non-nil bound is a real (empty) key.
func AppendBound(dst, b []byte) []byte {
	if b == nil {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return AppendBytes(dst, b)
}

// ReadBound consumes one AppendBound field.
func ReadBound(p []byte) (b, rest []byte, err error) {
	if len(p) < 1 {
		return nil, nil, fmt.Errorf("%w: bound presence", ErrBadFrame)
	}
	if p[0] == 0 {
		return nil, p[1:], nil
	}
	return ReadBytes(p[1:])
}

// AppendPairs appends a count-prefixed run of key-value pairs.
func AppendPairs(dst []byte, pairs []kv.Pair) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for i := range pairs {
		dst = AppendBytes(dst, pairs[i].Key)
		dst = AppendBytes(dst, pairs[i].Value)
	}
	return dst
}

// ReadPairs decodes an AppendPairs run. The pairs are COPIES — safe to
// retain after the frame buffer is reused.
func ReadPairs(p []byte) ([]kv.Pair, []byte, error) {
	count, n := binary.Uvarint(p)
	if n <= 0 {
		return nil, nil, fmt.Errorf("%w: pair count", ErrBadFrame)
	}
	p = p[n:]
	// Every pair takes at least two bytes: the count alone sizes nothing.
	pairs := make([]kv.Pair, 0, minUint64(count, uint64(len(p)/2)))
	for i := uint64(0); i < count; i++ {
		k, rest, err := ReadBytes(p)
		if err != nil {
			return nil, nil, err
		}
		v, rest, err := ReadBytes(rest)
		if err != nil {
			return nil, nil, err
		}
		p = rest
		pairs = append(pairs, kv.Pair{
			Key:   append([]byte(nil), k...),
			Value: append([]byte(nil), v...),
		})
	}
	return pairs, p, nil
}

func minUint64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// Iterator positioning commands inside an OpIterNext payload:
//
//	uvarint(maxPairs) | cmd(1) | [seek key]
const (
	IterCmdNext  = 0 // advance from the current position
	IterCmdFirst = 1 // (re)position at the range start
	IterCmdSeek  = 2 // position at the first key >= the given key
)

// --- Error <-> status mapping ------------------------------------------------

// StatusOf maps a handler error onto the wire: the status code plus the
// message the payload carries. Order matters — the typed kv sentinels win
// over the context classes so a wrapped error lands on its most specific
// status.
func StatusOf(err error) (Status, string) {
	switch {
	case err == nil:
		return StatusOK, ""
	case errors.Is(err, kv.ErrSnapshotReleased):
		return StatusSnapshotReleased, err.Error()
	case errors.Is(err, kv.ErrNotSupported):
		return StatusNotSupported, err.Error()
	case errors.Is(err, kv.ErrClosed):
		return StatusClosed, err.Error()
	case errors.Is(err, kv.ErrUnavailable):
		return StatusUnavailable, err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		return StatusDeadline, err.Error()
	case errors.Is(err, context.Canceled):
		return StatusCanceled, err.Error()
	default:
		return StatusErr, err.Error()
	}
}

// ErrOf reverses StatusOf on the client: the returned error wraps the
// matching kv sentinel or context error so errors.Is holds across the
// wire exactly as it would in-process.
func ErrOf(status Status, msg string) error {
	if msg == "" {
		msg = "remote error"
	}
	switch status {
	case StatusOK:
		return nil
	case StatusClosed:
		return fmt.Errorf("flodbd: %s: %w", msg, kv.ErrClosed)
	case StatusSnapshotReleased:
		return fmt.Errorf("flodbd: %s: %w", msg, kv.ErrSnapshotReleased)
	case StatusNotSupported:
		return fmt.Errorf("flodbd: %s: %w", msg, kv.ErrNotSupported)
	case StatusUnavailable:
		return fmt.Errorf("flodbd: %s: %w", msg, kv.ErrUnavailable)
	case StatusCanceled:
		return fmt.Errorf("flodbd: %s: %w", msg, context.Canceled)
	case StatusDeadline:
		return fmt.Errorf("flodbd: %s: %w", msg, context.DeadlineExceeded)
	case StatusBadRequest:
		return fmt.Errorf("flodbd: bad request: %s", msg)
	default:
		return fmt.Errorf("flodbd: %s", msg)
	}
}

// --- Stats payload -----------------------------------------------------------

// ServerInfo is the server-side observability snapshot Server.Info returns:
// connection, request and byte counters of the service tier.
type ServerInfo struct {
	ConnsOpen     uint64            `json:"conns_open"`
	ConnsTotal    uint64            `json:"conns_total"`
	ConnsRejected uint64            `json:"conns_rejected"`
	InFlight      uint64            `json:"in_flight"`
	Requests      uint64            `json:"requests"`
	RequestsByOp  map[string]uint64 `json:"requests_by_op,omitempty"`
	BytesIn       uint64            `json:"bytes_in"`
	BytesOut      uint64            `json:"bytes_out"`
	SlowRequests  uint64            `json:"slow_requests"`
	LeasesExpired uint64            `json:"leases_expired"`
}

// StatsPayload is the JSON stats dump flodbd's /statsz and `flodb stats
// -json` print: the kv.Stats view of one metrics snapshot and the per-op
// latency quantiles extracted from the same snapshot.
type StatsPayload struct {
	Store kv.Stats                 `json:"store"`
	Ops   map[string]obs.Quantiles `json:"ops,omitempty"`
}

// NewStatsPayload builds the stats dump of a metrics snapshot.
func NewStatsPayload(s obs.Snapshot) StatsPayload {
	return StatsPayload{Store: kv.StatsOf(s), Ops: obs.OpQuantiles(s)}
}

// TelemetryPayload is the OpTelemetry response body (JSON): the node's
// merged metric registry frozen at request time, the per-op latency
// quantiles extracted from it, and the newest structured events.
type TelemetryPayload struct {
	Ops     map[string]obs.Quantiles `json:"ops,omitempty"`
	Metrics []obs.Metric             `json:"metrics,omitempty"`
	Events  []obs.Event              `json:"events,omitempty"`
}

// --- Handshake ---------------------------------------------------------------

// ProtocolVersion is the wire protocol generation this build speaks.
// Peers exchange it in the first frame of every connection; a mismatch is
// a typed rejection (ErrVersionMismatch), never a frame-decode failure
// deep into the session. v2 added the request trace-id header field and
// OpTelemetry; v3 retired OpStats (OpTelemetry carries the same counters)
// and so renumbered the opcodes after it; v4 retired the replication
// opcodes (OpVPut, OpVApply, OpHealth), renumbering OpTelemetry, and the
// handshake's feature set.
const ProtocolVersion = 4

// helloMagic opens a handshake frame, so a peer that speaks no handshake
// at all (or is not flodbd) is detected immediately.
var helloMagic = [4]byte{'f', 'l', 'o', 'D'}

// ErrVersionMismatch reports a peer speaking a different protocol
// generation (or no recognizable handshake at all). errors.Is-able.
var ErrVersionMismatch = errors.New("wire: protocol version mismatch")

// Hello is one side's handshake announcement: the first frame each peer
// sends on a fresh connection (client first, then the server's reply).
// Both sides then operate under the NEGOTIATED frame cap: the smaller of
// the two offers.
type Hello struct {
	Version uint8
	// MaxFrame is the largest frame body this side is willing to read.
	MaxFrame uint64
}

// AppendHello appends h as one complete frame (length prefix included).
// Body: magic(4) | version(1) | uvarint(maxFrame).
func AppendHello(dst []byte, h Hello) []byte {
	body := make([]byte, 0, 4+1+binary.MaxVarintLen64)
	body = append(body, helloMagic[:]...)
	body = append(body, h.Version)
	body = binary.AppendUvarint(body, h.MaxFrame)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// ParseHello decodes a handshake frame body. A missing magic or an alien
// version yields ErrVersionMismatch (wrapped with detail) — the typed
// signal that the peer cannot be spoken to, as opposed to a malformed
// frame mid-session.
func ParseHello(body []byte) (Hello, error) {
	var h Hello
	if len(body) < 5 || [4]byte(body[:4]) != helloMagic {
		return h, fmt.Errorf("%w: peer sent no handshake", ErrVersionMismatch)
	}
	h.Version = body[4]
	mf, n := binary.Uvarint(body[5:])
	if n <= 0 {
		return h, fmt.Errorf("%w: max frame", ErrBadFrame)
	}
	h.MaxFrame = mf
	if h.Version != ProtocolVersion {
		return h, fmt.Errorf("%w: peer speaks v%d, this build speaks v%d",
			ErrVersionMismatch, h.Version, ProtocolVersion)
	}
	if h.MaxFrame == 0 {
		return h, fmt.Errorf("%w: zero frame cap", ErrBadFrame)
	}
	return h, nil
}

// LocalHello is the announcement this build sends: it offers MaxFrame.
func LocalHello() Hello {
	return Hello{Version: ProtocolVersion, MaxFrame: MaxFrame}
}

// Negotiate combines the two announcements into the connection's frame
// cap: the smaller of the two offers.
func Negotiate(local, remote Hello) uint64 {
	return min(local.MaxFrame, remote.MaxFrame)
}
