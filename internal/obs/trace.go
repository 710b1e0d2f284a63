package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Trace IDs tie one logical request together across layers: a client
// stamps an ID (its context's, or a fresh one) into the wire request
// header, and the server's slow-request log line prints it — so one slow
// write is attributable to the compaction event near its timestamp that
// caused it.

type traceKeyType struct{}

var traceKey traceKeyType

// traceState is a process-unique base mixed with a counter: IDs are
// unique within a process and collide across processes with ~2^-41
// probability per pair, plenty for log correlation.
var traceBase, traceCtr = func() (uint64, *atomic.Uint64) {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// No entropy source: fall back to a fixed base; the counter still
		// keeps IDs unique within the process.
		b = [8]byte{0xf1, 0x0d, 0xb0, 0x05, 0xee, 0xd5, 0x11, 0x7e}
	}
	return binary.LittleEndian.Uint64(b[:]), new(atomic.Uint64)
}()

// NewTraceID returns a fresh nonzero trace ID.
func NewTraceID() uint64 {
	// splitmix64 over base+counter: well-distributed, no locking.
	z := traceBase + traceCtr.Add(1)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// WithTrace returns ctx carrying the trace ID. A zero ID is dropped.
func WithTrace(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey, id)
}

// Trace returns the context's trace ID, or 0 if none is set.
func Trace(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceKey).(uint64)
	return id
}

// TraceString formats an ID the way log lines print it.
func TraceString(id uint64) string {
	if id == 0 {
		return "-"
	}
	return fmt.Sprintf("%016x", id)
}
