package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime/metrics"
	"testing"

	"flodb/internal/keys"
	"flodb/internal/kv"
)

// The fuzz targets cover what a server reads off a connection before it
// trusts anything: the frame (FuzzReadFrameLimit) and the request inside
// it with the payload decoders its opcode runs (FuzzParseRequest). A point
// request executes on those bytes in place, straight out of the read
// buffer. The contract is the sstable targets': an error or a valid decode
// — never a panic, an out-of-range slice, a frame past the negotiated cap,
// or memory in proportion to a length the input merely claims.

// seedRequests returns one valid request per opcode.
func seedRequests() []Request {
	key, value := []byte("key"), []byte("value")
	var out []Request
	for op := Op(1); op < OpMax; op++ {
		r := Request{ID: uint64(op), Op: op, TraceID: 0xF10DB}
		switch op {
		case OpGet, OpDelete:
			r.Payload = key
		case OpPut:
			r.Durability, r.TimeoutNanos = kv.DurabilitySync, 1e9
			r.Payload = append(AppendBytes(nil, key), value...)
		case OpApply:
			b := kv.NewBatch()
			b.Put(key, value)
			b.Delete(key)
			r.Payload = kv.EncodeBatchRecord(b)
		case OpScan, OpIterOpen:
			r.Payload = AppendBound(AppendBound(nil, key), nil)
		case OpIterNext:
			r.Handle = 1
			r.Payload = append(binary.AppendUvarint(nil, 16), IterCmdSeek, 'k')
		case OpIterClose, OpSnapClose:
			r.Handle = 1
		case OpCheckpoint:
			r.Payload = []byte("checkpoint-dir")
		case OpCancel:
			r.Payload = binary.AppendUvarint(nil, 3)
		case OpVPut:
			r.Payload = AppendVRecord(nil, VRecord{Version: 3, Key: key, Value: value})
		case OpVApply:
			r.Payload = AppendVRecords(nil, []VRecord{{Version: 4, Key: key, Value: value}, {Version: 5, Tombstone: true, Key: key}})
		case OpTelemetry:
			r.Payload = binary.AppendUvarint(nil, 10)
		}
		out = append(out, r)
	}
	return out
}

// allocatedBy returns the heap bytes fn allocated (plus whatever other
// goroutines did meanwhile: callers leave slack).
func allocatedBy(fn func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	fn()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// allocSlack is what a decode may allocate whatever the input: error
// values and the fuzzing engine's own traffic, which runs beside it.
const allocSlack = 2 << 20

// maxFuzzFrame bounds the frame caps FuzzReadFrameLimit negotiates.
const maxFuzzFrame = 1 << 20

// decodePayload runs the payload decoders the server runs for r's opcode.
func decodePayload(r *Request) {
	switch r.Op {
	case OpPut:
		ReadBytes(r.Payload)
	case OpApply:
		kv.ForEachOp(r.Payload, func(keys.Kind, []byte, []byte) error { return nil })
	case OpScan, OpIterOpen:
		if _, rest, err := ReadBound(r.Payload); err == nil {
			ReadBound(rest)
		}
	case OpIterNext, OpCancel, OpTelemetry:
		binary.Uvarint(r.Payload)
	case OpVPut:
		ReadVRecord(r.Payload)
	case OpVApply:
		ReadVRecords(r.Payload)
	}
}

func FuzzParseRequest(f *testing.F) {
	for _, r := range seedRequests() {
		frame := AppendRequest(nil, &r)
		_, n := binary.Uvarint(frame)
		f.Add(frame[n:])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Request
		var err error
		used := allocatedBy(func() {
			if r, err = ParseRequest(body); err == nil {
				decodePayload(&r)
			}
		})
		if limit := 64*uint64(len(body)) + allocSlack; used > limit {
			t.Fatalf("a %d-byte request cost %d bytes of allocation", len(body), used)
		}
		if err != nil {
			return
		}
		// What parses re-encodes to a frame that parses the same.
		frame := AppendRequest(nil, &r)
		_, n := binary.Uvarint(frame)
		again, err := ParseRequest(frame[n:])
		if err != nil || again.ID != r.ID || again.Op != r.Op || again.Durability != r.Durability ||
			again.TimeoutNanos != r.TimeoutNanos || again.Handle != r.Handle || again.TraceID != r.TraceID ||
			!bytes.Equal(again.Payload, r.Payload) {
			t.Fatalf("re-encoded %+v parsed as %+v (%v)", r, again, err)
		}
	})
}

func FuzzReadFrameLimit(f *testing.F) {
	var stream []byte
	for _, r := range seedRequests() {
		stream = AppendRequest(stream, &r)
	}
	stream = AppendHello(stream, LocalHello(0))
	f.Add(stream, uint64(maxFuzzFrame-1))
	f.Add(stream, uint64(16))
	f.Fuzz(func(t *testing.T, stream []byte, max uint64) {
		max %= maxFuzzFrame // a negotiated cap; keep one frame's buffer small
		br := bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		// Read frames the way a connection's reader does: one buffer,
		// reused, and every frame parsed as a request.
		used := allocatedBy(func() {
			for {
				body, err := ReadFrameLimit(br, buf, max)
				if err != nil {
					return
				}
				if uint64(len(body)) > max {
					t.Fatalf("a %d-byte frame passed a cap of %d", len(body), max)
				}
				buf = body[:cap(body)]
				if r, err := ParseRequest(body); err == nil {
					decodePayload(&r)
				}
			}
		})
		// Frames that arrived account for at most the stream; the one
		// that did not, for at most the cap.
		if limit := 64*uint64(len(stream)) + max + allocSlack; used > limit {
			t.Fatalf("a %d-byte stream under a cap of %d cost %d bytes of allocation", len(stream), max, used)
		}
	})
}
