package client

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"flodb/internal/kv"
	"flodb/internal/wire"
)

// remoteIter streams a server-side cursor in client-driven chunks: each
// refill round trip asks for up to chunkPairs pairs, buffers them, and
// serves First/Seek/Next locally until the buffer drains — O(chunk)
// memory however large the range, with the client (the consumer) in
// charge of flow control. It captures its creation context and honors it
// on every positioning call, like every other kv.Iterator in the tree.
// Not safe for concurrent use, per the contract.
type remoteIter struct {
	ctx    context.Context
	cn     *conn
	handle uint64
	chunk  int

	buf        []kv.Pair
	i          int  // buf[i] is the current pair when positioned
	started    bool // a positioning call has run
	positioned bool
	done       bool // server reported exhaustion past buf
	err        error
	closed     bool
}

// openIter opens the server-side cursor. viewHandle is 0 for the live
// view or a snapshot lease handle.
func openIter(ctx context.Context, cn *conn, viewHandle uint64, low, high []byte, chunk int) (kv.Iterator, error) {
	payload := wire.AppendBound(nil, low)
	payload = wire.AppendBound(payload, high)
	resp, err := cn.call(ctx, &wire.Request{Op: wire.OpIterOpen, Handle: viewHandle, Payload: payload})
	if err != nil {
		return nil, err
	}
	h, n := binary.Uvarint(resp.Payload)
	if n <= 0 {
		return nil, fmt.Errorf("client: bad iterator handle")
	}
	return &remoteIter{ctx: ctx, cn: cn, handle: h, chunk: chunk}, nil
}

// fetch performs one refill round trip with the given positioning command.
func (it *remoteIter) fetch(cmd byte, seekKey []byte) bool {
	payload := binary.AppendUvarint(nil, uint64(it.chunk))
	payload = append(payload, cmd)
	payload = append(payload, seekKey...)
	resp, err := it.cn.call(it.ctx, &wire.Request{Op: wire.OpIterNext, Handle: it.handle, Payload: payload})
	if err != nil {
		it.err = err
		return false
	}
	if len(resp.Payload) < 1 {
		it.err = fmt.Errorf("client: bad iter-next response")
		return false
	}
	done := resp.Payload[0] == 1
	pairs, _, err := wire.ReadPairs(resp.Payload[1:])
	if err != nil {
		it.err = err
		return false
	}
	it.buf, it.i, it.done, it.started = pairs, 0, done, true
	if len(pairs) == 0 {
		it.positioned = false
		return false
	}
	it.positioned = true
	return true
}

func (it *remoteIter) step(cmd byte, seekKey []byte) bool {
	if it.closed || it.err != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		return false
	}
	return it.fetch(cmd, seekKey)
}

func (it *remoteIter) First() bool { return it.step(wire.IterCmdFirst, nil) }

func (it *remoteIter) Seek(key []byte) bool { return it.step(wire.IterCmdSeek, key) }

func (it *remoteIter) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		return false
	}
	if !it.started {
		// Next on a fresh iterator is First, per the contract.
		return it.fetch(wire.IterCmdFirst, nil)
	}
	if !it.positioned {
		return false // ran out: stays out until First or Seek
	}
	if it.i+1 < len(it.buf) {
		it.i++
		return true
	}
	if it.done {
		it.positioned = false
		return false
	}
	return it.fetch(wire.IterCmdNext, nil)
}

func (it *remoteIter) Key() []byte {
	if !it.positioned || it.i >= len(it.buf) {
		return nil
	}
	return it.buf[it.i].Key
}

func (it *remoteIter) Value() []byte {
	if !it.positioned || it.i >= len(it.buf) {
		return nil
	}
	return it.buf[it.i].Value
}

func (it *remoteIter) Err() error { return it.err }

// Close releases the server-side cursor lease. Idempotent; best-effort
// when the connection (or its context) is already gone — the server's
// idle janitor is the backstop.
func (it *remoteIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.buf = nil
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	it.cn.call(ctx, &wire.Request{Op: wire.OpIterClose, Handle: it.handle})
	return nil
}

var _ kv.Iterator = (*remoteIter)(nil)
