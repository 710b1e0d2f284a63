package server_test

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flodb/internal/client"
	"flodb/internal/core"
	"flodb/internal/kv"
	"flodb/internal/server"
	"flodb/internal/wire"
)

// startServer opens a small FloDB store and serves it on a loopback
// listener. Returns the address and the store (for reopen assertions).
func startServer(t *testing.T, cfg server.Config) (addr string, store *core.DB, srv *server.Server, dir string) {
	t.Helper()
	dir = t.TempDir()
	store = openStore(t, dir)
	cfg.Store = store
	srv, addr = serve(t, cfg, nil)
	return addr, store, srv, dir
}

func openStore(t *testing.T, dir string) *core.DB {
	t.Helper()
	store, err := core.Open(core.Config{Dir: dir, MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	return store
}

// serve runs a server for cfg on a loopback listener, accepting through
// tap when it is not nil.
func serve(t *testing.T, cfg server.Config, tap *tapListener) (*server.Server, string) {
	t.Helper()
	srv := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var served net.Listener = l
	if tap != nil {
		tap.Listener = l
		served = tap
	}
	go srv.Serve(served)
	t.Cleanup(srv.Close)
	return srv, l.Addr().String()
}

func dial(t *testing.T, addr string, opts ...client.Option) *client.Client {
	t.Helper()
	cl, err := client.Dial(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func TestRoundTrip(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	cl := dial(t, addr)
	ctx := context.Background()

	if err := cl.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, []byte("k1"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	v, found, err := cl.Get(ctx, []byte("k1"))
	if err != nil || !found || string(v) != "v1" {
		t.Fatalf("get: %q %v %v", v, found, err)
	}
	if _, found, err = cl.Get(ctx, []byte("absent")); err != nil || found {
		t.Fatalf("absent get: %v %v", found, err)
	}
	if err := cl.Delete(ctx, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if _, found, _ = cl.Get(ctx, []byte("k1")); found {
		t.Fatal("deleted key still present")
	}

	b := kv.NewBatch()
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("a"))
	if err := cl.Apply(ctx, b); err != nil {
		t.Fatal(err)
	}
	pairs, err := cl.Scan(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || string(pairs[0].Key) != "b" || string(pairs[0].Value) != "2" {
		t.Fatalf("scan after batch: %v", pairs)
	}
	if err := cl.Sync(ctx); err != nil {
		t.Fatal(err)
	}

	st := cl.Stats()
	if st.Puts == 0 || st.ServerRequests == 0 || st.ServerConnsOpen == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestIteratorStreamsInChunks(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	// A 7-pair chunk over 100 keys forces many refill round trips.
	cl := dial(t, addr, client.WithChunkPairs(7))
	ctx := context.Background()
	const n = 100
	for i := 0; i < n; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	it, err := cl.NewIterator(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got int
	var prev []byte
	for ok := it.First(); ok; ok = it.Next() {
		if prev != nil && bytes.Compare(it.Key(), prev) <= 0 {
			t.Fatalf("out of order: %q after %q", it.Key(), prev)
		}
		prev = append(prev[:0], it.Key()...)
		got++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("iterated %d keys, want %d", got, n)
	}
	// Seek repositions the server-side cursor.
	if !it.Seek([]byte("k050")) || string(it.Key()) != "k050" {
		t.Fatalf("seek: %q, err %v", it.Key(), it.Err())
	}
	if !it.Next() || string(it.Key()) != "k051" {
		t.Fatalf("next after seek: %q", it.Key())
	}
}

func TestIteratorCancelMidStream(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	cl := dial(t, addr, client.WithChunkPairs(4))
	ctx := context.Background()
	for i := 0; i < 64; i++ {
		if err := cl.Put(ctx, []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	itCtx, cancel := context.WithCancel(ctx)
	it, err := cl.NewIterator(itCtx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.First() {
		t.Fatalf("first: %v", it.Err())
	}
	for i := 0; i < 10; i++ {
		if !it.Next() {
			t.Fatalf("next %d: %v", i, it.Err())
		}
	}
	cancel()
	// The buffered tail may still serve a few Next calls; a refill must
	// fail with the context error.
	for i := 0; i < 16 && it.Next(); i++ {
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("after cancel: %v, want context.Canceled", it.Err())
	}
}

func TestSnapshotIsolationOverWire(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	cl := dial(t, addr)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Put(ctx, []byte("k"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	v, found, err := snap.Get(ctx, []byte("k"))
	if err != nil || !found || string(v) != "old" {
		t.Fatalf("snapshot get: %q %v %v", v, found, err)
	}
	if v, _, _ := cl.Get(ctx, []byte("k")); string(v) != "new" {
		t.Fatalf("live get: %q", v)
	}
	if err := snap.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := snap.Get(ctx, []byte("k")); !errors.Is(err, kv.ErrSnapshotReleased) {
		t.Fatalf("use after close: %v, want ErrSnapshotReleased", err)
	}
}

func TestLeaseExpiry(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{LeaseIdle: 50 * time.Millisecond})
	cl := dial(t, addr)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// Idle long past LeaseIdle: the janitor must collect the lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, _, err = snap.Get(ctx, []byte("k"))
		if errors.Is(err, kv.ErrSnapshotReleased) {
			return
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("lease never expired")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestPipelinedRequestsShareOneConnection(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	cl := dial(t, addr, client.WithConns(1))
	ctx := context.Background()
	const workers, perWorker = 16, 50
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-%03d", w, i))
				if err := cl.Put(ctx, key, key); err != nil {
					errCh <- err
					return
				}
				v, found, err := cl.Get(ctx, key)
				if err != nil || !found || !bytes.Equal(v, key) {
					errCh <- fmt.Errorf("get %q: %q %v %v", key, v, found, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	pairs, err := cl.Scan(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != workers*perWorker {
		t.Fatalf("scan found %d keys, want %d", len(pairs), workers*perWorker)
	}
}

func TestClientCloseReturnsErrClosed(t *testing.T) {
	addr, _, _, _ := startServer(t, server.Config{})
	cl := dial(t, addr)
	ctx := context.Background()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	if err := cl.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("put after close: %v, want ErrClosed", err)
	}
	if _, _, err := cl.Get(ctx, []byte("k")); !errors.Is(err, kv.ErrClosed) {
		t.Fatalf("get after close: %v, want ErrClosed", err)
	}
}

// TestDrainFlushesInFlight asserts the Shutdown contract: requests
// accepted before the drain complete and flush their responses, and
// acked Buffered writes survive the drain + store close + reopen.
func TestDrainFlushesInFlight(t *testing.T) {
	dir := t.TempDir()
	store, err := core.Open(core.Config{Dir: dir, MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(server.Config{Store: store})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	cl, err := client.Dial(l.Addr().String(), client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 200
	acked := make([][]byte, 0, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("d%04d", i))
			// Buffered class: logged, acked without fsync. The ack is a
			// promise that a CLEAN shutdown preserves the write.
			if err := cl.Put(ctx, key, key, kv.WithDurability(kv.DurabilityBuffered)); err == nil {
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()

	// Point requests answered on the reader wait in its writer until no
	// further request is buffered. Leave the reader stuck inside a
	// half-sent frame after a burst of Gets, so their answers are still
	// buffered when the drain starts: the drain must deliver them.
	nc, br := rawDial(t, l.Addr().String())
	const gets = 32
	var burst []byte
	for i := 0; i < gets; i++ {
		burst = wire.AppendRequest(burst, &wire.Request{ID: uint64(i + 1), Op: wire.OpGet, Payload: []byte(fmt.Sprintf("d%04d", i))})
	}
	partial := wire.AppendRequest(nil, &wire.Request{ID: gets + 1, Op: wire.OpGet, Payload: []byte("d0000")})
	if _, err := nc.Write(append(burst, partial[:len(partial)-2]...)); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Info().RequestsByOp["get"] < gets; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("server read %d of %d Gets", srv.Info().RequestsByOp["get"], gets)
		}
	}

	sctx, scancel := context.WithTimeout(ctx, 10*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	readGets(t, br, gets, func(id uint64) string { return fmt.Sprintf("d%04d", id-1) })
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := core.Open(core.Config{Dir: dir, MemoryBytes: 8 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, key := range acked {
		if _, found, err := re.Get(ctx, key); err != nil || !found {
			t.Fatalf("acked write %q lost across drain: found=%v err=%v", key, found, err)
		}
	}
	if len(acked) != n {
		t.Fatalf("only %d/%d puts acked before drain", len(acked), n)
	}
}

// TestServerStress is the nightly -race exercise: concurrent clients,
// pipelined batches, snapshots, iterators with mid-stream cancels, all
// against one server, ending in a drain.
func TestServerStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test; skipped with -short")
	}
	addr, _, srv, _ := startServer(t, server.Config{MaxInFlight: 32})
	ctx := context.Background()

	const clients = 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients*4)
	for cnum := 0; cnum < clients; cnum++ {
		cl := dial(t, addr, client.WithConns(2), client.WithChunkPairs(16))
		// Pipelined batch writers.
		wg.Add(1)
		go func(cnum int, cl *client.Client) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				b := kv.NewBatch()
				for j := 0; j < 8; j++ {
					b.Put([]byte(fmt.Sprintf("c%d-b%03d-%d", cnum, i, j)), []byte("v"))
				}
				if err := cl.Apply(ctx, b); err != nil {
					errCh <- fmt.Errorf("apply: %w", err)
					return
				}
			}
		}(cnum, cl)
		// Scanning readers with mid-stream cancels.
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ictx, cancel := context.WithCancel(ctx)
				it, err := cl.NewIterator(ictx, nil, nil)
				if err != nil {
					cancel()
					errCh <- fmt.Errorf("iter open: %w", err)
					return
				}
				for ok, n := it.First(), 0; ok && n < 30; ok, n = it.Next(), n+1 {
					if n == 15 && i%2 == 0 {
						cancel() // mid-stream cancel half the time
					}
				}
				if err := it.Err(); err != nil && !errors.Is(err, context.Canceled) {
					cancel()
					errCh <- fmt.Errorf("iter: %w", err)
					return
				}
				it.Close()
				cancel()
			}
		}(cl)
		// Snapshot open/read/close churn.
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				snap, err := cl.Snapshot(ctx)
				if err != nil {
					errCh <- fmt.Errorf("snapshot: %w", err)
					return
				}
				if _, err := snap.Scan(ctx, nil, []byte("c1")); err != nil {
					errCh <- fmt.Errorf("snap scan: %w", err)
					snap.Close()
					return
				}
				snap.Close()
			}
		}(cl)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("drain after stress: %v", err)
	}
}

// --- Point requests on the reader --------------------------------------------

// rawDial opens a connection and runs the client half of the handshake,
// for tests that need to control exactly which bytes reach the server.
func rawDial(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	if _, err := nc.Write(wire.AppendHello(nil, wire.LocalHello(0))); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(nc)
	body, err := wire.ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wire.ParseHello(body); err != nil {
		t.Fatal(err)
	}
	return nc, br
}

// readGets reads n Get responses, in any order, and checks that ids 1..n
// each came back once with the value want gives for it.
func readGets(t *testing.T, br *bufio.Reader, n int, want func(id uint64) string) {
	t.Helper()
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		body, err := wire.ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i, n, err)
		}
		resp, err := wire.ParseResponse(body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ID < 1 || resp.ID > uint64(n) || seen[resp.ID] {
			t.Fatalf("response id %d: outside 1..%d or repeated", resp.ID, n)
		}
		seen[resp.ID] = true
		if resp.Status != wire.StatusOK || len(resp.Payload) == 0 || resp.Payload[0] != 1 || string(resp.Payload[1:]) != want(resp.ID) {
			t.Fatalf("response %d: status %d payload %q, want found %q", resp.ID, resp.Status, resp.Payload, want(resp.ID))
		}
	}
}

// tapListener wraps every accepted connection in a tapConn.
type tapListener struct {
	net.Listener
	failAfter int64 // tapConn.failAfter for every connection; 0 never fails
	mu        sync.Mutex
	conns     []*tapConn
}

func (l *tapListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := &tapConn{Conn: nc, failAfter: l.failAfter}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

func (l *tapListener) conn(i int) *tapConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[i]
}

// tapConn counts the server's socket writes, and fails every write that
// would take the bytes written past failAfter.
type tapConn struct {
	net.Conn
	failAfter int64
	writes    atomic.Int64
	written   atomic.Int64
}

var errInjected = errors.New("injected write failure")

func (c *tapConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.failAfter > 0 && c.written.Load()+int64(len(p)) > c.failAfter {
		return 0, errInjected
	}
	c.written.Add(int64(len(p)))
	return c.Conn.Write(p)
}

// A pipelined burst of point reads is answered in a handful of socket
// writes, not one per request.
func TestPipelinedGetsShareSocketWrites(t *testing.T) {
	store := openStore(t, t.TempDir())
	const n = 64
	for i := 1; i <= n; i++ {
		if err := store.Put(context.Background(), []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprintf("v%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	tap := &tapListener{}
	_, addr := serve(t, server.Config{Store: store}, tap)
	nc, br := rawDial(t, addr)
	before := tap.conn(0).writes.Load() // the handshake reply

	var burst []byte
	for i := 1; i <= n; i++ {
		burst = wire.AppendRequest(burst, &wire.Request{ID: uint64(i), Op: wire.OpGet, Payload: []byte(fmt.Sprintf("k%02d", i))})
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	readGets(t, br, n, func(id uint64) string { return fmt.Sprintf("v%02d", id) })
	if w := tap.conn(0).writes.Load() - before; w > 8 {
		t.Fatalf("%d Get responses took %d socket writes, want <= 8", n, w)
	}
}

// A response write that fails closes the connection: the reader stops
// executing requests whose answers can go nowhere, the connection count
// drops, and the drain finds no handler left behind.
func TestFailedResponseWriteClosesConnection(t *testing.T) {
	store := openStore(t, t.TempDir())
	if err := store.Put(context.Background(), []byte("k"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	tap := &tapListener{failAfter: 64} // the handshake reply fits, no response does
	srv, addr := serve(t, server.Config{Store: store}, tap)
	nc, _ := rawDial(t, addr)

	// Point reads, with a ping every 50 requests for the handler path.
	const n = 1000
	var burst []byte
	for i := 1; i <= n; i++ {
		req := wire.Request{ID: uint64(i), Op: wire.OpGet, Payload: []byte("k")}
		if i%50 == 0 {
			req = wire.Request{ID: uint64(i), Op: wire.OpPing}
		}
		burst = wire.AppendRequest(burst, &req)
	}
	if _, err := nc.Write(burst); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.Info().ConnsOpen != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("connection still open %v after its response writes failed", 10*time.Second)
		}
	}
	if got := srv.Info().Requests; got >= n {
		t.Fatalf("server executed all %d requests after its first response write failed", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain after the failed connection: %v", err)
	}
}

// gateStore holds chosen requests inside the store until released: a
// Sync-class Put, and a Get of the key "gate". Each one signals entered on
// arrival; one whose context ends first signals canceled and fails.
type gateStore struct {
	kv.Store
	entered, canceled chan struct{}
	release           chan struct{}
}

func newGate(inner kv.Store) *gateStore {
	return &gateStore{Store: inner, entered: make(chan struct{}, 16), canceled: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gateStore) hold(ctx context.Context) error {
	g.entered <- struct{}{}
	select {
	case <-g.release:
		return nil
	case <-ctx.Done():
		g.canceled <- struct{}{}
		return ctx.Err()
	}
}

func (g *gateStore) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	var o kv.WriteOptions
	for _, opt := range opts {
		opt.ApplyWrite(&o)
	}
	if o.Durability == kv.DurabilitySync {
		if err := g.hold(ctx); err != nil {
			return err
		}
	}
	return g.Store.Put(ctx, key, value, opts...)
}

func (g *gateStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	if string(key) == "gate" {
		if err := g.hold(ctx); err != nil {
			return nil, false, err
		}
	}
	return g.Store.Get(ctx, key)
}

// within fails the test unless fn returns in time.
func within(t *testing.T, d time.Duration, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(d):
		t.Fatalf("%s: still waiting after %v", what, d)
	}
}

func getsFlow(cl *client.Client, n int) error {
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if v, found, err := cl.Get(context.Background(), key); err != nil || !found || !bytes.Equal(v, key) {
			return fmt.Errorf("get %s: %q %v %v", key, v, found, err)
		}
	}
	return nil
}

func startGated(t *testing.T) (*gateStore, *server.Server, *client.Client) {
	t.Helper()
	store := openStore(t, t.TempDir())
	for i := 0; i < 20; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := store.Put(context.Background(), key, key); err != nil {
			t.Fatal(err)
		}
	}
	g := newGate(store)
	srv, addr := serve(t, server.Config{Store: g}, nil)
	return g, srv, dial(t, addr, client.WithConns(1))
}

// A Sync-class write waiting inside the store runs on a goroutine of its
// own: point reads pipelined behind it on the same connection are
// answered meanwhile.
func TestSyncWriteDoesNotBlockPointReads(t *testing.T) {
	g, _, cl := startGated(t)
	putErr := make(chan error, 1)
	go func() { putErr <- cl.Put(context.Background(), []byte("synced"), []byte("v"), kv.WithSync()) }()
	<-g.entered
	within(t, 10*time.Second, "Gets behind a blocked Sync Put", func() error { return getsFlow(cl, 20) })
	close(g.release)
	if err := <-putErr; err != nil {
		t.Fatal(err)
	}
	if v, found, err := cl.Get(context.Background(), []byte("synced")); err != nil || !found || string(v) != "v" {
		t.Fatalf("synced put: %q %v %v", v, found, err)
	}
}

// OpCancel reaches a request on the handler path while point requests
// keep flowing on the reader.
func TestCancelReachesHandlerWhileReadsFlow(t *testing.T) {
	g, srv, cl := startGated(t)
	ctx, cancel := context.WithCancel(context.Background())
	putErr := make(chan error, 1)
	go func() { putErr <- cl.Put(ctx, []byte("synced"), []byte("v"), kv.WithSync()) }()
	<-g.entered
	within(t, 10*time.Second, "Gets before the cancel", func() error { return getsFlow(cl, 20) })
	cancel()
	if err := <-putErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled put: %v", err)
	}
	select {
	case <-g.canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("the server never canceled the Sync Put's context")
	}
	within(t, 10*time.Second, "Gets after the cancel", func() error { return getsFlow(cl, 20) })
	for deadline := time.Now().Add(10 * time.Second); srv.Info().InFlight != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests still in flight", srv.Info().InFlight)
		}
	}
}

// A point Get runs on its connection's reader, so a Get held inside the
// store holds up the next Get on that connection until it is released.
// The server serves its own store: it is no gateway (gateway=false), and
// no server mode runs point requests anywhere but inline.
func TestGatewayNeverRunsInline(t *testing.T) {
	t.Run("gateway=false", func(t *testing.T) {
		store := openStore(t, t.TempDir())
		if err := store.Put(context.Background(), []byte("k0"), []byte("k0")); err != nil {
			t.Fatal(err)
		}
		g := newGate(store)
		_, addr := serve(t, server.Config{Store: g}, nil)
		cl := dial(t, addr, client.WithConns(1))
		held := make(chan error, 1)
		go func() {
			_, _, err := cl.Get(context.Background(), []byte("gate"))
			held <- err
		}()
		<-g.entered
		next := make(chan error, 1)
		go func() { next <- getsFlow(cl, 1) }()
		select {
		case err := <-next:
			t.Fatalf("Get answered (%v) while the Get before it on the reader was held", err)
		case <-time.After(50 * time.Millisecond):
		}
		close(g.release)
		if err := <-next; err != nil {
			t.Fatal(err)
		}
		if err := <-held; err != nil {
			t.Fatal(err)
		}
	})
}

// Point requests run on the reader still count in the per-opcode request
// counters, the latency histograms and the slow-request counter.
func TestInlineRequestsAreAccounted(t *testing.T) {
	addr, _, srv, _ := startServer(t, server.Config{SlowRequest: time.Nanosecond})
	cl := dial(t, addr, client.WithConns(1))
	const n = 25
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("k%d", i))
		if err := cl.Put(context.Background(), key, key); err != nil {
			t.Fatal(err)
		}
	}
	if err := getsFlow(cl, n); err != nil {
		t.Fatal(err)
	}
	if err := cl.Delete(context.Background(), []byte("k0")); err != nil {
		t.Fatal(err)
	}
	info := srv.Info()
	if info.RequestsByOp["put"] != n || info.RequestsByOp["get"] != n || info.RequestsByOp["delete"] != 1 {
		t.Fatalf("requests by op: %v", info.RequestsByOp)
	}
	if info.SlowRequests < 2*n+1 {
		t.Fatalf("%d slow requests, want >= %d", info.SlowRequests, 2*n+1)
	}
	counts := map[string]uint64{}
	for _, m := range srv.TelemetrySnapshot().Metrics {
		if m.Hist != nil {
			counts[m.Name] = m.Hist.Count
		}
	}
	for op, want := range map[string]uint64{"put": n, "get": n, "delete": 1} {
		if got := counts[`flodbd_request_seconds{op="`+op+`"}`]; got != want {
			t.Fatalf("%s latency histogram holds %d observations, want %d", op, got, want)
		}
	}
}

// TestStatsReadOffTelemetry: a client's Stats is one telemetry reply read
// through kv.StatsOf — the engine's counters and the server's, taken while
// writers keep both moving, and equal to each side's own view once they
// stop.
func TestStatsReadOffTelemetry(t *testing.T) {
	addr, store, srv, _ := startServer(t, server.Config{})
	cl := dial(t, addr, client.WithConns(2))
	ctx := context.Background()
	const writers, n = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := cl.Put(ctx, []byte(fmt.Sprintf("w%d-%d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		if st := cl.Stats(); st.Puts > writers*n {
			t.Fatalf("Puts = %d mid-run, more than the %d issued", st.Puts, writers*n)
		}
	}
	wg.Wait()
	st := cl.Stats()
	info := srv.Info()
	if st.Puts != writers*n || st.Puts != store.Stats().Puts {
		t.Fatalf("Puts over the wire = %d, engine %d, want %d", st.Puts, store.Stats().Puts, writers*n)
	}
	if st.ServerRequests != info.Requests || st.ServerConnsTotal != info.ConnsTotal || st.ServerConnsOpen != info.ConnsOpen {
		t.Fatalf("server counters over the wire %+v disagree with Info %+v", st, info)
	}

	// A snapshot's pin and unpin are two events; the event cap asks for
	// every retained one, one, or none.
	snap, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	snap.Close()
	for maxEvents, want := range map[int]int{0: 2, 1: 1, -1: 0} {
		tp, err := cl.Telemetry(ctx, maxEvents)
		if got := len(tp.Events); err != nil || got < want || (maxEvents != 0 && got != want) {
			t.Fatalf("Telemetry(%d) = %d events, %v; want %d", maxEvents, got, err, want)
		}
	}
}
