package figures

import (
	"context"
	"net"
	"time"

	"flodb/internal/client"
	"flodb/internal/core"
	"flodb/internal/diskenv"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/server"
)

// netStore is FloDB/net: a FloDB engine served by an in-process
// flodbd-style server over a loopback TCP socket, accessed EXCLUSIVELY
// through the remote client — every operation the harness or a
// conformance suite issues pays a real network round trip, the wire
// encode/decode, and the server's pipelined dispatch. The embedded
// Client provides the whole kv.Store contract; the wrapper adds only
// the lifecycle the suites need in-process: Close tears down the full
// stack, CrashForTesting models the server PROCESS dying (sockets cut,
// no drain, no close-time WAL sync), and WaitDiskQuiesce reaches the
// inner engine directly — it is a test-setup barrier, not part of the
// remote contract.
type netStore struct {
	*client.Client
	srv   *server.Server
	inner *core.DB
}

// openNet builds the loopback service stack over a fresh FloDB engine.
func openNet(dir string, memBytes int64, lim *diskenv.Limiter, walOn bool) (kv.Store, error) {
	inner, err := core.Open(core.Config{
		Dir:            dir,
		MemoryBytes:    memBytes,
		DisableWAL:     !walOn,
		PersistLimiter: lim,
		Storage:        storageOpts(memBytes),
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		inner.Close()
		return nil, err
	}
	srv := server.New(server.Config{Store: inner})
	go srv.Serve(l)
	cl, err := client.Dial(l.Addr().String())
	if err != nil {
		srv.Close()
		inner.Close()
		return nil, err
	}
	return &netStore{Client: cl, srv: srv, inner: inner}, nil
}

// Close shuts the stack down the way flodbd's SIGTERM path does: client
// gone, server drained, then the store's close-time WAL sync.
func (n *netStore) Close() error {
	n.Client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n.srv.Shutdown(ctx)
	return n.inner.Close()
}

// CrashForTesting abandons the whole service process: connections cut
// mid-flight, no drain, and the engine loses its staged WAL tail — the
// acked-but-buffered window a real server crash loses.
func (n *netStore) CrashForTesting() {
	n.Client.Close()
	n.srv.Close()
	n.inner.CrashForTesting()
}

// WaitDiskQuiesce settles the inner engine's background work (§5.2's
// pre-measurement barrier).
func (n *netStore) WaitDiskQuiesce() { n.inner.WaitDiskQuiesce() }

var (
	_ kv.Store         = (*netStore)(nil)
	_ harness.Quiescer = (*netStore)(nil)
)
