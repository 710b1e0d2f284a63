// Command flodbd serves a FloDB store over the wire protocol to remote
// clients (internal/client, or flodb -remote):
//
//	flodbd -db /var/lib/flodb -addr :4380
//
// One process owns the store directory; any number of clients share the
// engine through it — the pipelined dispatch means a single client
// connection can still saturate the Membuffer's parallel write path.
//
// -wal-writethrough hands every WAL record to the OS at append time, so
// an acked Buffered write survives kill -9 of the process (not a machine
// crash, which still needs DurabilitySync or Sync):
//
//	flodbd -db /var/lib/flodb -addr :4380 -wal-writethrough
//
// Shutdown is a drain: on SIGINT or SIGTERM the daemon stops accepting,
// lets every in-flight request finish and flush its response, then
// closes the store. The close-time WAL sync makes every acknowledged
// Buffered write durable, so a clean `kill -TERM` never loses an acked
// write. -drain-timeout bounds how long a stuck request can hold the
// process; past it in-flight work is canceled and the store still
// closes cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"flodb"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/server"
	"flodb/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "flodbd: %v\n", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a termination signal has been
// handled and the drain finished. notify, when non-nil, receives the
// bound listen address once the server is accepting — the in-process
// test hook (and the reason main's body lives here).
func run(args []string, logw io.Writer, notify func(addr string)) error {
	fs := flag.NewFlagSet("flodbd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		dir        = fs.String("db", "", "database directory (required)")
		addr       = fs.String("addr", ":4380", "listen address")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file once accepting (for scripts and tests using -addr :0)")
		mem        = fs.Int64("mem", 0, "memory component bytes (0 = default)")
		blockCache = fs.Int64("block-cache", 0, "read cache bytes for point reads of disk-resident keys (0 = default 32 MiB)")
		tableCache = fs.Int("table-cache", 0, "max resident sstable readers, one open fd each (0 = default 256)")
		durability = fs.String("durability", "", "default write durability: none|buffered|sync (default buffered)")
		writeThru  = fs.Bool("wal-writethrough", false, "hand WAL records to the OS at append: acked Buffered writes survive kill -9 of the process, not a machine crash")
		maxConns   = fs.Int("max-conns", 0, "max concurrent connections (0 = default 1024)")
		maxInFl    = fs.Int("max-inflight", 0, "max requests per connection running off its reader: all but point Get/Put/Delete (0 = default 128)")
		leaseIdle  = fs.Duration("lease-idle", 0, "idle snapshot/iterator lease expiry (0 = default 5m)")
		slow       = fs.Duration("slow", 0, "slow-request accounting threshold (0 = default 1s)")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics, /events, /statsz and /debug/pprof on this HTTP address (empty = disabled)")
		debugFile  = fs.String("debug-addr-file", "", "write the bound debug address to this file (for scripts using -debug-addr 127.0.0.1:0)")
		drainTO    = fs.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
		verbose    = fs.Bool("v", false, "log per-connection diagnostics")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		fs.Usage()
		return fmt.Errorf("-db is required")
	}

	logger := log.New(logw, "flodbd: ", log.LstdFlags)

	var opts []flodb.Option
	if *mem > 0 {
		opts = append(opts, flodb.WithMemory(*mem))
	}
	if *blockCache > 0 {
		opts = append(opts, flodb.WithBlockCacheSize(*blockCache))
	}
	if *tableCache > 0 {
		opts = append(opts, flodb.WithTableCacheCapacity(*tableCache))
	}
	if *writeThru {
		opts = append(opts, flodb.WithWALWriteThrough())
	}
	if *durability != "" {
		d, err := kv.ParseDurability(*durability)
		if err != nil {
			return err
		}
		opts = append(opts, flodb.WithDurability(d))
	}
	db, err := flodb.Open(*dir, opts...)
	if err != nil {
		return err
	}

	cfg := server.Config{
		Store:       db,
		MaxConns:    *maxConns,
		MaxInFlight: *maxInFl,
		LeaseIdle:   *leaseIdle,
		SlowRequest: *slow,
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	srv := server.New(cfg)

	var debugSrv *http.Server
	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			db.Close()
			return err
		}
		// The server's snapshot (its registry merged with the store's)
		// feeds /metrics, /statsz and OpTelemetry alike, so every surface
		// agrees on what the process is doing.
		debugSrv = &http.Server{Handler: obs.DebugMux(obs.DebugOptions{
			Snapshot: srv.TelemetrySnapshot,
			Events:   srv.TelemetryEvents,
			Statsz:   func() any { return wire.NewStatsPayload(srv.TelemetrySnapshot()) },
		})}
		go debugSrv.Serve(dl)
		logger.Printf("debug telemetry on http://%s/metrics", dl.Addr())
		if *debugFile != "" {
			if err := writeAddrFile(*debugFile, dl.Addr().String()); err != nil {
				debugSrv.Close()
				db.Close()
				return err
			}
		}
		defer debugSrv.Close()
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		db.Close()
		return err
	}
	logger.Printf("serving %s on %s", *dir, l.Addr())
	if *addrFile != "" {
		if err := writeAddrFile(*addrFile, l.Addr().String()); err != nil {
			db.Close()
			return err
		}
	}
	if notify != nil {
		notify(l.Addr().String())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case sig := <-sigCh:
		logger.Printf("%v: draining", sig)
	case err := <-serveErr:
		// The listener died under us; still drain what's in flight.
		logger.Printf("accept loop stopped: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Printf("drain cut off: %v", err)
	}
	if err := db.Close(); err != nil {
		// Close after the drain: the store's close-time WAL sync is what
		// makes acked Buffered writes durable across a clean shutdown.
		return fmt.Errorf("close store: %w", err)
	}
	logger.Printf("drained and closed")
	return nil
}

// writeAddrFile publishes a bound address write-then-rename, so a
// watcher never reads a half-written file.
func writeAddrFile(path, addr string) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
