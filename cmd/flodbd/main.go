// Command flodbd serves a FloDB store over the wire protocol to remote
// clients (internal/client, or flodb -remote):
//
//	flodbd -db /var/lib/flodb -addr :4380
//	flodbd -db /var/lib/flodb -addr :4380 -shards 4
//
// One process owns the store directory; any number of clients share the
// engine through it — the pipelined dispatch means a single client
// connection can still saturate the Membuffer's parallel write path.
//
// As a RING NODE, flodbd gets a stable identity and a hardened commit
// log:
//
//	flodbd -db /var/lib/flodb -addr :4380 -node-id n1 -wal-writethrough
//
// -node-id is what coordinators verify in health probes (a membership
// list names IDs, not ports); -wal-writethrough hands every WAL record
// to the OS at append time, so an acked replica write survives kill -9
// of the node — the property cluster quorum acks are built on.
//
// As a CLUSTER GATEWAY, flodbd serves the coordinator itself: clients
// speak plain wire protocol to the gateway, which fans every operation
// out to the ring at the configured quorums:
//
//	flodbd -db /var/lib/flodb-gw -addr :4390 \
//	    -cluster n1=host1:4380,n2=host2:4380,n3=host3:4380 \
//	    -replication 2 -write-quorum 2 -read-quorum 1
//
// In gateway mode -db holds the coordinator's state (the hinted-handoff
// logs under <db>/hints), not an engine.
//
// Shutdown is a drain: on SIGINT or SIGTERM the daemon stops accepting,
// lets every in-flight request finish and flush its response, then
// closes the store. The close-time WAL sync makes every acknowledged
// Buffered write durable, so a clean `kill -TERM` never loses an acked
// write. A gateway additionally replays what it can of the pending
// hinted-handoff backlog and fsyncs the rest to disk, logging the
// counts — an operator-initiated restart never silently strands queued
// handoffs. -drain-timeout bounds how long a stuck request can hold the
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
	"path/filepath"
	"syscall"
	"time"

	"flodb"
	"flodb/internal/cluster"
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
		dir        = fs.String("db", "", "database directory (required; gateway state dir with -cluster)")
		addr       = fs.String("addr", ":4380", "listen address")
		addrFile   = fs.String("addr-file", "", "write the bound listen address to this file once accepting (for scripts and tests using -addr :0)")
		mem        = fs.Int64("mem", 0, "memory component bytes (0 = default)")
		shards     = fs.Int("shards", 0, "range-partition across n shards (0/1 = unsharded)")
		blockCache = fs.Int64("block-cache", 0, "block cache bytes for the disk read path, split across shards (0 = default 32 MiB)")
		tableCache = fs.Int("table-cache", 0, "max resident sstable readers (open fds) per shard (0 = default 256)")
		durability = fs.String("durability", "", "default write durability: none|buffered|sync (default buffered)")
		nodeID     = fs.String("node-id", "", "stable ring identity served in health probes (cluster node mode)")
		writeThru  = fs.Bool("wal-writethrough", false, "hand WAL records to the OS at append: acked writes survive kill -9 (ring replicas run with this)")
		seeds      = fs.String("cluster", "", "gateway mode: serve a quorum coordinator over these ring members (comma-separated [id=]host:port)")
		replicas   = fs.Int("replication", 0, "gateway: replicas per key R (default min(2, members))")
		writeQ     = fs.Int("write-quorum", 0, "gateway: owner acks per write W (default R)")
		readQ      = fs.Int("read-quorum", 0, "gateway: owner answers per read Rq (default 1)")
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

	var (
		db    kv.Store
		coord *cluster.Client // non-nil in gateway mode
	)
	if *seeds != "" {
		members, err := cluster.ParseMembers(*seeds)
		if err != nil {
			return err
		}
		coord, err = cluster.Open(cluster.Config{
			Members:     members,
			Replication: *replicas,
			WriteQuorum: *writeQ,
			ReadQuorum:  *readQ,
			HintDir:     filepath.Join(*dir, "hints"),
			Logf:        logger.Printf,
		})
		if err != nil {
			return err
		}
		db = coord
		logger.Printf("gateway over %d members (epoch %#x), %d hints pending from previous runs",
			len(members), coord.Ring().Epoch(), coord.HintsPending())
	} else {
		var opts []flodb.Option
		if *mem > 0 {
			opts = append(opts, flodb.WithMemory(*mem))
		}
		if *shards > 0 {
			opts = append(opts, flodb.WithShards(*shards))
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
		ldb, err := flodb.Open(*dir, opts...)
		if err != nil {
			return err
		}
		db = ldb
	}

	// The daemon is where the store's and the server's telemetry meet:
	// one merged snapshot feeds /metrics, /statsz, and OpTelemetry, so
	// every surface agrees on what the process is doing.
	var srv *server.Server
	snapshot := func() obs.Snapshot {
		snaps := []obs.Snapshot{srv.TelemetrySnapshot()}
		if ts, ok := db.(obs.SnapshotProvider); ok {
			snaps = append(snaps, ts.TelemetrySnapshot())
		}
		return obs.Merge(snaps...)
	}
	events := func(n int) []obs.Event {
		if ts, ok := db.(obs.EventProvider); ok {
			return ts.TelemetryEvents(n)
		}
		return nil
	}

	cfg := server.Config{
		Store:       db,
		NodeID:      *nodeID,
		MaxConns:    *maxConns,
		MaxInFlight: *maxInFl,
		LeaseIdle:   *leaseIdle,
		SlowRequest: *slow,
		Telemetry: func(maxEvents int) wire.TelemetryPayload {
			s := snapshot()
			return wire.TelemetryPayload{
				Node:    *nodeID,
				Ops:     obs.OpQuantiles(s),
				Metrics: s.Metrics,
				Events:  events(maxEvents),
			}
		},
	}
	if *verbose {
		cfg.Logf = logger.Printf
	}
	srv = server.New(cfg)

	var debugSrv *http.Server
	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			db.Close()
			return err
		}
		statsz := func() any {
			payload := wire.StatsPayload{Server: srv.Info()}
			if sp, ok := db.(kv.StatsProvider); ok {
				payload.Store = sp.Stats()
			}
			payload.Ops = obs.OpQuantiles(snapshot())
			return payload
		}
		debugSrv = &http.Server{Handler: obs.DebugMux(obs.DebugOptions{
			Snapshot: snapshot,
			Events:   events,
			Statsz:   statsz,
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
	if coord != nil {
		// A gateway's equivalent of the close-time WAL sync: flush the
		// hinted-handoff backlog (replaying toward reachable members,
		// fsyncing what must wait) and say what happened — a restart must
		// never silently strand queued handoffs.
		pending := coord.HintsPending()
		if pending > 0 {
			logger.Printf("draining %d pending hinted-handoff records", pending)
		}
		if err := coord.Close(); err != nil {
			return fmt.Errorf("close coordinator: %w", err)
		}
		if left := coord.HintsPending(); left > 0 {
			logger.Printf("%d hints still queued on disk for unreachable members; the next start replays them", left)
		} else if pending > 0 {
			logger.Printf("hint backlog fully drained")
		}
	} else if err := db.Close(); err != nil {
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
