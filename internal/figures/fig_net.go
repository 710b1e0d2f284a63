package figures

import (
	"fmt"
	"net"
	"runtime"

	"flodb/internal/client"
	"flodb/internal/core"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/server"
	"flodb/internal/workload"
)

// NetBench measures the service tier: one flodbd-style server over one
// FloDB engine, swept by client connection-pool size. Every column
// re-dials a fresh pool of N connections against the SAME running server
// and store, then drives a fixed offered concurrency (the thread count)
// of read/update pairs through it, so the sweep isolates the wire path —
// how far pipelined dispatch on few connections carries, and what more
// connections buy once a single socket's frame serialization and reader
// loop saturate. Kops/s (not Mops/s: every op pays a loopback round
// trip) plus read p50/p99 and write p99 per connection tier.
func NetBench(c Config) (*harness.Table, error) {
	c.Defaults()
	conns := []int{1, 4, 16, 64}
	threads := 32
	if c.Quick {
		conns = []int{1, 4, 16}
		threads = 16
	}

	dir, err := c.cellDir("netbench")
	if err != nil {
		return nil, err
	}
	inner, err := core.Open(core.Config{
		Dir:         dir,
		MemoryBytes: c.MemBytes,
		Durability:  kv.DurabilityNone, // loader shape, like the other throughput figures
		Storage:     storageOpts(c.MemBytes),
	})
	if err != nil {
		return nil, err
	}
	defer inner.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Store: inner})
	go srv.Serve(l)
	defer srv.Close()

	if err := initHalf(inner, c.Keys, false); err != nil {
		return nil, err
	}

	cols := make([]string, len(conns))
	for i, n := range conns {
		cols[i] = fmt.Sprintf("%d", n)
	}
	rows := []string{"throughput Kops/s", "read p50 µs", "read p99 µs", "write p99 µs"}
	tbl := harness.NewTable("Service tier: throughput and latency vs client connections (one server, one store)",
		fmt.Sprintf("pooled connections (%d threads)", threads), "Kops/s / µs", cols, rows)

	for ci, n := range conns {
		cl, err := client.Dial(l.Addr().String(), client.WithConns(n))
		if err != nil {
			return nil, err
		}
		res, err := harness.Run(cl, harness.RunOptions{
			Mix:            workload.ReadUpdate,
			Threads:        threads,
			Duration:       c.Duration,
			Keys:           c.Keys,
			MeasureLatency: true,
		})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("netbench: conns=%d: %w", n, err)
		}
		read := obs.QuantilesOf(res.ReadLat.Snapshot())
		tbl.Set(0, ci, res.MopsPerSec()*1000)
		tbl.Set(1, ci, float64(read.P50)/1e3)
		tbl.Set(2, ci, float64(read.P99)/1e3)
		tbl.Set(3, ci, float64(res.WriteLat.Snapshot().Quantile(0.99))/1e3)
		c.logf("netbench conns=%d -> %.1f Kops/s, read p99 %.0f µs",
			n, res.MopsPerSec()*1000, float64(read.P99)/1e3)
		cl.Close()
	}

	info := srv.Info()
	tbl.AddNote("server lifetime: %d requests over %d connections, %s in / %s out, %d slow (>1s)",
		info.Requests, info.ConnsTotal, harness.ByteSize(int64(info.BytesIn)),
		harness.ByteSize(int64(info.BytesOut)), info.SlowRequests)
	tbl.AddNote("loopback TCP; every op is one wire round trip through internal/wire; fixed offered concurrency per column")
	if p := runtime.GOMAXPROCS(0); p < 4 {
		tbl.AddNote("GOMAXPROCS=%d: pipelined dispatch cannot spread — connection scaling only manifests on multi-core runners", p)
	}
	return tbl, nil
}
