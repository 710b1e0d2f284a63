// Command flodb is a small interactive CLI over a FloDB store:
//
//	flodb -db /tmp/db put <key> <value>
//	flodb -db /tmp/db get <key>
//	flodb -db /tmp/db del <key>
//	flodb -db /tmp/db scan <low> <high>
//	flodb -db /tmp/db batch put k1 v1 del k2 put k3 v3 ...   atomic batch
//	flodb -db /tmp/db sync               durability barrier over acked writes
//	flodb -db /tmp/db checkpoint <dir>   online openable copy of the store
//	flodb -db /tmp/db fill <n>        load n sequential keys
//	flodb -db /tmp/db stats
//
// The -durability flag sets the store's default class for every write the
// command performs: none (not logged), buffered (logged, no fsync — the
// default), or sync (group-committed fsync per write).
//
// The -shards flag range-partitions the store across N independent
// engines (fixed at creation; reopening needs the same value — or read
// it off the SHARDS manifest in the store root). With shards, the stats
// command appends a per-shard breakdown table, the imbalance signal
// under skewed workloads.
//
// The -remote flag points every command at a running flodbd server
// instead of opening a store directory: `flodb -remote :4380 get k`
// performs the same operation over the wire protocol. With -remote,
// -durability applies per operation (the server keeps its own default),
// the store-shape flags (-mem, -shards) belong to the server
// process, and checkpoint's directory is a path on the SERVER's
// filesystem.
//
// The -cluster flag joins a replicated ring instead: `flodb -cluster
// n1=host1:4380,n2=host2:4380 get k` runs the command as a quorum
// coordinator over the listed flodbd nodes — writes fan out to the
// key's R owners, reads merge the owners' newest copy. -replication,
// -write-quorum and -read-quorum set R/W/Rq (defaults 2/R/1); -hints
// names the directory persisting hinted-handoff records for members the
// command could not reach (default <tmp>/flodb-hints — point it
// somewhere durable for production use, and re-run with the same
// directory so queued hints drain). The remote-mode caveats apply, and
// checkpoint's directory is a path on EACH node's filesystem.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"flodb"
	"flodb/internal/client"
	"flodb/internal/cluster"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

func main() {
	dir := flag.String("db", "", "database directory (required unless -remote or -cluster)")
	remote := flag.String("remote", "", "flodbd server address; run the command over the wire instead of opening -db")
	seeds := flag.String("cluster", "", "ring seed list ([id=]host:port,...); run the command as a quorum coordinator over these flodbd nodes")
	replication := flag.Int("replication", 0, "cluster: replicas per key R (default min(2, members))")
	writeQuorum := flag.Int("write-quorum", 0, "cluster: owner acks required per write W (default R)")
	readQuorum := flag.Int("read-quorum", 0, "cluster: owner answers required per read Rq (default 1)")
	hints := flag.String("hints", "", "cluster: hinted-handoff directory (default <tmp>/flodb-hints)")
	mem := flag.Int64("mem", 0, "memory component bytes (0 = default; local only)")
	durability := flag.String("durability", "", "write durability: none|buffered|sync (local: store default; remote: per-op class)")
	shards := flag.Int("shards", 0, "range-partition across n shards (0/1 = unsharded; fixed at creation; local only)")
	jsonOut := flag.Bool("json", false, "stats: print the full machine-readable payload (counters + op latency quantiles) instead of text")
	flag.Parse()
	if (*dir == "" && *remote == "" && *seeds == "") || flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: flodb {-db <dir> | -remote <addr> | -cluster <seeds>} [-shards n] [-durability none|buffered|sync] {put k v | get k | del k | scan lo hi | batch ops... | sync | checkpoint dir | fill n | stats}")
		os.Exit(2)
	}

	var (
		db         kv.Store          // local engine or remote client — same contract
		writeOpts  []kv.WriteOption  // per-op durability override (remote mode)
		shardStats func() []kv.Stats // per-shard breakdown, local sharded stores only
	)
	modes := 0
	for _, set := range []bool{*dir != "", *remote != "", *seeds != ""} {
		if set {
			modes++
		}
	}
	if modes > 1 {
		fail(fmt.Errorf("-db, -remote and -cluster are mutually exclusive"))
	}
	switch {
	case *remote != "":
		if *durability != "" {
			d, err := kv.ParseDurability(*durability)
			if err != nil {
				fail(err)
			}
			writeOpts = append(writeOpts, kv.WithDurability(d))
		}
		cl, err := client.Dial(*remote)
		if err != nil {
			fail(err)
		}
		db = cl
	case *seeds != "":
		members, err := cluster.ParseMembers(*seeds)
		if err != nil {
			fail(err)
		}
		if *durability != "" {
			d, err := kv.ParseDurability(*durability)
			if err != nil {
				fail(err)
			}
			writeOpts = append(writeOpts, kv.WithDurability(d))
		}
		hintDir := *hints
		if hintDir == "" {
			hintDir = filepath.Join(os.TempDir(), "flodb-hints")
		}
		c, err := cluster.Open(cluster.Config{
			Members:     members,
			Replication: *replication,
			WriteQuorum: *writeQuorum,
			ReadQuorum:  *readQuorum,
			HintDir:     hintDir,
		})
		if err != nil {
			fail(err)
		}
		db = c
	default:
		var opts []flodb.Option
		if *mem > 0 {
			opts = append(opts, flodb.WithMemory(*mem))
		}
		if *shards > 0 {
			opts = append(opts, flodb.WithShards(*shards))
		}
		if *durability != "" {
			d, err := kv.ParseDurability(*durability)
			if err != nil {
				fail(err)
			}
			opts = append(opts, flodb.WithDurability(d))
		}
		ldb, err := flodb.Open(*dir, opts...)
		if err != nil {
			fail(err)
		}
		db = ldb
		shardStats = ldb.ShardStats
	}
	defer func() {
		if err := db.Close(); err != nil {
			fail(err)
		}
	}()

	ctx := context.Background()
	args := flag.Args()
	switch args[0] {
	case "put":
		need(args, 3)
		if err := db.Put(ctx, []byte(args[1]), []byte(args[2]), writeOpts...); err != nil {
			fail(err)
		}
		fmt.Println("ok")
	case "get":
		need(args, 2)
		v, ok, err := db.Get(ctx, []byte(args[1]))
		if err != nil {
			fail(err)
		}
		if !ok {
			fmt.Println("(not found)")
		} else {
			fmt.Printf("%s\n", v)
		}
	case "del":
		need(args, 2)
		if err := db.Delete(ctx, []byte(args[1]), writeOpts...); err != nil {
			fail(err)
		}
		fmt.Println("ok")
	case "scan":
		need(args, 3)
		// Stream the range through an iterator: constant memory however
		// large the range is.
		it, err := db.NewIterator(ctx, []byte(args[1]), []byte(args[2]))
		if err != nil {
			fail(err)
		}
		n := 0
		for ok := it.First(); ok; ok = it.Next() {
			fmt.Printf("%s = %s\n", it.Key(), it.Value())
			n++
		}
		if err := it.Err(); err != nil {
			fail(err)
		}
		it.Close()
		fmt.Printf("(%d pairs)\n", n)
	case "batch":
		b := flodb.NewWriteBatch()
		rest := args[1:]
		for len(rest) > 0 {
			switch rest[0] {
			case "put":
				if len(rest) < 3 {
					fail(fmt.Errorf("batch: put needs <key> <value>"))
				}
				b.Put([]byte(rest[1]), []byte(rest[2]))
				rest = rest[3:]
			case "del":
				if len(rest) < 2 {
					fail(fmt.Errorf("batch: del needs <key>"))
				}
				b.Delete([]byte(rest[1]))
				rest = rest[2:]
			default:
				fail(fmt.Errorf("batch: unknown op %q (want put|del)", rest[0]))
			}
		}
		if b.Len() == 0 {
			fail(fmt.Errorf("batch: no operations"))
		}
		if err := db.Apply(ctx, b, writeOpts...); err != nil {
			fail(err)
		}
		fmt.Printf("applied %d ops atomically\n", b.Len())
	case "sync":
		need(args, 1)
		if err := db.Sync(ctx); err != nil {
			fail(err)
		}
		s := statsOf(db)
		fmt.Printf("durable through commit index %d (acked %d)\n", s.DurableSeq, s.AckedSeq)
	case "checkpoint":
		need(args, 2)
		if err := db.Checkpoint(ctx, args[1]); err != nil {
			fail(err)
		}
		fmt.Printf("checkpointed to %s\n", args[1])
	case "fill":
		need(args, 2)
		var n uint64
		if _, err := fmt.Sscanf(args[1], "%d", &n); err != nil {
			fail(err)
		}
		for i := uint64(0); i < n; i++ {
			if err := db.Put(ctx, keys.EncodeUint64(i), keys.EncodeUint64(i), writeOpts...); err != nil {
				fail(err)
			}
		}
		fmt.Printf("filled %d keys\n", n)
	case "stats":
		if *jsonOut {
			// The JSON form IS the wire stats schema: remote mode prints
			// the OpStats payload verbatim, local mode fills the same
			// struct from the engine, so tooling parses one shape.
			payload := wire.StatsPayload{Store: statsOf(db)}
			if cl, ok := db.(*client.Client); ok {
				p, err := cl.StatsPayload(ctx)
				if err != nil {
					fail(err)
				}
				payload = p
			} else if ts, ok := db.(obs.SnapshotProvider); ok {
				payload.Ops = obs.OpQuantiles(ts.TelemetrySnapshot())
			}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(payload); err != nil {
				fail(err)
			}
			return
		}
		s := statsOf(db)
		fmt.Printf("puts=%d gets=%d deletes=%d scans=%d iterators=%d batches=%d (%d ops) snapshots=%d checkpoints=%d\n",
			s.Puts, s.Gets, s.Deletes, s.Scans, s.Iterators, s.Batches, s.BatchOps, s.Snapshots, s.Checkpoints)
		fmt.Printf("membuffer-hits=%d memtable-writes=%d\n", s.MembufferHits, s.MemtableWrites)
		fmt.Printf("flushes=%d compactions=%d\n", s.Flushes, s.Compactions)
		fmt.Printf("acked-seq=%d durable-seq=%d wal-syncs=%d wal-sync-requests=%d sync-barriers=%d\n",
			s.AckedSeq, s.DurableSeq, s.WALSyncs, s.WALSyncRequests, s.SyncBarriers)
		fmt.Printf("block-cache: hits=%d misses=%d (%s) evictions=%d resident=%dB\n",
			s.BlockCacheHits, s.BlockCacheMisses,
			hitRate(s.BlockCacheHits, s.BlockCacheMisses), s.BlockCacheEvictions, s.BlockCacheBytes)
		fmt.Printf("table-cache: hits=%d misses=%d (%s)  bloom: checks=%d negatives=%d (%s filtered)\n",
			s.TableCacheHits, s.TableCacheMisses, hitRate(s.TableCacheHits, s.TableCacheMisses),
			s.BloomChecks, s.BloomMisses, hitRate(s.BloomMisses, s.BloomChecks-s.BloomMisses))
		if s.ServerRequests > 0 {
			fmt.Printf("server: conns=%d/%d-lifetime in-flight=%d requests=%d bytes-in=%d bytes-out=%d slow=%d\n",
				s.ServerConnsOpen, s.ServerConnsTotal, s.ServerInFlight,
				s.ServerRequests, s.ServerBytesIn, s.ServerBytesOut, s.ServerSlowRequests)
		}
		if per := perShard(shardStats); len(per) > 0 {
			fmt.Printf("\n%d shards (aggregate above; per-shard breakdown below)\n", len(per))
			fmt.Printf("%5s %10s %10s %10s %10s %10s %12s %12s\n",
				"shard", "puts", "gets", "deletes", "flushes", "compact", "acked-seq", "durable-seq")
			for i, ss := range per {
				fmt.Printf("%5d %10d %10d %10d %10d %10d %12d %12d\n",
					i, ss.Puts, ss.Gets, ss.Deletes, ss.Flushes, ss.Compactions, ss.AckedSeq, ss.DurableSeq)
			}
		}
	default:
		fmt.Fprintf(os.Stderr, "flodb: unknown command %q\n", args[0])
		os.Exit(2)
	}
}

// hitRate formats hits/(hits+misses) as a percentage, "-" when no
// traffic has happened yet (0/0 is indistinguishable from a cold cache,
// not a 0% one).
func hitRate(hits, misses uint64) string {
	total := hits + misses
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(hits)/float64(total))
}

func statsOf(db kv.Store) kv.Stats {
	if sp, ok := db.(kv.StatsProvider); ok {
		return sp.Stats()
	}
	return kv.Stats{}
}

func perShard(fn func() []kv.Stats) []kv.Stats {
	if fn == nil {
		return nil
	}
	return fn()
}

func need(args []string, n int) {
	if len(args) != n {
		fmt.Fprintf(os.Stderr, "flodb: %s takes %d argument(s)\n", args[0], n-1)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "flodb: %v\n", err)
	os.Exit(1)
}
