// Command flodbctl is the cluster operator's tool: it takes the same
// membership list every coordinator uses and inspects the ring without
// joining it.
//
//	flodbctl -members n1=h1:4380,n2=h2:4380,n3=h3:4380 status
//	flodbctl -members ... stats
//	flodbctl -members ... top
//	flodbctl -members ... rebalance add n4=h4:4380
//	flodbctl -members ... rebalance remove n2
//
// status probes every member (the health RPC coordinators use),
// reporting reachability, the identity and ring epoch each node serves,
// and the exact primary key-share the ring assigns it. stats fetches
// per-node engine counters — the skew view: a hot member shows it here
// first. top fetches each node's telemetry snapshot and renders per-op
// latency quantiles (p50/p90/p99/p999) plus the newest structured
// events — where "node n2 is slow" becomes "n2's p99 put is 40× its
// p50 and it logged wal-stall events". rebalance previews a membership
// change WITHOUT performing it: the fraction of the keyspace whose owner
// set would change (the data that would have to move), against the
// ~share/N a consistent-hash ring promises.
//
// Exit status: 0 when every probed member answered, 1 when any was
// unreachable or served a mismatched identity/epoch, 2 on usage errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"flodb/internal/client"
	"flodb/internal/cluster"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("flodbctl", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		seeds       = fs.String("members", "", "ring membership ([id=]host:port,...) — required")
		replication = fs.Int("replication", 2, "replicas per key R (must match the coordinators')")
		vnodes      = fs.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per member (must match the coordinators')")
		timeout     = fs.Duration("timeout", 2*time.Second, "per-node probe timeout")
		nEvents     = fs.Int("events", 8, "top: recent structured events shown per node")
	)
	fs.Usage = func() {
		fmt.Fprintln(errw, "usage: flodbctl -members <seeds> [-replication r] [-vnodes v] {status | stats | top | rebalance add <[id=]addr> | rebalance remove <id>}")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	if *seeds == "" {
		fs.Usage()
		return 2
	}
	members, err := cluster.ParseMembers(*seeds)
	if err != nil {
		fmt.Fprintf(errw, "flodbctl: %v\n", err)
		return 2
	}
	ring, err := cluster.NewRing(members, *vnodes, *replication)
	if err != nil {
		fmt.Fprintf(errw, "flodbctl: %v\n", err)
		return 2
	}

	switch fs.Arg(0) {
	case "status":
		return status(out, ring, *timeout)
	case "stats":
		return nodeStats(out, ring, *timeout)
	case "top":
		return top(out, ring, *timeout, *nEvents)
	case "rebalance":
		return rebalance(out, errw, fs.Args()[1:], members, ring, *vnodes, *replication)
	default:
		fmt.Fprintf(errw, "flodbctl: unknown command %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
}

// probe asks one member who it is, the way a coordinator's prober does.
func probe(m cluster.Member, timeout time.Duration) (id string, epoch uint64, err error) {
	cl, err := client.Dial(m.Addr, client.WithConns(1), client.WithDialTimeout(timeout))
	if err != nil {
		return "", 0, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	info, err := cl.Health(ctx)
	if err != nil {
		return "", 0, err
	}
	return info.NodeID, info.Epoch, nil
}

func status(out io.Writer, ring *cluster.Ring, timeout time.Duration) int {
	fmt.Fprintf(out, "ring: %d members, R=%d, epoch %#x\n\n", len(ring.Members()), ring.Replicas(), ring.Epoch())
	shares := ring.Shares()
	fmt.Fprintf(out, "%-12s %-22s %-7s %-9s %s\n", "ID", "ADDR", "SHARE", "STATE", "DETAIL")
	bad := 0
	for _, m := range ring.Members() {
		state, detail := "up", ""
		id, epoch, err := probe(m, timeout)
		switch {
		case err != nil:
			state, detail = "DOWN", err.Error()
			bad++
		case id != "" && id != m.ID:
			state, detail = "WRONG-ID", fmt.Sprintf("serves %q", id)
			bad++
		case epoch != 0 && epoch != ring.Epoch():
			state, detail = "WRONG-EPOCH", fmt.Sprintf("serves %#x", epoch)
			bad++
		}
		fmt.Fprintf(out, "%-12s %-22s %6.2f%% %-9s %s\n", m.ID, m.Addr, shares[m.ID]*100, state, detail)
	}
	if bad > 0 {
		fmt.Fprintf(out, "\n%d member(s) unhealthy\n", bad)
		return 1
	}
	return 0
}

func nodeStats(out io.Writer, ring *cluster.Ring, timeout time.Duration) int {
	fmt.Fprintf(out, "%-12s %10s %10s %10s %10s %10s %10s %10s\n",
		"ID", "PUTS", "GETS", "SCANS", "ACKED", "DURABLE", "FLUSHES", "REQS")
	bad := 0
	for _, m := range ring.Members() {
		cl, err := client.Dial(m.Addr, client.WithConns(1), client.WithDialTimeout(timeout))
		if err != nil {
			fmt.Fprintf(out, "%-12s unreachable: %v\n", m.ID, err)
			bad++
			continue
		}
		var st kv.Stats
		func() {
			defer cl.Close()
			st = cl.Stats()
		}()
		fmt.Fprintf(out, "%-12s %10d %10d %10d %10d %10d %10d %10d\n",
			m.ID, st.Puts, st.Gets, st.Scans, st.AckedSeq, st.DurableSeq, st.Flushes, st.ServerRequests)
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// top renders each member's telemetry snapshot: per-op latency
// quantiles and the newest structured events.
func top(out io.Writer, ring *cluster.Ring, timeout time.Duration, nEvents int) int {
	bad := 0
	for i, m := range ring.Members() {
		if i > 0 {
			fmt.Fprintln(out)
		}
		cl, err := client.Dial(m.Addr, client.WithConns(1), client.WithDialTimeout(timeout))
		if err != nil {
			fmt.Fprintf(out, "%s (%s): unreachable: %v\n", m.ID, m.Addr, err)
			bad++
			continue
		}
		var tp wire.TelemetryPayload
		func() {
			defer cl.Close()
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			tp, err = cl.Telemetry(ctx, nEvents)
		}()
		if err != nil {
			fmt.Fprintf(out, "%s (%s): telemetry: %v\n", m.ID, m.Addr, err)
			bad++
			continue
		}
		node := tp.Node
		if node == "" {
			node = m.ID
		}
		fmt.Fprintf(out, "%s (%s)\n", node, m.Addr)
		ops := make([]string, 0, len(tp.Ops))
		for op, q := range tp.Ops {
			if q.Count > 0 {
				ops = append(ops, op)
			}
		}
		// Busiest ops first — this is a "what is this node doing" view.
		sort.Slice(ops, func(a, b int) bool {
			qa, qb := tp.Ops[ops[a]], tp.Ops[ops[b]]
			if qa.Count != qb.Count {
				return qa.Count > qb.Count
			}
			return ops[a] < ops[b]
		})
		if len(ops) == 0 {
			fmt.Fprintf(out, "  no recorded operations (idle node)\n")
		} else {
			fmt.Fprintf(out, "  %-10s %10s %10s %10s %10s %10s\n", "OP", "COUNT", "MEAN", "P50", "P99", "P999")
			for _, op := range ops {
				q := tp.Ops[op]
				fmt.Fprintf(out, "  %-10s %10d %10s %10s %10s %10s\n", op, q.Count,
					fmtNanos(int64(q.Mean)), fmtNanos(q.P50), fmtNanos(q.P99), fmtNanos(q.P999))
			}
		}
		for _, e := range tp.Events {
			fmt.Fprintf(out, "  %s %-14s %s\n", e.Time.Format("15:04:05.000"), e.Type, eventLine(e))
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

// fmtNanos renders a nanosecond latency human-first (1.234ms, 56.7µs).
func fmtNanos(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Nanosecond).String()
	}
}

// eventLine renders an event's payload fields compactly, skipping the
// zero-valued ones.
func eventLine(e obs.Event) string {
	s := ""
	if e.Dur > 0 {
		s += fmt.Sprintf("dur=%v ", e.Dur.Round(time.Microsecond))
	}
	if e.Bytes > 0 {
		s += fmt.Sprintf("bytes=%d ", e.Bytes)
	}
	if e.Keys > 0 {
		s += fmt.Sprintf("keys=%d ", e.Keys)
	}
	return s + e.Detail
}

func rebalance(out, errw io.Writer, args []string, members []cluster.Member, from *cluster.Ring, vnodes, replication int) int {
	if len(args) != 2 {
		fmt.Fprintln(errw, "usage: flodbctl rebalance {add <[id=]addr> | remove <id>}")
		return 2
	}
	var next []cluster.Member
	switch args[0] {
	case "add":
		added, err := cluster.ParseMembers(args[1])
		if err != nil || len(added) != 1 {
			fmt.Fprintf(errw, "flodbctl: bad member %q\n", args[1])
			return 2
		}
		next = append(append(next, members...), added[0])
	case "remove":
		for _, m := range members {
			if m.ID != args[1] {
				next = append(next, m)
			}
		}
		if len(next) == len(members) {
			fmt.Fprintf(errw, "flodbctl: no member with ID %q\n", args[1])
			return 2
		}
	default:
		fmt.Fprintf(errw, "flodbctl: unknown rebalance op %q\n", args[0])
		return 2
	}
	r := replication
	if r > len(next) {
		r = len(next)
	}
	to, err := cluster.NewRing(next, vnodes, r)
	if err != nil {
		fmt.Fprintf(errw, "flodbctl: %v\n", err)
		return 2
	}
	moved := cluster.MovedShare(from, to, 1<<16)
	fmt.Fprintf(out, "rebalance preview: %d -> %d members (R %d -> %d)\n",
		len(members), len(next), from.Replicas(), to.Replicas())
	fmt.Fprintf(out, "keyspace whose owner set changes: %.1f%%\n", moved*100)
	fmt.Fprintf(out, "epoch %#x -> %#x\n", from.Epoch(), to.Epoch())

	// Per-member share delta: where the moved data lands.
	before, after := from.Shares(), to.Shares()
	var ids []string
	seen := map[string]bool{}
	for id := range before {
		ids, seen[id] = append(ids, id), true
	}
	for id := range after {
		if !seen[id] {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	fmt.Fprintf(out, "\n%-12s %8s %8s %8s\n", "ID", "BEFORE", "AFTER", "DELTA")
	for _, id := range ids {
		fmt.Fprintf(out, "%-12s %7.2f%% %7.2f%% %+7.2f%%\n", id, before[id]*100, after[id]*100, (after[id]-before[id])*100)
	}
	fmt.Fprintln(out, "\npreview only: no data was moved (membership is static per deployment)")
	return 0
}
