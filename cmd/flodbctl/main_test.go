package main

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"flodb/internal/cluster"
	"flodb/internal/core"
	"flodb/internal/server"
)

// startRing brings up n in-process ring nodes (engine + wire server with
// identity and epoch, exactly what flodbd -node-id runs) and returns the
// -members string flodbctl takes.
func startRing(t *testing.T, n int) string {
	t.Helper()
	var ids []cluster.Member
	for i := 1; i <= n; i++ {
		ids = append(ids, cluster.Member{ID: fmt.Sprintf("n%d", i)})
	}
	ring, err := cluster.NewRing(ids, cluster.DefaultVnodes, min(2, n))
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, m := range ids {
		db, err := core.Open(core.Config{Dir: t.TempDir(), MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Store: db, NodeID: m.ID, RingEpoch: ring.Epoch()})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close(); db.Close() })
		parts = append(parts, m.ID+"="+l.Addr().String())
	}
	return strings.Join(parts, ",")
}

func runCtl(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestStatusHealthyRing(t *testing.T) {
	members := startRing(t, 3)
	code, out, _ := runCtl(t, "-members", members, "status")
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{"3 members, R=2", "n1", "n2", "n3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("status output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DOWN") || strings.Contains(out, "WRONG") {
		t.Fatalf("healthy ring reported unhealthy:\n%s", out)
	}
}

func TestStatusReportsDownMember(t *testing.T) {
	// A 3-member ring where n3 never starts: the live nodes serve the
	// 3-member epoch (as a real deployment would), so only n3 is flagged.
	ids := []cluster.Member{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}}
	ring, err := cluster.NewRing(ids, cluster.DefaultVnodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var parts []string
	for _, m := range ids[:2] {
		db, err := core.Open(core.Config{Dir: t.TempDir(), MemoryBytes: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(server.Config{Store: db, NodeID: m.ID, RingEpoch: ring.Epoch()})
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close(); db.Close() })
		parts = append(parts, m.ID+"="+l.Addr().String())
	}
	l, err := net.Listen("tcp", "127.0.0.1:0") // reserve then free: nobody home
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	parts = append(parts, "n3="+dead)

	code, out, _ := runCtl(t, "-members", strings.Join(parts, ","), "-timeout", "300ms", "status")
	if code != 1 {
		t.Fatalf("exit %d, want 1 with a down member; output:\n%s", code, out)
	}
	if !strings.Contains(out, "DOWN") || !strings.Contains(out, "1 member(s) unhealthy") {
		t.Fatalf("down member not reported:\n%s", out)
	}
}

func TestStatusReportsWrongIdentity(t *testing.T) {
	members := startRing(t, 2) // servers believe they are n1, n2
	// Address the same servers under swapped IDs: identity check must fire.
	parts := strings.Split(members, ",")
	a1 := strings.SplitN(parts[0], "=", 2)[1]
	a2 := strings.SplitN(parts[1], "=", 2)[1]
	code, out, _ := runCtl(t, "-members", "n1="+a2+",n2="+a1, "status")
	if code != 1 || !strings.Contains(out, "WRONG-ID") {
		t.Fatalf("exit %d; swapped identities not caught:\n%s", code, out)
	}
}

func TestNodeStats(t *testing.T) {
	members := startRing(t, 3)
	code, out, _ := runCtl(t, "-members", members, "stats")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"PUTS", "DURABLE", "n1", "n3"} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestRebalancePreview needs no live nodes: it is pure ring math.
func TestRebalancePreview(t *testing.T) {
	seeds := "n1=h1:1,n2=h2:1,n3=h3:1,n4=h4:1"
	code, out, _ := runCtl(t, "-members", seeds, "rebalance", "add", "n5=h5:1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "4 -> 5 members") || !strings.Contains(out, "owner set changes") {
		t.Fatalf("preview output unexpected:\n%s", out)
	}
	// A 4->5 grow should move roughly R/5 of owner sets, never most of it.
	var moved float64
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "keyspace whose owner set changes:") {
			fmt.Sscanf(strings.TrimPrefix(line, "keyspace whose owner set changes:"), "%f%%", &moved)
		}
	}
	if moved <= 0 || moved > 60 {
		t.Fatalf("moved share %.1f%% outside sane range:\n%s", moved, out)
	}

	code, out, _ = runCtl(t, "-members", seeds, "rebalance", "remove", "n2")
	if code != 0 || !strings.Contains(out, "4 -> 3 members") {
		t.Fatalf("remove preview failed (exit %d):\n%s", code, out)
	}
	if code, _, errw := runCtl(t, "-members", seeds, "rebalance", "remove", "nope"); code != 2 || !strings.Contains(errw, "no member") {
		t.Fatalf("removing an unknown member must fail usage (exit %d): %s", code, errw)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := runCtl(t, "status"); code != 2 {
		t.Fatalf("missing -members accepted (exit %d)", code)
	}
	if code, _, _ := runCtl(t, "-members", "n1=a:1", "frobnicate"); code != 2 {
		t.Fatalf("unknown command accepted (exit %d)", code)
	}
	if code, _, _ := runCtl(t, "-members", ",,"); code != 2 {
		t.Fatalf("empty member list accepted (exit %d)", code)
	}
}
