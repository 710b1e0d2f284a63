package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"flodb/internal/core"
	"flodb/internal/kv"
	"flodb/internal/server"
	"flodb/internal/wire"
)

var bg = context.Background()

// testNode is one in-process flodbd: an engine plus a server bound to a
// stable port, killable and restartable at the same address.
type testNode struct {
	t    *testing.T
	id   string
	dir  string
	addr string

	inner *core.DB
	srv   *server.Server
}

func startNode(t *testing.T, id, dir, addr string, epoch uint64) *testNode {
	t.Helper()
	n := &testNode{t: t, id: id, dir: dir, addr: addr}
	n.start(epoch)
	return n
}

func (n *testNode) start(epoch uint64) {
	n.t.Helper()
	inner, err := core.Open(core.Config{
		Dir:             n.dir,
		MemoryBytes:     1 << 20,
		WALWriteThrough: true,
	})
	if err != nil {
		n.t.Fatal(err)
	}
	var l net.Listener
	for i := 0; ; i++ {
		l, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		if i > 50 {
			inner.Close()
			n.t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond) // the previous incarnation's port
	}
	if n.addr == "127.0.0.1:0" {
		n.addr = l.Addr().String()
	}
	srv := server.New(server.Config{Store: inner, NodeID: n.id, RingEpoch: epoch})
	go srv.Serve(l)
	n.inner, n.srv = inner, srv
}

// kill is the replica-death simulation: sockets cut, engine abandoned
// with its staged state — nothing drains, like kill -9.
func (n *testNode) kill() {
	n.srv.Close()
	n.inner.CrashForTesting()
	n.inner, n.srv = nil, nil
}

func (n *testNode) stop() {
	if n.srv != nil {
		n.srv.Close()
		n.inner.Close()
		n.inner, n.srv = nil, nil
	}
}

// threeNodes starts a ring of three and a coordinator at R=2 W=2 Rq=1
// with a fast prober.
func threeNodes(t *testing.T) (*Client, []*testNode) {
	t.Helper()
	base := t.TempDir()
	ids := []Member{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}}
	ring, err := NewRing(ids, DefaultVnodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []*testNode
	var members []Member
	for _, m := range ids {
		n := startNode(t, m.ID, filepath.Join(base, m.ID), "127.0.0.1:0", ring.Epoch())
		nodes = append(nodes, n)
		members = append(members, Member{ID: m.ID, Addr: n.addr})
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.stop()
		}
	})
	c, err := Open(Config{
		Members:       members,
		Replication:   2,
		WriteQuorum:   2,
		ReadQuorum:    1,
		HintDir:       filepath.Join(base, "hints"),
		ProbeInterval: 25 * time.Millisecond,
		ProbeFailK:    2,
		DialTimeout:   500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, nodes
}

// keyOwnedBy finds a key whose PRIMARY owner is the given node — the
// deterministic way to aim writes at a member we are about to kill.
func keyOwnedBy(t *testing.T, c *Client, id string, salt int) []byte {
	t.Helper()
	members := c.Ring().Members()
	for i := 0; i < 100000; i++ {
		k := []byte(fmt.Sprintf("k-%d-%d", salt, i))
		if members[c.Ring().Owners(k)[0]].ID == id {
			return k
		}
	}
	t.Fatalf("no key with primary owner %s found", id)
	return nil
}

func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClusterQuorumRoundTrip(t *testing.T) {
	c, _ := threeNodes(t)
	defer c.Close()
	const n = 300
	for i := 0; i < n; i++ {
		if err := c.Put(bg, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		v, ok, err := c.Get(bg, []byte(fmt.Sprintf("k%04d", i)))
		if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%04d: %q %v %v", i, v, ok, err)
		}
	}
	pairs, err := c.Scan(bg, []byte("k"), []byte("l"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != n {
		t.Fatalf("scan returned %d pairs, want %d (replica copies must merge, not duplicate)", len(pairs), n)
	}
	for i, p := range pairs {
		if want := fmt.Sprintf("k%04d", i); string(p.Key) != want {
			t.Fatalf("pair %d: key %q, want %q", i, p.Key, want)
		}
	}
	st := c.Stats()
	if st.ClusterQuorumWrites != n {
		t.Fatalf("ClusterQuorumWrites = %d, want %d", st.ClusterQuorumWrites, n)
	}
	if st.ClusterNodesUp != 3 || st.ClusterNodesDown != 0 {
		t.Fatalf("nodes up/down = %d/%d, want 3/0", st.ClusterNodesUp, st.ClusterNodesDown)
	}
}

// A dead replica degrades writes to hints and heals on restart: the
// hinted records drain and the healed node can serve them alone.
func TestClusterHintedHandoffDrainsOnRestart(t *testing.T) {
	c, nodes := threeNodes(t)
	defer c.Close()

	victim := nodes[1]
	k := keyOwnedBy(t, c, victim.id, 1)
	victim.kill()
	waitFor(t, "mark-down", 5*time.Second, func() bool { return !c.NodeStates()[victim.id] })

	if err := c.Put(bg, k, []byte("during-outage")); err != nil {
		t.Fatalf("write during single-replica outage: %v", err)
	}
	st := c.Stats()
	if st.ClusterHintsQueued == 0 || st.ClusterDegradedWrites == 0 {
		t.Fatalf("outage write queued no hint: %+v", st)
	}
	if v, ok, err := c.Get(bg, k); err != nil || !ok || string(v) != "during-outage" {
		t.Fatalf("read during outage: %q %v %v", v, ok, err)
	}

	victim.start(c.Ring().Epoch())
	waitFor(t, "mark-up", 10*time.Second, func() bool { return c.NodeStates()[victim.id] })
	waitFor(t, "hint drain", 10*time.Second, func() bool { return c.HintsPending() == 0 })

	// The healed replica must now hold the write: kill the OTHER owner and
	// read through the cluster.
	owners := c.Ring().Owners(k)
	members := c.Ring().Members()
	for _, oi := range owners {
		if members[oi].ID != victim.id {
			for _, n := range nodes {
				if n.id == members[oi].ID {
					n.kill()
				}
			}
		}
	}
	waitFor(t, "other owner down", 5*time.Second, func() bool {
		for _, oi := range owners {
			if id := members[oi].ID; id != victim.id && c.NodeStates()[id] {
				return false
			}
		}
		return true
	})
	if v, ok, err := c.Get(bg, k); err != nil || !ok || string(v) != "during-outage" {
		t.Fatalf("healed replica does not serve the hinted write: %q %v %v", v, ok, err)
	}
	if st := c.Stats(); st.ClusterHintsReplayed == 0 {
		t.Fatalf("ClusterHintsReplayed = 0 after drain")
	}
}

// Hints must survive a coordinator crash: queued on disk, drained by the
// NEXT coordinator incarnation.
func TestClusterHintsSurviveCoordinatorRestart(t *testing.T) {
	base := t.TempDir()
	ids := []Member{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}}
	ring, _ := NewRing(ids, DefaultVnodes, 2)
	var nodes []*testNode
	var members []Member
	for _, m := range ids {
		n := startNode(t, m.ID, filepath.Join(base, m.ID), "127.0.0.1:0", ring.Epoch())
		defer n.stop()
		nodes = append(nodes, n)
		members = append(members, Member{ID: m.ID, Addr: n.addr})
	}
	cfg := Config{
		Members: members, Replication: 2, WriteQuorum: 2, ReadQuorum: 1,
		HintDir:       filepath.Join(base, "hints"),
		ProbeInterval: 25 * time.Millisecond, ProbeFailK: 2,
		DialTimeout: 500 * time.Millisecond,
	}
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}

	victim := nodes[2]
	k := keyOwnedBy(t, c, victim.id, 2)
	victim.kill()
	waitFor(t, "mark-down", 5*time.Second, func() bool { return !c.NodeStates()[victim.id] })
	if err := c.Put(bg, k, []byte("hinted")); err != nil {
		t.Fatal(err)
	}
	if c.HintsPending() == 0 {
		t.Fatal("no hint queued")
	}
	c.CrashForTesting() // coordinator dies with the hint on disk

	victim.start(ring.Epoch())
	c2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.HintsPending() == 0 {
		t.Fatal("reopened coordinator lost the persisted hint")
	}
	waitFor(t, "hint drain after coordinator restart", 10*time.Second, func() bool {
		return c2.HintsPending() == 0
	})
	// Serve the key from the healed replica alone.
	members2 := c2.Ring().Members()
	for _, oi := range c2.Ring().Owners(k) {
		if members2[oi].ID != victim.id {
			for _, n := range nodes {
				if n.id == members2[oi].ID {
					n.kill()
				}
			}
		}
	}
	waitFor(t, "other owner down", 5*time.Second, func() bool {
		for _, oi := range c2.Ring().Owners(k) {
			if id := members2[oi].ID; id != victim.id && c2.NodeStates()[id] {
				return false
			}
		}
		return true
	})
	if v, ok, err := c2.Get(bg, k); err != nil || !ok || string(v) != "hinted" {
		t.Fatalf("hint did not reach the healed replica: %q %v %v", v, ok, err)
	}
}

// Read-repair: a replica that answers with a stale (or missing) copy is
// pushed forward by the read itself.
func TestClusterReadRepair(t *testing.T) {
	c, nodes := threeNodes(t)
	defer c.Close()

	k := []byte("repair-me")
	if err := c.Put(bg, k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Wind one owner's copy back to a STALE version by writing directly
	// into its engine, bypassing the coordinator.
	owners := c.Ring().Owners(k)
	members := c.Ring().Members()
	var stale *testNode
	for _, n := range nodes {
		if n.id == members[owners[1]].ID {
			stale = n
		}
	}
	old := wire.AppendVValue(nil, 1, false, []byte("v0"))
	if err := stale.inner.Put(bg, k, old); err != nil {
		t.Fatal(err)
	}

	if v, ok, err := c.Get(bg, k); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("read merged wrong copy: %q %v %v", v, ok, err)
	}
	// The repair is asynchronous; watch the stale engine converge. The
	// counter increments after the repair write lands, so wait for both
	// in the same poll — checking it the instant the value flips races
	// the tail of the repair goroutine.
	waitFor(t, "read-repair", 5*time.Second, func() bool {
		c.Get(bg, k) // each read re-triggers repair if still stale
		raw, ok, err := stale.inner.Get(bg, k)
		if err != nil || !ok {
			return false
		}
		_, _, payload, err := wire.ParseVValue(raw)
		return err == nil && bytes.Equal(payload, []byte("v1")) &&
			c.Stats().ClusterReadRepairs > 0
	})
}

// A delete must not resurrect when a stale replica heals: tombstones are
// versioned writes.
func TestClusterDeleteDoesNotResurrect(t *testing.T) {
	c, nodes := threeNodes(t)
	defer c.Close()

	victim := nodes[0]
	k := keyOwnedBy(t, c, victim.id, 3)
	if err := c.Put(bg, k, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	victim.kill() // keeps the pre-delete copy
	waitFor(t, "mark-down", 5*time.Second, func() bool { return !c.NodeStates()[victim.id] })
	if err := c.Delete(bg, k); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(bg, k); err != nil || ok {
		t.Fatalf("deleted key visible during outage: ok=%v err=%v", ok, err)
	}

	victim.start(c.Ring().Epoch())
	waitFor(t, "mark-up", 10*time.Second, func() bool { return c.NodeStates()[victim.id] })
	waitFor(t, "hint drain", 10*time.Second, func() bool { return c.HintsPending() == 0 })
	if _, ok, err := c.Get(bg, k); err != nil || ok {
		t.Fatalf("deleted key resurrected after heal: ok=%v err=%v", ok, err)
	}
	// And it must not reappear in scans either.
	pairs, err := c.Scan(bg, k, append(append([]byte(nil), k...), 0xff))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 0 {
		t.Fatalf("tombstoned key surfaced in scan: %q", pairs[0].Key)
	}
}

// Losing R-Rq+1 owners makes quorum reads for their ranges fail typed,
// and a write with NO live owner fails typed too.
func TestClusterUnavailabilityIsTyped(t *testing.T) {
	c, nodes := threeNodes(t)
	defer c.Close()
	k := keyOwnedBy(t, c, nodes[0].id, 4)
	owners := c.Ring().Owners(k)
	members := c.Ring().Members()
	for _, oi := range owners {
		for _, n := range nodes {
			if n.id == members[oi].ID {
				n.kill()
			}
		}
	}
	waitFor(t, "both owners down", 5*time.Second, func() bool {
		for _, oi := range owners {
			if c.NodeStates()[members[oi].ID] {
				return false
			}
		}
		return true
	})
	if _, _, err := c.Get(bg, k); !errors.Is(err, kv.ErrUnavailable) {
		t.Fatalf("read with both owners dead: %v, want ErrUnavailable", err)
	}
	if err := c.Put(bg, k, []byte("x")); !errors.Is(err, kv.ErrUnavailable) {
		t.Fatalf("write with both owners dead: %v, want ErrUnavailable", err)
	}
	// Scans need coverage: 2 of 3 members down exceeds R-Rq=1.
	if _, err := c.Scan(bg, nil, nil); !errors.Is(err, kv.ErrUnavailable) {
		t.Fatalf("scan with 2 members down: %v, want ErrUnavailable", err)
	}
}

// A peer from a DIFFERENT ring configuration must be excluded, not
// written to: the epoch check is sticky.
func TestClusterEpochMismatchExcludesPeer(t *testing.T) {
	base := t.TempDir()
	ids := []Member{{ID: "n1"}, {ID: "n2"}}
	ring, _ := NewRing(ids, DefaultVnodes, 2)
	n1 := startNode(t, "n1", filepath.Join(base, "n1"), "127.0.0.1:0", ring.Epoch())
	defer n1.stop()
	// n2 believes in a different ring (epoch from another config).
	n2 := startNode(t, "n2", filepath.Join(base, "n2"), "127.0.0.1:0", ring.Epoch()+1)
	defer n2.stop()

	c, err := Open(Config{
		Members:       []Member{{ID: "n1", Addr: n1.addr}, {ID: "n2", Addr: n2.addr}},
		Replication:   2,
		WriteQuorum:   1,
		ReadQuorum:    1,
		HintDir:       filepath.Join(base, "hints"),
		ProbeInterval: 25 * time.Millisecond,
		ProbeFailK:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, "epoch exclusion", 5*time.Second, func() bool { return !c.NodeStates()["n2"] })
	// And it STAYS excluded: probes keep succeeding at the wire level but
	// the epoch keeps mismatching.
	time.Sleep(100 * time.Millisecond)
	if c.NodeStates()["n2"] {
		t.Fatal("epoch-mismatched peer flapped back up")
	}
}

// Batches spread over the ring, land atomically per node, and read back
// coherently through the merged plane.
func TestClusterApplyBatch(t *testing.T) {
	c, _ := threeNodes(t)
	defer c.Close()
	b := kv.NewBatch()
	for i := 0; i < 50; i++ {
		b.Put([]byte(fmt.Sprintf("b%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	b.Delete([]byte("b007"))
	if err := c.Apply(bg, b); err != nil {
		t.Fatal(err)
	}
	pairs, err := c.Scan(bg, []byte("b"), []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 49 {
		t.Fatalf("scan after batch: %d pairs, want 49", len(pairs))
	}
	if _, ok, _ := c.Get(bg, []byte("b007")); ok {
		t.Fatal("batch-deleted key still visible")
	}
	st := c.Stats()
	if st.Batches != 1 || st.BatchOps != 51 {
		t.Fatalf("batch accounting: %d/%d, want 1/51", st.Batches, st.BatchOps)
	}
}

// TestClusterStatsCountsOpsOnce pins Stats' merge rule: a family the
// coordinator registers (the operation counters) is counted once, by the
// coordinator, while engine counters are summed over the members — every
// Put at R=2 is one coordinator Put and two replica writes.
func TestClusterStatsCountsOpsOnce(t *testing.T) {
	c, _ := threeNodes(t)
	defer c.Close()
	const n = 40
	for i := 0; i < n; i++ {
		if err := c.Put(bg, []byte(fmt.Sprintf("once-%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Sync(bg); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Puts != n || st.SyncBarriers != 1 {
		t.Fatalf("Puts = %d, SyncBarriers = %d; want %d and 1 (counted once, at the coordinator)", st.Puts, st.SyncBarriers, n)
	}
	if got := st.MembufferHits + st.MemtableWrites; got != 2*n {
		t.Fatalf("replica writes MembufferHits+MemtableWrites = %d, want %d (summed over members)", got, 2*n)
	}
	if st.ClusterQuorumWrites != n || st.ClusterNodesUp != 3 || st.ClusterNodesDown != 0 {
		t.Fatalf("coordination counters: %+v", st)
	}
}
