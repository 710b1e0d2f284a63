package figures

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"time"

	"flodb/internal/cluster"
	"flodb/internal/core"
	"flodb/internal/diskenv"
	"flodb/internal/harness"
	"flodb/internal/kv"
	"flodb/internal/server"
)

// Cluster topology for SysCluster: 3 nodes, every key on 2 of them,
// writes acked at both owners, reads answered by any one (with
// read-repair catching the other up).
const (
	ClusterNodes       = 3
	ClusterReplication = 2
	ClusterWriteQuorum = 2
	ClusterReadQuorum  = 1
)

// clusterStore is FloDB/cluster: N in-process flodbd-style servers on
// loopback sockets, each serving its own FloDB engine, under a
// cluster.Client coordinator — every operation pays the quorum fan-out
// over real TCP round trips. The node engines run the WAL in
// write-through mode, which is what makes a WHOLE-cluster crash
// prefix-consistent: replicas of consecutive writes land on different
// node pairs, so per-node staged-tail loss would punch cross-node holes
// in commit order; write-through pins every acked record to the OS
// before the ack, closing that window to machine crashes only.
type clusterStore struct {
	*cluster.Client
	nodes []*benchNode
	epoch uint64
}

// benchNode remembers enough to kill a node abruptly and restart it at
// the same identity and address — the availability series in
// ClusterBench and the heal paths in the conformance runs.
type benchNode struct {
	id    string
	dir   string
	addr  string
	cfg   core.Config
	inner *core.DB
	srv   *server.Server
}

func (n *benchNode) start(epoch uint64) error {
	inner, err := core.Open(n.cfg)
	if err != nil {
		return err
	}
	var l net.Listener
	for i := 0; ; i++ {
		l, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		if i > 100 {
			inner.Close()
			return err
		}
		time.Sleep(20 * time.Millisecond) // previous incarnation's port lingering
	}
	if n.addr == "127.0.0.1:0" {
		n.addr = l.Addr().String()
	}
	n.inner = inner
	n.srv = server.New(server.Config{Store: inner, NodeID: n.id, RingEpoch: epoch})
	go n.srv.Serve(l)
	return nil
}

// kill cuts the node down like SIGKILL: sockets dropped, engine
// abandoned mid-flight, nothing drained.
func (n *benchNode) kill() {
	if n.srv != nil {
		n.srv.Close()
		n.inner.CrashForTesting()
		n.srv, n.inner = nil, nil
	}
}

// openCluster builds the standard 3-node loopback ring (the seventh
// benched system).
func openCluster(dir string, memBytes int64, lim *diskenv.Limiter, walOn bool) (kv.Store, error) {
	return openClusterN(dir, ClusterNodes, memBytes, lim, walOn)
}

// openClusterN builds an n-node loopback ring at R=min(2,n), W=R, Rq=1.
// The directory layout is stable (dir/n1..nN engines, dir/hints for
// handoff logs) and member IDs are the subdirectory names, so reopening
// the same dir — including a checkpoint directory produced by
// Checkpoint — reassembles the same ring over the recovered engines,
// whatever ports the nodes get.
func openClusterN(dir string, nodeCount int, memBytes int64, lim *diskenv.Limiter, walOn bool) (*clusterStore, error) {
	replication := ClusterReplication
	if replication > nodeCount {
		replication = nodeCount
	}
	perNode := memBytes / int64(nodeCount)
	if perNode < 64<<10 {
		perNode = 64 << 10
	}

	// The ring epoch depends only on IDs and quorum config, so it is
	// known before any server starts and each server can vend it from
	// health probes.
	ids := make([]cluster.Member, nodeCount)
	for i := range ids {
		ids[i] = cluster.Member{ID: fmt.Sprintf("n%d", i+1)}
	}
	ring, err := cluster.NewRing(ids, cluster.DefaultVnodes, replication)
	if err != nil {
		return nil, err
	}

	cs := &clusterStore{epoch: ring.Epoch()}
	fail := func(err error) (*clusterStore, error) {
		cs.teardownNodes()
		return nil, err
	}
	members := make([]cluster.Member, 0, nodeCount)
	for i := 0; i < nodeCount; i++ {
		id := fmt.Sprintf("n%d", i+1)
		cfg := core.Config{
			Dir:             filepath.Join(dir, id),
			MemoryBytes:     perNode,
			DisableWAL:      !walOn,
			WALWriteThrough: walOn,
			PersistLimiter:  lim,
			Storage:         storageOpts(perNode),
		}
		n := &benchNode{id: id, dir: cfg.Dir, addr: "127.0.0.1:0", cfg: cfg}
		if err := n.start(ring.Epoch()); err != nil {
			return fail(err)
		}
		cs.nodes = append(cs.nodes, n)
		members = append(members, cluster.Member{ID: id, Addr: n.addr})
	}

	cl, err := cluster.Open(cluster.Config{
		Members:       members,
		Replication:   replication,
		WriteQuorum:   replication, // W=R: quorum acks mean every owner logged it
		ReadQuorum:    ClusterReadQuorum,
		HintDir:       filepath.Join(dir, "hints"),
		ProbeInterval: 100 * time.Millisecond,
	})
	if err != nil {
		return fail(err)
	}
	cs.Client = cl
	return cs, nil
}

func (c *clusterStore) teardownNodes() {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
			n.inner.Close()
			n.srv, n.inner = nil, nil
		}
	}
}

// Close shuts down coordinator-first (drains hints, closes pools), then
// each node the way flodbd's SIGTERM path does.
func (c *clusterStore) Close() error {
	err := c.Client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, n := range c.nodes {
		if n.srv == nil {
			continue
		}
		n.srv.Shutdown(ctx)
		if cerr := n.inner.Close(); cerr != nil && err == nil {
			err = cerr
		}
		n.srv, n.inner = nil, nil
	}
	return err
}

// CrashForTesting kills the WHOLE cluster at once: coordinator abandoned
// (hints stay on disk, no drain), every server's sockets cut, every
// engine losing whatever the write-through WAL had not yet handed to the
// OS (nothing acked).
func (c *clusterStore) CrashForTesting() {
	c.Client.CrashForTesting()
	for _, n := range c.nodes {
		n.kill()
	}
}

// WaitDiskQuiesce settles every live node's background work.
func (c *clusterStore) WaitDiskQuiesce() {
	for _, n := range c.nodes {
		if n.inner != nil {
			n.inner.WaitDiskQuiesce()
		}
	}
}

var (
	_ kv.Store         = (*clusterStore)(nil)
	_ harness.Quiescer = (*clusterStore)(nil)
)
