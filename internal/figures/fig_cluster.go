package figures

import (
	"fmt"
	"time"

	"flodb/internal/harness"
	"flodb/internal/workload"
)

// ClusterBench measures the distribution tier: a consistent-hash ring of
// in-process flodbd nodes under one cluster.Client coordinator, swept by
// node count. At one node the "cluster" is a plain remote store (R=1 —
// the coordination floor); at two and three nodes every write fans to
// R=2 owners and acks at W=2, so the columns price replication against
// netbench's single-socket ceiling. The availability rows re-run the
// mixed workload on the 2- and 3-node rings while one replica is killed
// (kill -9 shape: sockets cut, engine abandoned) mid-measurement and
// then after it restarts and its hints drain — the throughput the ring
// sustains THROUGH a replica death, not just before and after one.
func ClusterBench(c Config) (*harness.Table, error) {
	c.Defaults()
	nodeCounts := []int{1, 2, 3}
	threads := 16
	if c.Quick {
		threads = 8
	}

	cols := make([]string, len(nodeCounts))
	for i, n := range nodeCounts {
		cols[i] = fmt.Sprintf("%d", n)
	}
	rows := []string{
		"throughput Kops/s",
		"read p99 µs",
		"write p99 µs",
		"kill-one Kops/s",
		"healed Kops/s",
	}
	tbl := harness.NewTable("Distribution tier: quorum throughput, latency, and kill-one-replica availability vs node count",
		fmt.Sprintf("ring nodes, R=min(2,n), W=R, Rq=1 (%d threads)", threads), "Kops/s / µs", cols, rows)

	for ci, nodes := range nodeCounts {
		dir, err := c.cellDir(fmt.Sprintf("clusterbench-%d", nodes))
		if err != nil {
			return nil, err
		}
		cs, err := openClusterN(dir, nodes, c.MemBytes, c.limiter(), false)
		if err != nil {
			return nil, err
		}
		if err := initHalf(cs, c.Keys, false); err != nil {
			cs.Close()
			return nil, err
		}

		res := harness.Run(cs, harness.RunOptions{
			Mix:            workload.ReadUpdate,
			Threads:        threads,
			Duration:       c.Duration,
			Keys:           c.Keys,
			MeasureLatency: true,
		})
		if res.Errors > 0 {
			cs.Close()
			return nil, fmt.Errorf("clusterbench: nodes=%d: %d errors", nodes, res.Errors)
		}
		readP99 := float64(res.ReadLat.Snapshot().Quantile(0.99)) / 1e3
		tbl.Set(0, ci, res.MopsPerSec()*1000)
		tbl.Set(1, ci, readP99)
		tbl.Set(2, ci, float64(res.WriteLat.Snapshot().Quantile(0.99))/1e3)
		c.logf("clusterbench nodes=%d -> %.1f Kops/s, read p99 %.0f µs",
			nodes, res.MopsPerSec()*1000, readP99)

		// Availability series: only meaningful when a key's owner set has a
		// survivor (R=2 needs >= 2 nodes). A 1-node ring dies with its node;
		// those cells stay zero.
		if nodes >= 2 {
			killKops, healKops, err := clusterAvailability(cs, threads, c)
			if err != nil {
				cs.Close()
				return nil, fmt.Errorf("clusterbench: nodes=%d availability: %w", nodes, err)
			}
			tbl.Set(3, ci, killKops)
			tbl.Set(4, ci, healKops)
			c.logf("clusterbench nodes=%d -> kill-one %.1f Kops/s, healed %.1f Kops/s", nodes, killKops, healKops)
		}

		if err := cs.Close(); err != nil {
			return nil, err
		}
	}

	tbl.AddNote("loopback TCP; every op fans out to its owners through internal/cluster's quorum coordinator")
	tbl.AddNote("kill-one: a replica is killed (sockets cut, engine abandoned) as the measured window opens — writes degrade to hinted handoff, reads fall back to the surviving owner")
	tbl.AddNote("healed: the replica restarted, probes marked it up, and the hint backlog drained before measuring")
	tbl.AddNote("1-node availability cells are zero by construction: R=1 has no surviving owner to degrade onto")
	return tbl, nil
}

// clusterAvailability kills one replica at the start of a measured
// window, measures the degraded throughput, restarts the replica, waits
// for the ring to heal (mark-up + hint drain), and measures again.
func clusterAvailability(cs *clusterStore, threads int, c Config) (killKops, healKops float64, err error) {
	victim := cs.nodes[len(cs.nodes)-1]
	victim.kill()

	res := harness.Run(cs, harness.RunOptions{
		Mix:      workload.ReadUpdate,
		Threads:  threads,
		Duration: c.Duration,
		Keys:     c.Keys,
	})
	if res.Errors > 0 {
		return 0, 0, fmt.Errorf("%d errors during single-replica outage", res.Errors)
	}
	killKops = res.MopsPerSec() * 1000

	if err := victim.start(cs.epoch); err != nil {
		return 0, 0, fmt.Errorf("restart replica: %w", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if cs.NodeStates()[victim.id] && cs.HintsPending() == 0 {
			break
		}
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("ring did not heal: up=%v pending=%d",
				cs.NodeStates()[victim.id], cs.HintsPending())
		}
		time.Sleep(20 * time.Millisecond)
	}

	res = harness.Run(cs, harness.RunOptions{
		Mix:      workload.ReadUpdate,
		Threads:  threads,
		Duration: c.Duration,
		Keys:     c.Keys,
	})
	if res.Errors > 0 {
		return 0, 0, fmt.Errorf("%d errors after heal", res.Errors)
	}
	return killKops, res.MopsPerSec() * 1000, nil
}
