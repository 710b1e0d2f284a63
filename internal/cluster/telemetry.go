package cluster

import (
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// initObs registers the coordinator's metrics: the operation counters
// under the names the engines use, the quorum, repair and hinted-handoff
// counters, and gauges over the hint backlog and the prober's member view.
func (c *Client) initObs() {
	reg := obs.NewRegistry()
	c.reg = reg
	c.ops = kv.NewOpCounters(reg)
	c.quorumWrites = reg.Counter("flodb_cluster_quorum_writes_total", "Writes acked by a full write quorum.")
	c.degradedWrites = reg.Counter("flodb_cluster_degraded_writes_total", "Writes acked below quorum (hinted).")
	c.readRepairs = reg.Counter("flodb_cluster_read_repairs_total", "Stale replicas rewritten on read.")
	c.hintsQueued = reg.Counter("flodb_cluster_hints_queued_total", "Hinted-handoff records queued.")
	c.hintsReplayed = reg.Counter("flodb_cluster_hints_replayed_total", "Hinted-handoff records replayed.")
	reg.GaugeFunc("flodb_cluster_hints_pending", "Hinted-handoff records awaiting replay.",
		func() int64 { return int64(c.HintsPending()) })
	nodes := func(down bool) int64 {
		var n int64
		for _, nd := range c.nodes {
			if nd.isDown() == down {
				n++
			}
		}
		return n
	}
	reg.GaugeFunc("flodb_cluster_nodes_up", "Members currently considered live.",
		func() int64 { return nodes(false) })
	reg.GaugeFunc("flodb_cluster_nodes_down", "Members currently considered down.",
		func() int64 { return nodes(true) })
}

// TelemetrySnapshot exposes the coordinator's observability state as a
// metric snapshot: its registry plus per-type event totals (ring
// transitions, hint replays). Member engines are NOT scraped here — each
// member exposes its own /metrics; Stats merges them on demand, off the
// coordinator's hot path.
func (c *Client) TelemetrySnapshot() obs.Snapshot {
	s := c.reg.Snapshot()
	s.Metrics = append(s.Metrics, obs.EventCountMetrics(c.events)...)
	return s
}

// TelemetryEvents returns the most recent n coordinator events (all
// buffered when n <= 0): ring up/down, epoch exclusions, hint replays.
func (c *Client) TelemetryEvents(n int) []obs.Event {
	return c.events.Recent(n)
}
