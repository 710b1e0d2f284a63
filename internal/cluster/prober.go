package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"flodb/internal/client"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

// probeLoop is the heartbeat: every ProbeInterval each member answers a
// Health RPC or accrues a failure. K consecutive failures mark it down
// (writes start hinting instead of timing out R times per op); one
// success marks it up and kicks its hint backlog draining. Mark-up ONLY
// happens here — the write path can take a node down but never up, so a
// single lucky packet doesn't flap a dying node back into the quorum.
func (c *Client) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.ProbeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
			for _, n := range c.nodes {
				c.probe(n)
			}
		}
	}
}

// probe checks one member, redialing if it has never connected.
func (c *Client) probe(n *node) {
	n.mu.Lock()
	cl := n.cl
	n.mu.Unlock()
	if cl == nil {
		fresh, err := client.Dial(n.member.Addr,
			client.WithConns(c.cfg.Conns), client.WithDialTimeout(c.cfg.DialTimeout))
		if err != nil {
			n.noteFailure(c.cfg.ProbeFailK)
			return
		}
		n.mu.Lock()
		if n.cl == nil {
			n.cl = fresh
		} else {
			fresh.Close()
		}
		cl = n.cl
		n.mu.Unlock()
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.DialTimeout)
	info, err := cl.Health(ctx)
	cancel()
	if err != nil {
		if n.noteFailure(c.cfg.ProbeFailK) {
			c.nodeDown(n, fmt.Sprintf("%d failed probes", c.cfg.ProbeFailK), err)
		}
		return
	}
	if err := c.checkIdentity(n, info); err != nil {
		// An identity or epoch mismatch is sticky: the peer is healthy but
		// WRONG (different ring config, or another node answering on the
		// member's address). Routing writes to it would split the keyspace.
		c.logf("cluster: node %s excluded: %v", n.member.ID, err)
		c.events.Emit(obs.Event{Type: obs.EventRingEpoch,
			Detail: fmt.Sprintf("%s excluded: %v", n.member.ID, err)})
		n.markDown()
		return
	}
	if n.markUp() {
		c.logf("cluster: node %s (%s) marked up", n.member.ID, n.member.Addr)
		c.events.Emit(obs.Event{Type: obs.EventRingUp,
			Detail: fmt.Sprintf("%s (%s)", n.member.ID, n.member.Addr)})
	}
	if n.hints.pending() > 0 {
		c.kickReplay(n)
	}
}

func (c *Client) checkIdentity(n *node, info wire.HealthInfo) error {
	if info.NodeID != "" && info.NodeID != n.member.ID {
		return fmt.Errorf("peer identifies as %q, membership says %q: %w",
			info.NodeID, n.member.ID, wire.ErrEpochMismatch)
	}
	if info.Epoch != 0 && info.Epoch != c.ring.Epoch() {
		return fmt.Errorf("peer ring epoch %#x, ours %#x: %w",
			info.Epoch, c.ring.Epoch(), wire.ErrEpochMismatch)
	}
	return nil
}

// kickReplay starts draining a member's hint backlog unless a replay is
// already running for it.
func (c *Client) kickReplay(n *node) {
	n.mu.Lock()
	if n.replaying || n.down {
		n.mu.Unlock()
		return
	}
	n.replaying = true
	n.mu.Unlock()
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		defer func() {
			n.mu.Lock()
			n.replaying = false
			n.mu.Unlock()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		replayed, err := c.replayHints(ctx, n)
		if replayed > 0 || err != nil {
			c.logf("cluster: replayed %d hints to %s (pending %d, err=%v)",
				replayed, n.member.ID, n.hints.pending(), err)
		}
	}()
}

// replayChunk bounds one VApply during replay so a long outage's backlog
// streams in frame-cap-friendly pieces.
const replayChunk = 256

// replayHints pushes the member's backlog through the version-gated
// plane in order, dropping each successfully applied prefix from the
// log. Records are grouped into runs of equal durability class so the
// original write options survive the detour. On error the remaining
// backlog stays queued for the next probe tick.
func (c *Client) replayHints(ctx context.Context, n *node) (total int, err error) {
	start := time.Now()
	defer func() {
		if total > 0 {
			c.events.Emit(obs.Event{Type: obs.EventHintReplay, Dur: time.Since(start),
				Keys: int64(total), Detail: n.member.ID})
		}
	}()
	for {
		if c.closed.Load() && total > 0 {
			// During Close's final drain closed is already set; one pass
			// through the loop body is fine, endless loops are not.
			return total, nil
		}
		backlog := n.hints.snapshot()
		if len(backlog) == 0 {
			return total, nil
		}
		run := backlog
		if len(run) > replayChunk {
			run = run[:replayChunk]
		}
		// Trim the run to a single durability class.
		cls := run[0].durability
		end := 1
		for end < len(run) && run[end].durability == cls {
			end++
		}
		run = run[:end]

		cl, err := n.liveClient()
		if err != nil {
			return total, err
		}
		recs := make([]wire.VRecord, len(run))
		for i := range run {
			recs[i] = run[i].rec
		}
		var opts []kv.WriteOption
		if cls != kv.DurabilityDefault {
			opts = append(opts, kv.WithDurability(cls))
		}
		if _, _, err := cl.VApply(ctx, recs, opts...); err != nil {
			if errors.Is(err, kv.ErrUnavailable) {
				n.noteFailure(c.cfg.ProbeFailK)
			}
			return total, err
		}
		if err := n.hints.drop(len(run)); err != nil {
			return total, err
		}
		total += len(run)
		c.hintsReplayed.Add(uint64(len(run)))
	}
}
