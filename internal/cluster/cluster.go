package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flodb/internal/client"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

// Config describes a cluster a coordinator joins.
type Config struct {
	// Members is the static seed list. Required. IDs must be unique and
	// stable across restarts; addresses may change (the ring hashes IDs).
	Members []Member
	// Replication is R: how many members own each key. Default
	// min(2, len(Members)).
	Replication int
	// WriteQuorum is W: how many owner acks a write needs to count as
	// quorum-committed. Writes that reach fewer LIVE owners (the rest
	// hinted) still succeed but count as degraded. Default Replication.
	WriteQuorum int
	// ReadQuorum is Rq: how many owner responses a read needs. Reads
	// consult every live owner and merge newest-version-wins; Rq is the
	// floor below which the read fails as unavailable. Default 1.
	ReadQuorum int
	// Vnodes is the virtual-node count per member. Default DefaultVnodes.
	Vnodes int
	// HintDir persists the per-member hinted-handoff logs. Required.
	HintDir string
	// ProbeInterval is the heartbeat period. Default 1s.
	ProbeInterval time.Duration
	// ProbeFailK marks a member down after K consecutive failures
	// (probes and write-path errors both count). Default 3.
	ProbeFailK int
	// DialTimeout bounds each connection attempt and health probe.
	// Default 1s — shorter than internal/client's 5s because a cluster
	// has somewhere else to go while a node is down.
	DialTimeout time.Duration
	// Conns is the per-member connection-pool size. Default 2.
	Conns int
	// Logf, when set, receives membership transitions and replay
	// diagnostics.
	Logf func(format string, args ...any)
}

func (cfg *Config) defaults() error {
	if len(cfg.Members) == 0 {
		return fmt.Errorf("cluster: no members")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
		if cfg.Replication > len(cfg.Members) {
			cfg.Replication = len(cfg.Members)
		}
	}
	if cfg.WriteQuorum <= 0 {
		cfg.WriteQuorum = cfg.Replication
	}
	if cfg.ReadQuorum <= 0 {
		cfg.ReadQuorum = 1
	}
	if cfg.WriteQuorum > cfg.Replication || cfg.ReadQuorum > cfg.Replication {
		return fmt.Errorf("cluster: quorums W=%d Rq=%d exceed replication R=%d",
			cfg.WriteQuorum, cfg.ReadQuorum, cfg.Replication)
	}
	if cfg.Vnodes <= 0 {
		cfg.Vnodes = DefaultVnodes
	}
	if cfg.HintDir == "" {
		return fmt.Errorf("cluster: HintDir is required (hinted handoff must survive a coordinator restart)")
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeFailK <= 0 {
		cfg.ProbeFailK = 3
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = time.Second
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 2
	}
	return nil
}

// node is one member's runtime state.
type node struct {
	member Member
	hints  *hintLog

	mu        sync.Mutex
	cl        *client.Client // nil until a dial has ever succeeded
	down      bool
	fails     int
	replaying bool
}

func (n *node) isDown() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// liveClient returns the node's client for an operation, failing fast
// when the node is marked down (the prober owns recovery).
func (n *node) liveClient() (*client.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down || n.cl == nil {
		return nil, fmt.Errorf("cluster: node %s is down: %w", n.member.ID, kv.ErrUnavailable)
	}
	return n.cl, nil
}

// noteFailure counts one failed interaction; at k consecutive failures
// the node transitions down (returns true exactly on the transition).
func (n *node) noteFailure(k int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails++
	if !n.down && n.fails >= k {
		n.down = true
		return true
	}
	return false
}

// markUp resets the failure count; returns true on a down→up transition.
func (n *node) markUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.fails = 0
	was := n.down
	n.down = false
	return was
}

// markDown forces the down state (epoch/identity mismatch).
func (n *node) markDown() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.down = true
}

// Client is a coordinator: a full kv.Store whose keyspace is spread over
// the ring with quorum I/O, read-repair, and hinted handoff. Many
// coordinators over the same membership coexist without coordination —
// versions are (coordinator-local) monotone timestamps and every replica
// write is newest-wins.
type Client struct {
	cfg  Config
	ring *Ring
	// nodes is indexed like ring.Members().
	nodes []*node
	// events records ring transitions (member up/down, epoch exclusions)
	// and hint-replay completions for flodbctl top and /events.
	events *obs.EventLog

	ver    atomic.Uint64
	closed atomic.Bool

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	repairWG  sync.WaitGroup

	// reg holds the coordinator's metrics (telemetry.go): the operation
	// counters, counted once per cluster-level call (see Stats), and the
	// quorum, repair and hinted-handoff counters.
	reg                          *obs.Registry
	ops                          kv.OpCounters
	quorumWrites, degradedWrites *obs.Counter
	readRepairs                  *obs.Counter
	hintsQueued, hintsReplayed   *obs.Counter
}

// Open joins the cluster: builds the ring, loads persisted hints, dials
// every member (unreachable members start down and heal via the prober),
// and starts the heartbeat.
func Open(cfg Config) (*Client, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Members, cfg.Vnodes, cfg.Replication)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.HintDir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: hint dir: %w", err)
	}
	c := &Client{cfg: cfg, ring: ring, stopProbe: make(chan struct{}), events: obs.NewEventLog(0)}
	c.initObs()
	c.events.Emit(obs.Event{Type: obs.EventRingEpoch,
		Detail: fmt.Sprintf("ring epoch %#x over %d members (R=%d W=%d Rq=%d)",
			ring.Epoch(), len(ring.Members()), cfg.Replication, cfg.WriteQuorum, cfg.ReadQuorum)})
	// Versions are coordinator-assigned and must outrank every version a
	// previous coordinator incarnation assigned: seed from the clock,
	// count up from there.
	c.ver.Store(uint64(time.Now().UnixNano()))

	for _, m := range ring.Members() {
		h, err := openHintLog(hintPath(cfg.HintDir, m.ID))
		if err != nil {
			for _, n := range c.nodes {
				n.hints.close()
			}
			return nil, err
		}
		c.nodes = append(c.nodes, &node{member: m, hints: h})
	}

	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			cl, err := client.Dial(n.member.Addr,
				client.WithConns(cfg.Conns), client.WithDialTimeout(cfg.DialTimeout))
			n.mu.Lock()
			if err != nil {
				n.down = true
				n.fails = cfg.ProbeFailK
			} else {
				n.cl = cl
			}
			n.mu.Unlock()
			if err != nil {
				c.logf("cluster: node %s (%s) unreachable at open: %v", n.member.ID, n.member.Addr, err)
			}
		}(n)
	}
	wg.Wait()

	c.probeWG.Add(1)
	go c.probeLoop()
	// Backlogs persisted by a previous coordinator run drain as soon as
	// their targets answer a probe; kick the reachable ones now.
	for _, n := range c.nodes {
		if !n.isDown() && n.hints.pending() > 0 {
			c.kickReplay(n)
		}
	}
	return c, nil
}

func (c *Client) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// nodeDown records an up→down transition on the operator log and the
// event ring. Callers invoke it exactly on the transition (noteFailure
// returned true), never per failed request.
func (c *Client) nodeDown(n *node, reason string, err error) {
	c.logf("cluster: node %s marked down (%s): %v", n.member.ID, reason, err)
	c.events.Emit(obs.Event{Type: obs.EventRingDown,
		Detail: fmt.Sprintf("%s (%s): %s: %v", n.member.ID, n.member.Addr, reason, err)})
}

// Ring exposes the routing table (flodbctl, tests).
func (c *Client) Ring() *Ring { return c.ring }

// NodeStates reports each member's prober view (ring order).
func (c *Client) NodeStates() map[string]bool {
	states := make(map[string]bool, len(c.nodes))
	for _, n := range c.nodes {
		states[n.member.ID] = !n.isDown()
	}
	return states
}

// HintsPending sums the queued handoff records across members.
func (c *Client) HintsPending() int {
	total := 0
	for _, n := range c.nodes {
		total += n.hints.pending()
	}
	return total
}

func (c *Client) checkOpen() error {
	if c.closed.Load() {
		return fmt.Errorf("cluster: %w", kv.ErrClosed)
	}
	return nil
}

func (c *Client) nextVersion() uint64 { return c.ver.Add(1) }

// writeClass resolves the caller's durability class byte (for the hint
// record; the live RPC forwards the options themselves).
func writeClass(opts []kv.WriteOption) kv.Durability {
	var o kv.WriteOptions
	for _, opt := range opts {
		if opt != nil {
			opt.ApplyWrite(&o)
		}
	}
	return o.Durability
}

// --- Writes ------------------------------------------------------------------

// Put replicates key=value to its R owners, acking at the write quorum.
func (c *Client) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	c.ops.Puts.Add(1)
	return c.replicate(ctx, wire.VRecord{Version: c.nextVersion(), Key: key, Value: value}, opts)
}

// Delete replicates a versioned tombstone — a stale replica must never
// resurrect the value, so deletes are writes, filtered out by reads.
func (c *Client) Delete(ctx context.Context, key []byte, opts ...kv.WriteOption) error {
	c.ops.Deletes.Add(1)
	return c.replicate(ctx, wire.VRecord{Version: c.nextVersion(), Tombstone: true, Key: key}, opts)
}

// replicate fans one record to its owners: live owners get the RPC,
// unreachable owners get a hint. The write succeeds when at least one
// owner acked and every miss was unavailability (now hinted); it counts
// as quorum only at ≥ W real acks.
func (c *Client) replicate(ctx context.Context, rec wire.VRecord, opts []kv.WriteOption) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	owners := c.ring.Owners(rec.Key)
	type result struct {
		n   *node
		err error
	}
	results := make(chan result, len(owners))
	for _, oi := range owners {
		go func(n *node) {
			results <- result{n, c.vputNode(ctx, n, rec, opts)}
		}(c.nodes[oi])
	}
	acks := 0
	var hardErr error
	for range owners {
		r := <-results
		switch {
		case r.err == nil:
			acks++
		case errors.Is(r.err, kv.ErrUnavailable):
			if herr := r.n.hints.append(writeClass(opts), rec); herr != nil {
				hardErr = herr
			} else {
				c.hintsQueued.Add(1)
			}
		default:
			hardErr = r.err
		}
	}
	if hardErr != nil {
		return hardErr
	}
	if acks == 0 {
		return fmt.Errorf("cluster: no live replica reachable for write: %w", kv.ErrUnavailable)
	}
	if acks >= c.cfg.WriteQuorum {
		c.quorumWrites.Add(1)
	} else {
		c.degradedWrites.Add(1)
	}
	return nil
}

func (c *Client) vputNode(ctx context.Context, n *node, rec wire.VRecord, opts []kv.WriteOption) error {
	cl, err := n.liveClient()
	if err != nil {
		return err
	}
	_, err = cl.VPut(ctx, rec, opts...)
	if err != nil && errors.Is(err, kv.ErrUnavailable) {
		if n.noteFailure(c.cfg.ProbeFailK) {
			c.nodeDown(n, "write path", err)
		}
	}
	return err
}

// Apply commits the batch cluster-wide. Per NODE the sub-batch lands
// atomically (one engine batch, one WAL record); ACROSS nodes atomicity
// honestly weakens to per-op quorum — a coordinator crash mid-fan-out
// can leave a batch applied on some owners and hinted for others, healed
// forward (never rolled back) by replay and read-repair.
func (c *Client) Apply(ctx context.Context, b *kv.Batch, opts ...kv.WriteOption) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	var recs []wire.VRecord
	err := kv.ForEachOp(kv.EncodeBatchRecord(b), func(kind keys.Kind, key, value []byte) error {
		recs = append(recs, wire.VRecord{
			Version:   c.nextVersion(),
			Tombstone: kind == keys.KindDelete,
			Key:       append([]byte(nil), key...),
			Value:     append([]byte(nil), value...),
		})
		return nil
	})
	if err != nil {
		return err
	}
	c.ops.Batches.Add(1)
	c.ops.BatchOps.Add(uint64(len(recs)))
	if len(recs) == 0 {
		return nil
	}

	perNode := map[int][]wire.VRecord{}
	ownersOf := make([][]int, len(recs))
	for i := range recs {
		owners := c.ring.Owners(recs[i].Key)
		ownersOf[i] = owners
		for _, oi := range owners {
			perNode[oi] = append(perNode[oi], recs[i])
		}
	}

	type result struct {
		oi  int
		err error
	}
	results := make(chan result, len(perNode))
	for oi, sub := range perNode {
		go func(oi int, sub []wire.VRecord) {
			err := func() error {
				cl, err := c.nodes[oi].liveClient()
				if err != nil {
					return err
				}
				_, _, err = cl.VApply(ctx, sub, opts...)
				if err != nil && errors.Is(err, kv.ErrUnavailable) {
					if c.nodes[oi].noteFailure(c.cfg.ProbeFailK) {
						c.nodeDown(c.nodes[oi], "write path", err)
					}
				}
				return err
			}()
			results <- result{oi, err}
		}(oi, sub)
	}
	acked := map[int]bool{}
	var hardErr error
	for range perNode {
		r := <-results
		switch {
		case r.err == nil:
			acked[r.oi] = true
		case errors.Is(r.err, kv.ErrUnavailable):
			n := c.nodes[r.oi]
			cls := writeClass(opts)
			for _, rec := range perNode[r.oi] {
				if herr := n.hints.append(cls, rec); herr != nil {
					hardErr = herr
					break
				}
				c.hintsQueued.Add(1)
			}
		default:
			hardErr = r.err
		}
	}
	if hardErr != nil {
		return hardErr
	}
	minAcks := c.cfg.Replication + 1
	for i := range recs {
		a := 0
		for _, oi := range ownersOf[i] {
			if acked[oi] {
				a++
			}
		}
		if a < minAcks {
			minAcks = a
		}
	}
	if minAcks == 0 {
		return fmt.Errorf("cluster: batch op with no live replica: %w", kv.ErrUnavailable)
	}
	if minAcks >= c.cfg.WriteQuorum {
		c.quorumWrites.Add(1)
	} else {
		c.degradedWrites.Add(1)
	}
	return nil
}

// --- Reads -------------------------------------------------------------------

type readCopy struct {
	n     *node
	ver   uint64
	tomb  bool
	val   []byte
	found bool
	err   error
}

// Get consults every live owner, answers from the newest version, and
// pushes that version to any stale or missing replica (read-repair).
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	c.ops.Gets.Add(1)
	if err := c.checkOpen(); err != nil {
		return nil, false, err
	}
	owners := c.ring.Owners(key)
	copies, err := c.readOwners(ctx, owners, key)
	if err != nil {
		return nil, false, err
	}
	best, repairs := pickNewest(copies)
	c.repairAsync(key, best, repairs)
	if !best.found || best.tomb {
		return nil, false, nil
	}
	return best.val, true, nil
}

// readOwners queries the live owners in parallel, failing below the read
// quorum. Hard (non-availability) errors win over quorum accounting.
func (c *Client) readOwners(ctx context.Context, owners []int, key []byte) ([]readCopy, error) {
	results := make(chan readCopy, len(owners))
	for _, oi := range owners {
		go func(n *node) {
			rc := readCopy{n: n}
			cl, err := n.liveClient()
			if err != nil {
				rc.err = err
				results <- rc
				return
			}
			raw, found, err := cl.Get(ctx, key)
			if err != nil {
				if errors.Is(err, kv.ErrUnavailable) && n.noteFailure(c.cfg.ProbeFailK) {
					c.nodeDown(n, "read path", err)
				}
				rc.err = err
				results <- rc
				return
			}
			if found {
				rc.found = true
				rc.ver, rc.tomb, rc.val = parseStored(raw)
			}
			results <- rc
		}(c.nodes[oi])
	}
	copies := make([]readCopy, 0, len(owners))
	successes := 0
	var hardErr error
	for range owners {
		rc := <-results
		if rc.err == nil {
			successes++
		} else if !errors.Is(rc.err, kv.ErrUnavailable) {
			hardErr = rc.err
		}
		copies = append(copies, rc)
	}
	if hardErr != nil {
		return nil, hardErr
	}
	if successes < c.cfg.ReadQuorum {
		return nil, fmt.Errorf("cluster: %d of %d owners answered, read quorum is %d: %w",
			successes, len(owners), c.cfg.ReadQuorum, kv.ErrUnavailable)
	}
	return copies, nil
}

// parseStored decodes a replica's stored value; an unversioned legacy
// value reads as version 0 (any replicated write supersedes it).
func parseStored(raw []byte) (ver uint64, tomb bool, payload []byte) {
	ver, tomb, payload, err := wire.ParseVValue(raw)
	if err != nil {
		return 0, false, raw
	}
	return ver, tomb, payload
}

// pickNewest chooses the winning copy and the responders that need it
// pushed (stale version, or answered "not found" while a newer copy
// exists).
func pickNewest(copies []readCopy) (best readCopy, repairs []*node) {
	for _, rc := range copies {
		if rc.err != nil || !rc.found {
			continue
		}
		if !best.found || rc.ver > best.ver {
			best = rc
		}
	}
	if !best.found {
		return best, nil
	}
	for _, rc := range copies {
		if rc.err != nil || rc.n == best.n {
			continue
		}
		if !rc.found || rc.ver < best.ver {
			repairs = append(repairs, rc.n)
		}
	}
	return best, repairs
}

// repairAsync pushes the winning copy to stale replicas in the
// background; reads never wait on repairs.
func (c *Client) repairAsync(key []byte, best readCopy, targets []*node) {
	if !best.found || len(targets) == 0 || c.closed.Load() {
		return
	}
	rec := wire.VRecord{
		Version:   best.ver,
		Tombstone: best.tomb,
		Key:       append([]byte(nil), key...),
		Value:     append([]byte(nil), best.val...),
	}
	c.repairWG.Add(1)
	go func() {
		defer c.repairWG.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		for _, n := range targets {
			cl, err := n.liveClient()
			if err != nil {
				continue
			}
			if _, err := cl.VPut(ctx, rec); err == nil {
				c.readRepairs.Add(1)
			}
		}
	}()
}

// Scan materializes the merged range — see NewIterator for semantics.
func (c *Client) Scan(ctx context.Context, low, high []byte) ([]kv.Pair, error) {
	c.ops.Scans.Add(1)
	it, err := c.newMergedLive(ctx, low, high)
	if err != nil {
		return nil, err
	}
	return kv.Collect(it)
}

// NewIterator merges per-member range cursors, newest version winning on
// replica overlap and tombstones filtered. Every member holds only the
// keys it owns, so the union over live members covers the keyspace as
// long as no more than R−Rq members are down.
func (c *Client) NewIterator(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	c.ops.Iterators.Add(1)
	return c.newMergedLive(ctx, low, high)
}

func (c *Client) newMergedLive(ctx context.Context, low, high []byte) (kv.Iterator, error) {
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	var srcs []kv.Iterator
	downCount := 0
	fail := func(err error) (kv.Iterator, error) {
		for _, s := range srcs {
			s.Close()
		}
		return nil, err
	}
	for _, n := range c.nodes {
		cl, err := n.liveClient()
		if err != nil {
			downCount++
			continue
		}
		it, err := cl.NewIterator(ctx, low, high)
		if err != nil {
			if errors.Is(err, kv.ErrUnavailable) {
				downCount++
				continue
			}
			return fail(err)
		}
		srcs = append(srcs, it)
	}
	if downCount > c.cfg.Replication-c.cfg.ReadQuorum {
		return fail(fmt.Errorf("cluster: %d members down exceeds R-Rq=%d, scan coverage not guaranteed: %w",
			downCount, c.cfg.Replication-c.cfg.ReadQuorum, kv.ErrUnavailable))
	}
	return kv.Merge(srcs, newestLive), nil
}

// newestLive is the scan merge's policy over the stored copies of one
// key that the members' cursors hold: the highest version wins and a
// winning tombstone skips the key — the rule Get applies to its
// replies. A scan never writes, but it returns the repaired truth.
func newestLive(copies [][]byte) ([]byte, bool) {
	var bestVer uint64
	var best []byte
	bestTomb := false
	for i, raw := range copies {
		ver, tomb, payload := parseStored(raw)
		if i == 0 || ver > bestVer {
			bestVer, bestTomb, best = ver, tomb, payload
		}
	}
	return best, !bestTomb
}

// --- Barriers, snapshots, checkpoints ----------------------------------------

// Sync raises the durability barrier: every live member promotes its
// acked-buffered window, and the hint logs fsync so queued handoffs are
// as durable as the writes they stand in for. Counted once,
// coordinator-side (Stats.SyncBarriers sums would triple-count fan-out).
func (c *Client) Sync(ctx context.Context) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.ops.SyncBarriers.Add(1)
	var wg sync.WaitGroup
	errs := make(chan error, len(c.nodes))
	for _, n := range c.nodes {
		cl, err := n.liveClient()
		if err != nil {
			continue // a down member has hints, not acked writes, to protect
		}
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			if err := cl.Sync(ctx); err != nil && !errors.Is(err, kv.ErrUnavailable) {
				errs <- err
			}
		}(cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	for _, n := range c.nodes {
		if err := n.hints.sync(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot pins a repeatable-read view on EVERY member (reads merge the
// owners' pinned views deterministically), so it requires full
// membership: a snapshot with a blind spot would not be repeatable.
func (c *Client) Snapshot(ctx context.Context) (kv.View, error) {
	if err := c.checkOpen(); err != nil {
		return nil, err
	}
	c.ops.Snapshots.Add(1)
	views := make([]kv.View, len(c.nodes))
	fail := func(err error) (kv.View, error) {
		for _, v := range views {
			if v != nil {
				v.Close()
			}
		}
		return nil, err
	}
	for i, n := range c.nodes {
		cl, err := n.liveClient()
		if err != nil {
			return fail(fmt.Errorf("cluster: snapshot needs every member: %w", err))
		}
		v, err := cl.Snapshot(ctx)
		if err != nil {
			return fail(err)
		}
		views[i] = v
	}
	return &clusterView{c: c, views: views}, nil
}

// Checkpoint fans out: every member checkpoints its engine into
// dir/<memberID> (a path on ITS filesystem), and the coordinator drops a
// CLUSTER.json manifest beside them describing the ring, so the
// checkpoint reopens as the same cluster.
func (c *Client) Checkpoint(ctx context.Context, dir string) error {
	if err := c.checkOpen(); err != nil {
		return err
	}
	c.ops.Checkpoints.Add(1)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(c.nodes))
	for _, n := range c.nodes {
		cl, err := n.liveClient()
		if err != nil {
			errs <- fmt.Errorf("cluster: checkpoint needs every member: %w", err)
			continue
		}
		wg.Add(1)
		go func(n *node, cl *client.Client) {
			defer wg.Done()
			if err := cl.Checkpoint(ctx, filepath.Join(dir, n.member.ID)); err != nil {
				errs <- err
			}
		}(n, cl)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	manifest := Manifest{
		Members:     c.ring.Members(),
		Replication: c.cfg.Replication,
		WriteQuorum: c.cfg.WriteQuorum,
		ReadQuorum:  c.cfg.ReadQuorum,
		Vnodes:      c.cfg.Vnodes,
		Epoch:       c.ring.Epoch(),
	}
	blob, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "CLUSTER.json"), blob, 0o644)
}

// Manifest is the CLUSTER.json a checkpoint carries: enough to rebuild
// the identical ring over the checkpointed node directories.
type Manifest struct {
	Members     []Member `json:"members"`
	Replication int      `json:"replication"`
	WriteQuorum int      `json:"write_quorum"`
	ReadQuorum  int      `json:"read_quorum"`
	Vnodes      int      `json:"vnodes"`
	Epoch       uint64   `json:"epoch"`
}

// --- Stats -------------------------------------------------------------------

// Stats reads the cluster's counters off the coordinator's snapshot merged
// with every live member's telemetry, under one rule: a metric family the
// coordinator registers comes from the coordinator only. So cluster-level
// operations (puts, scans, Sync barriers …) are counted ONCE — summing
// them from the members would multiply every fan-out by R — while every
// other family (the engines' acked-vs-durable boundary, WAL sync
// coalescing, flushes, the members' servers) is summed across members: it
// describes work that genuinely happened R times.
func (c *Client) Stats() kv.Stats {
	own := c.TelemetrySnapshot()
	coordinator := make(map[string]bool, len(own.Metrics))
	for _, m := range own.Metrics {
		coordinator[obs.Family(m.Name)] = true
	}
	snaps := []obs.Snapshot{own}
	for _, n := range c.nodes {
		if n.isDown() {
			continue
		}
		cl, err := n.liveClient()
		if err != nil {
			continue
		}
		tp, err := cl.Telemetry(context.Background(), -1)
		if err != nil {
			continue
		}
		var member obs.Snapshot
		for _, m := range tp.Metrics {
			if !coordinator[obs.Family(m.Name)] {
				member.Metrics = append(member.Metrics, m)
			}
		}
		snaps = append(snaps, member)
	}
	return kv.StatsOf(obs.Merge(snaps...))
}

// --- Lifecycle ---------------------------------------------------------------

// Close drains and leaves: stop the prober, let in-flight repairs
// finish, attempt one final hint replay toward reachable members, fsync
// and close the hint logs (unreplayed hints persist for the next open),
// then close the member clients.
func (c *Client) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	close(c.stopProbe)
	c.probeWG.Wait()
	waitBounded(&c.repairWG, 5*time.Second)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var firstErr error
	for _, n := range c.nodes {
		if n.hints.pending() > 0 && !n.isDown() {
			if _, err := c.replayHints(ctx, n); err != nil {
				c.logf("cluster: final hint replay toward %s: %v", n.member.ID, err)
			}
		}
	}
	for _, n := range c.nodes {
		if err := n.hints.sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := n.hints.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		cl := n.cl
		n.mu.Unlock()
		if cl != nil {
			cl.Close()
		}
	}
	return firstErr
}

// CrashForTesting abandons the coordinator without draining anything:
// no final replay, no graceful close — the coordinator-death shape the
// crash suites need. Hint logs are write-through, so everything queued
// is already on disk.
func (c *Client) CrashForTesting() {
	if c.closed.Swap(true) {
		return
	}
	close(c.stopProbe)
	c.probeWG.Wait()
	for _, n := range c.nodes {
		n.hints.close()
		n.mu.Lock()
		cl := n.cl
		n.mu.Unlock()
		if cl != nil {
			cl.Close()
		}
	}
}

func waitBounded(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d):
	}
}

var (
	_ kv.Store         = (*Client)(nil)
	_ kv.StatsProvider = (*Client)(nil)
)
