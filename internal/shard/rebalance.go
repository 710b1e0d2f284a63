package shard

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"flodb/internal/core"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/obs"
)

// This file is the dynamic-topology half of the shard package: a
// sensor-driven controller that splits hot shards and merges cold
// neighbors, plus the rewrite procedure both actions share.
//
// A rewrite follows one protocol, crash-safe by construction:
//
//  1. FENCE   — the affected shards' queues are retired; their
//     committers drain what's in flight and exit. Producers that lose
//     the race re-route through the next topology. Writes queued but
//     not yet committed are captured, still un-acked.
//  2. COPY    — each affected shard is snapshotted and its live pairs
//     stream into FRESH child directories (new directory names, so old
//     and new data can never be confused), then the children flush to
//     SSTables: fully durable before anything references them.
//  3. COMMIT  — the SHARDS manifest is atomically renamed with the new
//     layout and a bumped epoch. This rename is the commit point: a
//     crash before it reopens the old epoch (children are swept as
//     orphans), a crash after it reopens the new epoch (retired parents
//     are swept as orphans). Nothing acked is ever lost — everything
//     acked was either committed in a parent (copied into the children
//     before the rename) or committed after the rename.
//  4. SWAP    — the new table is published under the snapshot barrier,
//     producers parked on the old topology wake and re-route, and the
//     captured step-1 leftovers commit inline through the new table
//     (then ack). Parents retire; pinned snapshots keep them readable
//     until released, and the last release reclaims their directories.

// rebalanceLoop is the controller: every Dynamic.Interval it reads each
// shard's cumulative op counters, differences them into a per-window
// share, and — with hysteresis and a post-action cooldown — splits the
// hot shard or merges the coldest adjacent pair.
func (s *Store) rebalanceLoop() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.dyn.Interval)
	defer ticker.Stop()
	var (
		hotStreak, coldStreak int
		hotPrev, coldPrev     *engine // streaks track engines, not indices — indices shift across epochs
		cooldown              int
	)
	for {
		select {
		case <-s.quit:
			return
		case <-ticker.C:
		}
		if s.closed.Load() {
			return
		}
		t := s.topo.Load()
		shares, total := s.senseWindow(t)
		if cooldown > 0 {
			cooldown--
			continue
		}
		if total < s.dyn.MinWindowOps {
			hotStreak, coldStreak, hotPrev, coldPrev = 0, 0, nil, nil
			continue
		}
		n := len(t.engines)
		fair := 1.0 / float64(n)

		hotIdx := 0
		for i := range shares {
			if shares[i] > shares[hotIdx] {
				hotIdx = i
			}
		}
		// A lone shard can never balance anything: any sustained traffic
		// makes it hot. Past that, hot means well above the fair share —
		// but SplitFactor×fair reaches 1.0 at n=2 (unattainable, a share
		// is a fraction of the window), so the threshold is capped below
		// it: a shard drawing 90% of any window's traffic is hot at any n.
		hotAt := s.dyn.SplitFactor * fair
		if hotAt > 0.9 {
			hotAt = 0.9
		}
		isHot := n == 1 || shares[hotIdx] > hotAt
		if isHot && n < s.dyn.MaxShards {
			if t.engines[hotIdx] == hotPrev {
				hotStreak++
			} else {
				hotStreak, hotPrev = 1, t.engines[hotIdx]
			}
			if hotStreak >= s.dyn.Hysteresis {
				if err := s.Split(hotIdx); err == nil {
					cooldown = s.dyn.Cooldown
				}
				hotStreak, coldStreak, hotPrev, coldPrev = 0, 0, nil, nil
				continue
			}
		} else {
			hotStreak, hotPrev = 0, nil
		}

		if n > s.dyn.MinShards && n >= 2 {
			coldIdx := 0
			for i := 0; i+1 < n; i++ {
				if shares[i]+shares[i+1] < shares[coldIdx]+shares[coldIdx+1] {
					coldIdx = i
				}
			}
			if shares[coldIdx]+shares[coldIdx+1] < s.dyn.MergeFactor*fair {
				if t.engines[coldIdx] == coldPrev {
					coldStreak++
				} else {
					coldStreak, coldPrev = 1, t.engines[coldIdx]
				}
				if coldStreak >= s.dyn.Hysteresis {
					if err := s.Merge(coldIdx); err == nil {
						cooldown = s.dyn.Cooldown
					}
					coldStreak, coldPrev = 0, nil
				}
			} else {
				coldStreak, coldPrev = 0, nil
			}
		}
	}
}

// senseWindow differences each engine's cumulative op count against the
// previous window and publishes every shard's share of the window's
// traffic (the ShardHotness stat).
func (s *Store) senseWindow(t *table) ([]float64, uint64) {
	deltas := make([]uint64, len(t.engines))
	var total uint64
	for i, e := range t.engines {
		st := e.db.Stats()
		ops := st.Puts + st.Gets + st.Deletes
		if ops >= e.prevOps {
			deltas[i] = ops - e.prevOps
		}
		e.prevOps = ops
		total += deltas[i]
	}
	shares := make([]float64, len(t.engines))
	for i, e := range t.engines {
		if total > 0 {
			shares[i] = float64(deltas[i]) / float64(total)
		}
		e.storeHotShare(shares[i])
	}
	return shares, total
}

// Split splits shard idx in two at a sampled median of its recent write
// keys (falling back to its range's midpoint), bumping the topology
// epoch. Writers to the shard are fenced only for the handoff; reads
// and other shards never stall. Requires range routing.
func (s *Store) Split(idx int) error {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	t := s.topo.Load()
	if t.hashed {
		return ErrDynamicHashRouting
	}
	if idx < 0 || idx >= len(t.engines) {
		return fmt.Errorf("shard: split index %d out of range [0, %d)", idx, len(t.engines))
	}
	parent := t.engines[idx]
	low, high := t.bounds(idx)
	splitKey := parent.sampledSplitKey()
	if splitKey != nil && !strictlyInside(splitKey, low, high) {
		splitKey = nil
	}
	if splitKey == nil {
		splitKey = midpointKey(low, high)
	}
	if splitKey == nil {
		return fmt.Errorf("shard: %s's key range is too narrow to split", parent.dir)
	}

	// FENCE.
	rem := parent.queue.close()
	parent.ringDoorbell()
	<-parent.drained

	newCount := len(t.engines) + 1
	leftDir, rightDir := shardDirName(t.nextDir), shardDirName(t.nextDir+1)

	// COPY.
	err := func() error {
		view, err := parent.db.Snapshot(context.Background())
		if err != nil {
			return err
		}
		defer view.Close()
		if err := s.buildChild(leftDir, newCount, []kv.View{view}, [][2][]byte{{low, splitKey}}); err != nil {
			return err
		}
		return s.buildChild(rightDir, newCount, []kv.View{view}, [][2][]byte{{splitKey, high}})
	}()
	if err != nil {
		return s.abortRewrite(t, []int{idx}, []string{leftDir, rightDir}, rem, err)
	}

	if h := s.testHookPreManifest; h != nil {
		if herr := h(); herr != nil {
			s.crashInRewrite(t, rem)
			return herr
		}
	}

	// COMMIT.
	nl := &layout{epoch: t.epoch + 1, nextDir: t.nextDir + 2}
	for i, e := range t.engines {
		if i == idx {
			nl.dirs = append(nl.dirs, leftDir, rightDir)
		} else {
			nl.dirs = append(nl.dirs, e.dir)
		}
	}
	nl.boundaries = insertBoundary(t.boundaries, idx, splitKey)
	if err := writeLayout(s.dir, nl); err != nil {
		return s.abortRewrite(t, []int{idx}, []string{leftDir, rightDir}, rem, err)
	}

	// SWAP. Past the commit point a failure to reopen a child leaves the
	// store unservable on that range — treat it like a crash; reopening
	// the directory recovers the new epoch.
	leftE, lerr := s.openEngine(leftDir, newCount)
	if lerr != nil {
		s.crashInRewrite(t, rem)
		return fmt.Errorf("shard: reopening split children after commit: %w", lerr)
	}
	rightE, rerr := s.openEngine(rightDir, newCount)
	if rerr != nil {
		leftE.release()
		s.crashInRewrite(t, rem)
		return fmt.Errorf("shard: reopening split children after commit: %w", rerr)
	}
	nt := &table{
		epoch:      nl.epoch,
		boundaries: nl.boundaries,
		nextDir:    nl.nextDir,
		changed:    make(chan struct{}),
	}
	for i, e := range t.engines {
		if i == idx {
			nt.engines = append(nt.engines, leftE, rightE)
		} else {
			nt.engines = append(nt.engines, e)
		}
	}
	leftE.start(s)
	rightE.start(s)
	s.installTable(t, nt)
	s.redispatch(nt, rem)
	parent.retired.Store(true)
	parent.release()
	s.splits.Add(1)
	s.events.Emit(obs.Event{
		Type: obs.EventShardSplit,
		Detail: fmt.Sprintf("epoch %d: %s split into %s + %s at %x",
			nt.epoch, parent.dir, leftDir, rightDir, splitKey),
	})
	return nil
}

// Merge merges shards idx and idx+1 into one, dropping the boundary
// between them and bumping the topology epoch. Requires range routing.
func (s *Store) Merge(idx int) error {
	s.rebalMu.Lock()
	defer s.rebalMu.Unlock()
	if s.closed.Load() {
		return ErrClosed
	}
	t := s.topo.Load()
	if t.hashed {
		return ErrDynamicHashRouting
	}
	if idx < 0 || idx+1 >= len(t.engines) {
		return fmt.Errorf("shard: merge index %d out of range [0, %d)", idx, len(t.engines)-1)
	}
	left, right := t.engines[idx], t.engines[idx+1]
	low, mid := t.bounds(idx)
	_, high := t.bounds(idx + 1)

	// FENCE both sources.
	remL := left.queue.close()
	left.ringDoorbell()
	remR := right.queue.close()
	right.ringDoorbell()
	<-left.drained
	<-right.drained
	rem := concatOps(remL, remR)

	newCount := len(t.engines) - 1
	childDir := shardDirName(t.nextDir)

	// COPY both source ranges into one child.
	err := func() error {
		vL, err := left.db.Snapshot(context.Background())
		if err != nil {
			return err
		}
		defer vL.Close()
		vR, err := right.db.Snapshot(context.Background())
		if err != nil {
			return err
		}
		defer vR.Close()
		return s.buildChild(childDir, newCount,
			[]kv.View{vL, vR}, [][2][]byte{{low, mid}, {mid, high}})
	}()
	if err != nil {
		return s.abortRewrite(t, []int{idx, idx + 1}, []string{childDir}, rem, err)
	}

	if h := s.testHookPreManifest; h != nil {
		if herr := h(); herr != nil {
			s.crashInRewrite(t, rem)
			return herr
		}
	}

	// COMMIT.
	nl := &layout{epoch: t.epoch + 1, nextDir: t.nextDir + 1}
	for i, e := range t.engines {
		switch i {
		case idx:
			nl.dirs = append(nl.dirs, childDir)
		case idx + 1:
		default:
			nl.dirs = append(nl.dirs, e.dir)
		}
	}
	nl.boundaries = removeBoundary(t.boundaries, idx)
	if err := writeLayout(s.dir, nl); err != nil {
		return s.abortRewrite(t, []int{idx, idx + 1}, []string{childDir}, rem, err)
	}

	// SWAP.
	child, err := s.openEngine(childDir, max(newCount, 1))
	if err != nil {
		s.crashInRewrite(t, rem)
		return fmt.Errorf("shard: reopening merged child after commit: %w", err)
	}
	nt := &table{
		epoch:      nl.epoch,
		boundaries: nl.boundaries,
		nextDir:    nl.nextDir,
		changed:    make(chan struct{}),
	}
	for i, e := range t.engines {
		switch i {
		case idx:
			nt.engines = append(nt.engines, child)
		case idx + 1:
		default:
			nt.engines = append(nt.engines, e)
		}
	}
	child.start(s)
	s.installTable(t, nt)
	s.redispatch(nt, rem)
	left.retired.Store(true)
	right.retired.Store(true)
	left.release()
	right.release()
	s.merges.Add(1)
	s.events.Emit(obs.Event{
		Type: obs.EventShardMerge,
		Detail: fmt.Sprintf("epoch %d: %s + %s merged into %s",
			nt.epoch, left.dir, right.dir, childDir),
	})
	return nil
}

// buildChild opens a fresh child directory and streams each view's
// [low, high) slice into it, then closes it — the close flushes the
// memory component, so the child is durable on disk before the caller
// reaches the manifest commit point.
func (s *Store) buildChild(dirName string, count int, views []kv.View, bounds [][2][]byte) error {
	sc := s.core
	sc.Dir = filepath.Join(s.dir, dirName)
	if s.core.MemoryBytes > 0 {
		sc.MemoryBytes = max(s.core.MemoryBytes/int64(count), 1)
	}
	if s.core.Storage.BlockCacheBytes > 0 {
		sc.Storage.BlockCacheBytes = max(s.core.Storage.BlockCacheBytes/int64(count), 1)
	}
	db, err := core.Open(sc)
	if err != nil {
		return err
	}
	for i, view := range views {
		if err = copyInto(db, view, bounds[i][0], bounds[i][1]); err != nil {
			break
		}
	}
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.RemoveAll(sc.Dir)
	}
	return err
}

// copyInto streams view's [low, high) live pairs into db in batches.
// Tombstones need not travel: the child starts empty, so absence IS the
// deletion. DurabilityNone skips the child's WAL — the close-time flush
// is what makes the copy durable.
func copyInto(db *core.DB, view kv.View, low, high []byte) error {
	it, err := view.NewIterator(context.Background(), low, high)
	if err != nil {
		return err
	}
	defer it.Close()
	b := kv.NewBatch()
	flush := func() error {
		if b.Len() == 0 {
			return nil
		}
		err := db.CommitBatch(context.Background(), b, kv.DurabilityNone, 0, 0)
		b = kv.NewBatch()
		return err
	}
	for ok := it.First(); ok; ok = it.Next() {
		b.Put(it.Key(), it.Value())
		if b.Len() >= 512 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := it.Err(); err != nil {
		return err
	}
	return flush()
}

// installTable publishes nt under the snapshot barrier — a Snapshot
// sees either the old epoch complete or the new one, never a hybrid —
// and wakes producers parked on the old topology.
func (s *Store) installTable(old, nt *table) {
	s.snapMu.Lock()
	s.topo.Store(nt)
	s.snapMu.Unlock()
	close(old.changed)
}

// redispatch commits the fenced leftovers — writes queued on a retired
// shard but never picked up — inline through the new table, in their
// arrival order, then acks them. Inline (rather than re-enqueued)
// because an Apply sub-batch may now straddle the new boundary and its
// single ack must wait for every piece.
func (s *Store) redispatch(nt *table, rem *writeOp) {
	for op := rem; op != nil; {
		next := op.next
		op.done <- s.commitDirect(nt, op)
		op = next
	}
}

// commitDirect commits one leftover op through t, bypassing the queues.
// Ops always copy into a fresh batch: the engine retains the committed
// batch's memory, while op's buffers belong to its blocked producer.
func (s *Store) commitDirect(t *table, op *writeOp) error {
	if err := op.ctx.Err(); err != nil {
		return err
	}
	commit := func(e *engine, b *kv.Batch, puts, dels uint64) error {
		s.snapMu.RLock()
		defer s.snapMu.RUnlock()
		return e.db.CommitBatch(context.Background(), b, op.d, puts, dels)
	}
	if op.batch == nil {
		b := kv.NewBatch()
		if op.kind == keys.KindDelete {
			b.Delete(op.key)
		} else {
			b.Put(op.key, op.value)
		}
		return commit(t.engines[t.shardFor(op.key)], b, op.puts, op.dels)
	}
	idxs, parts := splitBatch(t, op.batch)
	var firstErr error
	for j, part := range parts {
		b := kv.NewBatch()
		for _, o := range part.Ops() {
			if o.Kind == keys.KindDelete {
				b.Delete(o.Key)
			} else {
				b.Put(o.Key, o.Value)
			}
		}
		// Batch entries carry no per-op attribution, matching Apply.
		if err := commit(t.engines[idxs[j]], b, 0, 0); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// abortRewrite unwinds a rewrite that failed BEFORE its commit point:
// half-built children are deleted and the fenced parents go back into
// service behind fresh queues. The old engine structs are abandoned
// un-finalized — their DBs live on inside the replacements — so pinned
// readers of the old table stay valid.
func (s *Store) abortRewrite(t *table, idxs []int, childDirs []string, rem *writeOp, cause error) error {
	for _, d := range childDirs {
		os.RemoveAll(filepath.Join(s.dir, d))
	}
	nt := &table{
		epoch:      t.epoch,
		boundaries: t.boundaries,
		hashed:     t.hashed,
		nextDir:    t.nextDir,
		changed:    make(chan struct{}),
	}
	nt.engines = append([]*engine(nil), t.engines...)
	for _, i := range idxs {
		old := nt.engines[i]
		e := &engine{
			db:      old.db,
			dir:     old.dir,
			root:    s.dir,
			wake:    make(chan struct{}, 1),
			drained: make(chan struct{}),
			crashed: &s.crashed,
		}
		e.refs.Store(1)
		nt.engines[i] = e
		e.start(s)
	}
	s.installTable(t, nt)
	s.redispatch(nt, rem)
	return cause
}

// crashInRewrite abandons the store from inside a rewrite, exactly as
// CrashForTesting would: the test hook's simulated crash, or a
// post-commit-point failure that cannot be unwound. rem and everything
// still queued elsewhere complete with ErrClosed, un-acked.
func (s *Store) crashInRewrite(t *table, rem *writeOp) {
	s.closed.Store(true)
	s.crashed.Store(true)
	for op := rem; op != nil; {
		next := op.next
		op.done <- ErrClosed
		op = next
	}
	for _, e := range t.engines {
		other := e.queue.close()
		e.ringDoorbell()
		for op := other; op != nil; {
			next := op.next
			op.done <- ErrClosed
			op = next
		}
	}
	for _, e := range t.engines {
		<-e.drained
	}
	close(t.changed)
	for _, e := range t.engines {
		e.release()
	}
}

// strictlyInside reports low < k < high (nil bounds are open).
func strictlyInside(k, low, high []byte) bool {
	if low != nil && keys.Compare(k, low) <= 0 {
		return false
	}
	if high != nil && keys.Compare(k, high) >= 0 {
		return false
	}
	return true
}

// midpointKey computes a key strictly between low and high by treating
// both as big-endian fractions of the keyspace and averaging them —
// the split point of last resort when a shard has no sampled writes to
// vote with. Returns nil when the range is too narrow to cut.
func midpointKey(low, high []byte) []byte {
	const n = 16 // working precision: plenty past any real boundary
	a := make([]byte, n)
	copy(a, low)
	b := make([]byte, n)
	carry := 0
	if high == nil {
		carry = 1 // the open top is 1.0: one unit beyond the fraction space
	} else {
		copy(b, high)
	}
	sum := make([]byte, n)
	c := 0
	for i := n - 1; i >= 0; i-- {
		v := int(a[i]) + int(b[i]) + c
		sum[i] = byte(v)
		c = v >> 8
	}
	rem := c + carry
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		v := rem<<8 | int(sum[i])
		out[i] = byte(v >> 1)
		rem = v & 1
	}
	if !strictlyInside(out, low, high) {
		return nil
	}
	return out
}

func insertBoundary(bs [][]byte, idx int, k []byte) [][]byte {
	out := make([][]byte, 0, len(bs)+1)
	out = append(out, bs[:idx]...)
	out = append(out, k)
	return append(out, bs[idx:]...)
}

func removeBoundary(bs [][]byte, idx int) [][]byte {
	out := make([][]byte, 0, len(bs)-1)
	out = append(out, bs[:idx]...)
	return append(out, bs[idx+1:]...)
}

func concatOps(a, b *writeOp) *writeOp {
	if a == nil {
		return b
	}
	tail := a
	for tail.next != nil {
		tail = tail.next
	}
	tail.next = b
	return a
}
