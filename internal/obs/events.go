package obs

import (
	"sort"
	"sync"
	"time"
)

// Event types emitted across the stack. Each is a lifecycle moment worth
// correlating with a latency spike: the telemetry answers "what was the
// store doing when that p999 happened".
const (
	EventFlush         = "flush"          // immutable memtable → L0 sstable
	EventCompaction    = "compaction"     // level-N → level-N+1 rewrite
	EventSeal          = "membuffer-seal" // membuffer generation switch (drain start)
	EventWALRotate     = "wal-rotate"     // new WAL segment opened
	EventWALStall      = "wal-stall"      // group-commit follower waited on a leader fsync
	EventCachePressure = "cache-pressure" // block/table cache evicting under load
	EventSnapshotPin   = "snapshot-pin"   // O(1) snapshot sealed + seq bound pinned
	EventSnapshotUnpin = "snapshot-unpin" // snapshot closed, version chains may collapse
	EventShardFanout   = "shard-fanout"   // cross-shard batch/scan fan-out
	EventShardSplit    = "shard-split"    // hot shard split at a sampled key (epoch bump)
	EventShardMerge    = "shard-merge"    // cold neighbor shards merged (epoch bump)
	EventShardQueue    = "shard-queue"    // committer queue depth crossed a high-water mark
	EventRingUp        = "ring-up"        // cluster member became reachable
	EventRingDown      = "ring-down"      // cluster member lost
	EventRingEpoch     = "ring-epoch"     // ring config epoch observed/changed
	EventHintReplay    = "hint-replay"    // hinted-handoff log drained to a healed peer
)

// Event is one structured record in the bounded event log.
type Event struct {
	Seq    uint64        `json:"seq"`
	Time   time.Time     `json:"time"`
	Type   string        `json:"type"`
	Dur    time.Duration `json:"dur_ns,omitempty"`
	Bytes  int64         `json:"bytes,omitempty"`
	Keys   int64         `json:"keys,omitempty"`
	Detail string        `json:"detail,omitempty"`
}

// EventLog is a bounded ring buffer of Events plus per-type totals. Emit
// is cheap (one short critical section, no allocation after warm-up) and
// safe from any goroutine; when the ring is full the oldest events are
// overwritten but the totals keep counting. A nil *EventLog ignores
// Emit, so disabled-telemetry paths hold nil instead of branching.
type EventLog struct {
	mu     sync.Mutex
	buf    []Event
	cap    int
	next   uint64 // total events ever emitted == next seq
	counts map[string]uint64
}

// DefaultEventLogSize is the ring capacity layers use unless configured.
const DefaultEventLogSize = 512

// NewEventLog returns a ring holding the most recent capacity events
// (DefaultEventLogSize when capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = DefaultEventLogSize
	}
	return &EventLog{cap: capacity, counts: make(map[string]uint64)}
}

// Emit records an event, stamping Seq and (when zero) Time.
func (l *EventLog) Emit(e Event) {
	if l == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	l.mu.Lock()
	e.Seq = l.next
	l.next++
	l.counts[e.Type]++
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
	} else {
		l.buf[int(e.Seq)%l.cap] = e
	}
	l.mu.Unlock()
}

// Recent returns up to n of the newest events, oldest first. n <= 0
// means everything still in the ring.
func (l *EventLog) Recent(n int) []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, 0, len(l.buf))
	start := uint64(0)
	if l.next > uint64(len(l.buf)) {
		start = l.next - uint64(len(l.buf))
	}
	for seq := start; seq < l.next; seq++ {
		out = append(out, l.buf[int(seq)%l.cap])
	}
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// Total returns the number of events ever emitted (not just retained).
func (l *EventLog) Total() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Counts returns a copy of the per-type totals.
func (l *EventLog) Counts() map[string]uint64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.counts))
	for k, v := range l.counts {
		out[k] = v
	}
	return out
}

// MergeEvents interleaves event slices by timestamp (per-shard and
// store+server logs presented as one timeline), keeping at most n
// newest when n > 0.
func MergeEvents(n int, logs ...[]Event) []Event {
	var out []Event
	for _, l := range logs {
		out = append(out, l...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time.Before(out[j].Time) })
	if n > 0 && len(out) > n {
		out = out[len(out)-n:]
	}
	return out
}

// EventCountMetrics renders per-type totals as counter metrics
// (flodb_events_total{type="..."}) for the /metrics exposition, summing
// across the given logs.
func EventCountMetrics(logs ...*EventLog) []Metric {
	sum := make(map[string]uint64)
	for _, l := range logs {
		for t, c := range l.Counts() {
			sum[t] += c
		}
	}
	types := make([]string, 0, len(sum))
	for t := range sum {
		types = append(types, t)
	}
	sort.Strings(types)
	out := make([]Metric, 0, len(types))
	for _, t := range types {
		out = append(out, Metric{
			Name:  `flodb_events_total{type="` + t + `"}`,
			Help:  "Structured events emitted, by type.",
			Kind:  KindCounter,
			Value: int64(sum[t]),
		})
	}
	return out
}
