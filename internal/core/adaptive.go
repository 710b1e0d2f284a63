package core

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"flodb/internal/kv"
	"flodb/internal/membuffer"
	"flodb/internal/obs"
)

// Adaptive memory-component sizing (§4.4).
//
// The paper fixes the Membuffer:Memtable split at 1:4 empirically, and
// notes that the right split is a property of the WORKLOAD: update-heavy
// streams want a large Membuffer (more updates complete in O(1) and the
// drain batches stay full), while scan- and read-heavy streams want a
// small one (every range read must drain the Membuffer before it can
// take a sequence point, so a big buffer taxes exactly the operations
// that least benefit from it). This file implements that feedback loop:
//
//	sensor     — windowed rates of puts/gets/scans and drain-stall time,
//	             derived from the cumulative op counters every
//	             AdaptiveWindow (no new hot-path work beyond one stall
//	             clock in the slow write path).
//	controller — maps the window's write share to a target fraction in
//	             [AdaptiveMinFraction, AdaptiveMaxFraction], smooths it,
//	             and triggers a resize epoch when the live split is off
//	             target by more than a deadband.
//	resize     — one generation switch under drainMu through the
//	             existing immutable-Membuffer drain path: seal the old
//	             buffer at its old capacity, open a fresh one at the new
//	             capacity, drain the sealed one into the Memtable with
//	             writers helping. Readers never block; there is no
//	             rehash. The Memtable persist target moves in the
//	             opposite direction automatically (target = total −
//	             membuffer share).

const (
	// adaptScanWeight prices one scan/iterator against point ops. Every
	// range read seals the Membuffer and drains whatever is resident —
	// up to thousands of entry-moves at the default geometry — so one
	// scan op weighs several hundred point ops: even a few-percent scan
	// mix makes an oversized Membuffer the dominant cost and should pull
	// the split down hard.
	adaptScanWeight = 400
	// adaptShareGain smooths the measured shares across windows (EWMA),
	// so one bursty window does not trigger an epoch; the fraction then
	// jumps straight to the smoothed target — one resize per phase
	// shift instead of a staircase of them.
	adaptShareGain = 0.7
	// adaptScanAttackGain is the asymmetric fast path for scan ONSET:
	// when the scan share rises, waiting costs a full oversized drain
	// per range read, so the controller reacts at nearly full speed;
	// scan decay uses the normal gain.
	adaptScanAttackGain = 0.9
	// adaptWriteCap is how far a FLOW-THROUGH update stream pulls the
	// target below the max: every inserted Membuffer byte must
	// eventually drain, and the seal-time full drain pauses writers in
	// proportion to occupancy, so the heavier the flow-through stream,
	// the lower the drain-optimal size. The value is calibrated so a
	// uniform (zero-reuse) write burst at the default bounds lands on
	// ~0.25 — the paper's empirically write-optimal 1:4 split (§5.1),
	// which the ablate-split sweep reproduces. Two kinds of traffic
	// escape the cap: reads (no drain cost; hits on recently-written
	// keys complete in the hash table) and in-place updates (the §4.4
	// update-heavy case — a skewed working set resident in the buffer
	// absorbs its writes with no drain debt at all), both of which
	// afford the max.
	adaptWriteCap = 0.64
	// adaptRelDeadband suppresses resizes that would change the
	// Membuffer's size by less than this RELATIVE amount, with
	// adaptMinStep as an absolute floor. Relative, because the costs a
	// resize corrects are proportional to the buffer's size (each seal
	// drains a fraction-sized buffer), so a 0.02 correction matters
	// near the floor and is
	// noise near the ceiling — while the epoch itself costs a full
	// drain either way.
	adaptRelDeadband = 0.2
	adaptMinStep     = 0.01
	// adaptMinWindowOps is the idle floor: windows with less WEIGHTED
	// traffic than this carry no signal and keep the current split.
	// Weighted, because a window holding a handful of scans is not idle
	// — it is exactly the window the controller must react to.
	adaptMinWindowOps = 64
)

// sensorRates publishes the last window's measurements for Stats, as
// float64 bits.
type sensorRates struct {
	putRate, getRate, scanRate atomic.Uint64
	stallPct                   atomic.Uint64
}

func storeFloat(u *atomic.Uint64, v float64) { u.Store(math.Float64bits(v)) }
func loadFloat(u *atomic.Uint64) float64     { return math.Float64frombits(u.Load()) }

// sensorSample is one reading of the cumulative counters.
type sensorSample struct {
	writes, gets, scans uint64
	inPlace             uint64
	stallNs             uint64
	at                  time.Time
}

func (db *DB) sensorSampleNow() sensorSample {
	return sensorSample{
		// Hits+memtable falls counts every user mutation exactly once
		// (batch ops included), unlike Puts which misses batch traffic.
		writes:  db.stats.membufferHits.Load() + db.stats.memtableWrites.Load(),
		gets:    db.stats.gets.Load(),
		scans:   db.stats.scans.Load() + db.stats.iterators.Load(),
		inPlace: db.stats.inPlaceHits.Load(),
		stallNs: db.stats.stallNanos.Load(),
		at:      time.Now(),
	}
}

// membufferFraction returns the LIVE Membuffer share of the memory
// budget — the configured fraction until the controller (or
// SetMembufferFraction) first moves it.
func (db *DB) membufferFraction() float64 {
	return math.Float64frombits(db.mbfFrac.Load())
}

// memtableTarget is the live Memtable size that triggers persisting:
// the complement of the Membuffer share. Every former call site of the
// static cfg.memtableTargetBytes reads this instead.
func (db *DB) memtableTarget() int64 {
	return db.cfg.memtableTargetBytesAt(db.membufferFraction())
}

// newMembufferNow builds a Membuffer at the live fraction.
func (db *DB) newMembufferNow() *membuffer.Buffer {
	return db.cfg.newMembufferAt(db.membufferFraction())
}

// MembufferFraction reports the live Membuffer share (diagnostics; also
// surfaced as Stats.MembufferFraction).
func (db *DB) MembufferFraction() float64 { return db.membufferFraction() }

// SetMembufferFraction resizes the Membuffer to the given share of the
// memory budget in one resize epoch: the active buffer is sealed at its
// old capacity and drained through the immutable-Membuffer path while a
// fresh buffer at the new capacity absorbs writes. Safe to call
// concurrently with all operations. With AdaptiveMemory enabled the
// controller may move the split again on its next window; pin a fixed
// split by opening without AdaptiveMemory instead.
func (db *DB) SetMembufferFraction(f float64) error {
	if db.closed.Load() {
		return ErrClosed
	}
	if f <= 0 || f >= 1 {
		return fmt.Errorf("core: SetMembufferFraction(%v): fraction must be in (0,1)", f)
	}
	if db.gen.Load().mbf == nil {
		return fmt.Errorf("core: SetMembufferFraction: membuffer disabled: %w", kv.ErrNotSupported)
	}
	db.resizeEpoch(f)
	return nil
}

// resizeEpoch performs one Membuffer resize: the same seal as a range
// read's (sealMembuffer), except the incoming buffer has a different
// capacity and no sequence point is taken. Under drainMu it is mutually
// exclusive with persist seals, view pins and batch application, so the
// Get freshness order and the WAL-truncation invariant hold unchanged —
// to every other thread a resize is indistinguishable from a reader's
// generation switch.
func (db *DB) resizeEpoch(frac float64) {
	db.drainMu.Lock()
	if db.closed.Load() {
		db.drainMu.Unlock()
		return
	}
	if db.gen.Load().mbf == nil {
		db.drainMu.Unlock()
		return
	}
	oldFrac := db.membufferFraction()
	var start time.Time
	if db.tel != nil {
		start = time.Now()
	}
	// Publish the fraction first so the new buffer and every target
	// computation after the switch agree on the new split. The spares were
	// built at the old capacity, and so was the buffer this seal retires:
	// drop them all, the seal allocates.
	db.mbfFrac.Store(math.Float64bits(frac))
	db.spares = spareMembuffers{}
	db.sealMembuffer(nil)
	db.spares = spareMembuffers{}
	db.pauseWriters.Store(false)
	db.drainMu.Unlock()

	db.stats.resizes.Add(1)
	if t := db.tel; t != nil {
		t.events.Emit(obs.Event{
			Type: obs.EventResize, Dur: time.Since(start),
			Detail: fmt.Sprintf("membuffer fraction %.3f -> %.3f", oldFrac, frac),
		})
	}
	// A shrink of the Membuffer grows the Memtable's share and vice
	// versa; if the new target is already exceeded, wake the persister.
	if db.gen.Load().mtb.approxBytes() >= db.memtableTarget() {
		db.signalPersist()
	}
}

// adaptLoop is the resize controller: once per AdaptiveWindow it turns
// the counter deltas into window rates, distils them into two smoothed
// shares —
//
//	scan share         — weighted scans over all traffic. The dominant
//	                     shrink signal: every range read drains the
//	                     whole Membuffer before its sequence point, so
//	                     its cost is linear in the buffer size while
//	                     its benefit is zero.
//	flow-through share — updates that INSERT (as opposed to updating a
//	                     resident key in place), over point traffic. A
//	                     mild cap: inserted bytes must all drain back
//	                     out, and the seal-time full drain pauses
//	                     writers in proportion to occupancy, so a
//	                     zero-reuse update stream is best served by a
//	                     mid-sized buffer (adaptWriteCap). In-place
//	                     updates are the opposite — §4.4's update-heavy
//	                     case, a working set resident in the buffer,
//	                     absorbed with no drain debt — and push back
//	                     toward the max, as does read-mostly traffic.
//
// and maps them onto [AdaptiveMinFraction, AdaptiveMaxFraction]:
//
//	target = min + (max-min) · (1 − scanShare) · (1 − cap·writeShare·(1 − inPlaceShare))
//
// A resize epoch fires when the live split is off the target by more
// than the relative deadband (adaptRelDeadband).
func (db *DB) adaptLoop() {
	defer db.wg.Done()
	tick := time.NewTicker(db.cfg.AdaptiveWindow)
	defer tick.Stop()
	last := db.sensorSampleNow()
	// The smoothed shares start at "no scans, balanced point traffic,
	// no reuse" — agreeing with the default starting fraction rather
	// than forcing a resize before the first real window.
	smoothScan, smoothWrite, smoothInPlace := 0.0, 0.5, 0.0
	for {
		select {
		case <-db.closing:
			return
		case <-tick.C:
		}
		cur := db.sensorSampleNow()
		secs := cur.at.Sub(last.at).Seconds()
		if secs <= 0 {
			continue
		}
		dw := cur.writes - last.writes
		dg := cur.gets - last.gets
		ds := cur.scans - last.scans
		dip := cur.inPlace - last.inPlace
		dstall := cur.stallNs - last.stallNs
		last = cur

		storeFloat(&db.sensor.putRate, float64(dw)/secs)
		storeFloat(&db.sensor.getRate, float64(dg)/secs)
		storeFloat(&db.sensor.scanRate, float64(ds)/secs)
		// Stall percentage of the wall window, summed across stalled
		// writers — can exceed 100 under a multi-threaded write storm.
		storeFloat(&db.sensor.stallPct, 100*float64(dstall)/(secs*1e9))

		wf, gf, sf := float64(dw), float64(dg), adaptScanWeight*float64(ds)
		if wf+gf+sf < adaptMinWindowOps {
			continue // idle window: no signal, keep the split
		}
		scanShare := sf / (wf + gf + sf)
		writeShare := 1.0
		if wf+gf > 0 {
			writeShare = wf / (wf + gf)
		}
		inPlaceShare := 0.0
		if dw > 0 {
			inPlaceShare = float64(dip) / float64(dw)
		}
		if scanShare > smoothScan {
			smoothScan += adaptScanAttackGain * (scanShare - smoothScan)
		} else {
			smoothScan += adaptShareGain * (scanShare - smoothScan)
		}
		smoothWrite += adaptShareGain * (writeShare - smoothWrite)
		smoothInPlace += adaptShareGain * (inPlaceShare - smoothInPlace)
		target := db.cfg.AdaptiveMinFraction +
			(db.cfg.AdaptiveMaxFraction-db.cfg.AdaptiveMinFraction)*
				(1-smoothScan)*(1-adaptWriteCap*smoothWrite*(1-smoothInPlace))
		target = math.Max(db.cfg.AdaptiveMinFraction, math.Min(db.cfg.AdaptiveMaxFraction, target))
		curFrac := db.membufferFraction()
		diff := math.Abs(target - curFrac)
		if diff < adaptMinStep || diff/math.Max(curFrac, target) < adaptRelDeadband {
			continue
		}
		db.resizeEpoch(target)
	}
}
