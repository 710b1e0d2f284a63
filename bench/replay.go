package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"flodb/internal/cache"
	"flodb/internal/keys"
	"flodb/internal/kv"
	"flodb/internal/membuffer"
	"flodb/internal/skiplist"
	"flodb/internal/sstable"
	"flodb/internal/storage"
	"flodb/internal/wal"
	"flodb/internal/wire"
)

// Replay drives a fixed sample of the workload's own op stream through
// each layer's public functions, standalone and single-threaded. It is a
// cost model of the layer on this workload's keys, not the time the layer
// took inside the run: nothing contends, every structure is warm.

const (
	// timedBatch calls are timed together and divided, so the clock's own
	// cost (two reads, ~50 ns) stays well under the thing measured.
	timedBatch = 16
	drainBatch = 64  // core's DrainBatch default: entries per multi-insert
	syncCount  = 200 // Append+SyncTo pairs; the only place fsync is timed
)

// perOp times fn(0..n) in batches and returns every batch's ns per call.
func perOp(n int, fn func(i int)) []float64 {
	var out []float64
	for lo := 0; lo < n; lo += timedBatch {
		hi := min(lo+timedBatch, n)
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			fn(i)
		}
		out = append(out, float64(time.Since(t0))/float64(hi-lo))
	}
	return out
}

// total times fn once and returns ns per item.
func total(items int, fn func()) float64 {
	t0 := time.Now()
	fn()
	return ratio(float64(time.Since(t0)), float64(items))
}

func (r *run) replay(m map[string]float64, storeDir string) error {
	// The sample: the first replayOps operations of client 0's stream,
	// reduced to the keys they touch, with one value per key.
	gen := newOpGen(r.spec, r.ks, r.cfg.seed, 0)
	n := r.cfg.replayOps
	ks := make([][]byte, n)
	vals := make([][]byte, n)
	for i := range ks {
		o := gen.next()
		ks[i] = make([]byte, keySize)
		if o.kind == opScan {
			binary.BigEndian.PutUint64(ks[i], o.arg)
		} else {
			r.ks.key(o.arg, ks[i])
		}
		vals[i] = fillValue(make([]byte, valueSize), uint64(i), 1)
	}
	// Distinct keys in order, for the layers that take sorted input.
	sortedKeys := slices.Clone(ks)
	slices.SortFunc(sortedKeys, keys.Compare)
	sortedKeys = slices.CompactFunc(sortedKeys, keys.Equal)
	absent := make([][]byte, len(sortedKeys))
	for i, k := range sortedKeys {
		absent[i] = append(slices.Clone(k[:keySize-1]), k[keySize-1]^0x80, 0xff) // 9 bytes: in no table
	}

	dir := filepath.Join(r.cfg.outDir, fmt.Sprintf("replay-%s-%d-%d", r.spec.name, r.cfg.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	replayMembuffer(m, ks, vals)
	replaySkiplist(m, ks, vals)
	if err := replayWAL(m, dir, ks, vals); err != nil {
		return err
	}
	if err := replaySSTable(m, dir, ks, sortedKeys, absent, vals[0]); err != nil {
		return err
	}
	replayCache(m, ks)
	if err := replayWire(m, ks, vals); err != nil {
		return err
	}
	return replayStorage(m, storeDir, ks)
}

func replayMembuffer(m map[string]float64, ks, vals [][]byte) {
	// Sized as the store sizes it: a quarter of the memory component.
	buf := membuffer.New(membuffer.ConfigForBytes(memoryBytes/4, userBytesPerKey, 6))
	var stored, inPlace int
	m["membuffer.put_ns_p50"] = median(perOp(len(ks), func(i int) {
		ok, in := buf.Put(ks[i], vals[i], false)
		if ok {
			stored++
		}
		if in {
			inPlace++
		}
	}))
	m["membuffer.inplace_share"] = ratio(float64(inPlace), float64(stored))
	m["membuffer.get_ns_p50"] = median(perOp(len(ks), func(i int) { buf.Get(ks[i]) }))
	var drained int
	ns := total(1, func() {
		for part := 0; part < 1<<6; part++ {
			for {
				d := buf.DrainPartition(part, drainBatch)
				if len(d) == 0 {
					break
				}
				drained += len(d)
				buf.Release(d)
			}
		}
	})
	m["membuffer.drain_ns_per_entry"] = ratio(ns, float64(drained))
}

func replaySkiplist(m map[string]float64, ks, vals [][]byte) {
	list := skiplist.New()
	m["skiplist.insert_ns_p50"] = median(perOp(len(ks), func(i int) {
		list.Insert(ks[i], &skiplist.Entry{Value: vals[i], Seq: uint64(i + 1), CreateSeq: uint64(i + 1)})
	}))
	m["skiplist.get_ns_p50"] = median(perOp(len(ks), func(i int) { list.Get(ks[i]) }))
	it := list.NewIterator()
	it.SeekToFirst()
	steps := 0
	m["skiplist.iter_next_ns"] = total(1, func() {
		for ; it.Valid(); it.Next() {
			steps++
		}
	}) / float64(max(steps, 1))

	multi := skiplist.New()
	var perKey []float64
	batch := make([]skiplist.KV, 0, drainBatch)
	for lo := 0; lo < len(ks); lo += drainBatch {
		batch = batch[:0]
		for i := lo; i < min(lo+drainBatch, len(ks)); i++ {
			batch = append(batch, skiplist.KV{Key: ks[i], Entry: &skiplist.Entry{Value: vals[i], Seq: uint64(i + 1), CreateSeq: uint64(i + 1)}})
		}
		perKey = append(perKey, total(len(batch), func() { multi.MultiInsert(batch) }))
	}
	m["skiplist.multiinsert_ns_per_key"] = median(perKey)
}

func replayWAL(m map[string]float64, dir string, ks, vals [][]byte) error {
	w, err := wal.Create(filepath.Join(dir, "replay.wal"), wal.Options{})
	if err != nil {
		return err
	}
	recs := make([][]byte, len(ks))
	for i := range recs {
		recs[i] = kv.EncodeRecord(keys.KindSet, ks[i], vals[i])
	}
	var appendErr error
	m["wal.append_ns_p50"] = median(perOp(len(recs), func(i int) {
		if _, err := w.Append(recs[i]); err != nil {
			appendErr = err
		}
	}))
	var syncs []float64
	for i := 0; i < min(syncCount, len(recs)) && appendErr == nil; i++ {
		t0 := time.Now()
		off, err := w.Append(recs[i])
		if err == nil {
			err = w.SyncTo(off)
		}
		appendErr = err
		syncs = append(syncs, float64(time.Since(t0)))
	}
	m["wal.syncto_us_p50"] = median(syncs) / 1e3
	if err := w.Close(); appendErr == nil {
		appendErr = err
	}
	return appendErr
}

func replaySSTable(m map[string]float64, dir string, ks, sortedKeys, absent [][]byte, val []byte) error {
	path := filepath.Join(dir, "replay.sst")
	w, err := sstable.NewWriter(path, sstable.WriterOptions{})
	if err != nil {
		return err
	}
	var meta sstable.Meta
	ns := total(1, func() {
		for i, k := range sortedKeys {
			if err = w.Add(k, uint64(i+1), keys.KindSet, val); err != nil {
				return
			}
		}
		meta, err = w.Finish()
	})
	if err != nil {
		return err
	}
	m["sstable.write_mb_per_s"] = ratio(float64(meta.Size)/1e6, ns/1e9)

	// Read through a block cache large enough to hold the table, so a hit
	// costs the index search and the in-block search, not the pread.
	bc := cache.New(2 * meta.Size)
	defer bc.Close()
	rd, err := sstable.OpenOptions(path, sstable.ReaderOptions{BlockCache: bc, CacheID: 1})
	if err != nil {
		return err
	}
	defer rd.Close()
	var misses int
	get := func(keys [][]byte, wantFound bool) []float64 {
		return perOp(len(keys), func(i int) {
			if _, _, _, ok, gerr := rd.Get(keys[i]); gerr != nil {
				err = gerr
			} else if ok != wantFound {
				misses++
			}
		})
	}
	get(ks, true) // fill the block cache
	misses = 0
	m["sstable.get_hit_ns_p50"] = median(get(ks, true))
	m["sstable.get_miss_ns_p50"] = median(get(absent, false))
	if err != nil {
		return err
	}
	if misses > 0 {
		return fmt.Errorf("sstable replay: %d lookups had the wrong outcome", misses)
	}
	it := rd.NewIterator()
	steps := 0
	m["sstable.iter_next_ns"] = total(1, func() {
		for it.SeekToFirst(); it.Valid(); it.Next() {
			steps++
		}
	}) / float64(max(steps, 1))
	if steps != len(sortedKeys) {
		return fmt.Errorf("sstable replay: iterated %d keys, wrote %d", steps, len(sortedKeys))
	}
	return nil
}

func replayCache(m map[string]float64, ks [][]byte) {
	// Keys as the block cache sees them: (table, block offset). Half the
	// budget of the entries inserted, so inserts evict.
	c := cache.New(int64(len(ks)) * 4096 / 2)
	defer c.Close()
	key := func(i int) cache.Key {
		return cache.Key{ID: 1, Offset: binary.BigEndian.Uint64(ks[i]) >> 40}
	}
	block := make([]byte, 4096)
	m["cache.insert_ns_p50"] = median(perOp(len(ks), func(i int) { c.Insert(key(i), block, 4096, nil).Release() }))
	m["cache.get_ns_p50"] = median(perOp(len(ks), func(i int) {
		if h := c.Get(key(i)); h != nil {
			h.Release()
		}
	}))
}

func replayWire(m map[string]float64, ks, vals [][]byte) error {
	var frame, payload []byte
	var err error
	roundtrip := func(build func(i int) []byte, parse func(body []byte) error) float64 {
		return median(perOp(len(ks), func(i int) {
			f := build(i)
			// A frame is a uvarint length and a body; the reader strips the length.
			_, n := binary.Uvarint(f)
			if perr := parse(f[n:]); perr != nil {
				err = perr
			}
		}))
	}
	m["wire.request_roundtrip_ns"] = roundtrip(func(i int) []byte {
		payload = append(wire.AppendBytes(payload[:0], ks[i]), vals[i]...)
		frame = wire.AppendRequest(frame[:0], &wire.Request{ID: uint64(i), Op: wire.OpPut, Durability: kv.DurabilityDefault, Payload: payload})
		return frame
	}, func(body []byte) error { _, perr := wire.ParseRequest(body); return perr })
	m["wire.response_roundtrip_ns"] = roundtrip(func(i int) []byte {
		frame = wire.AppendResponse(frame[:0], &wire.Response{ID: uint64(i), Payload: vals[i]})
		return frame
	}, func(body []byte) error { _, perr := wire.ParseResponse(body); return perr })

	var perKey []float64
	pairs := make([]kv.Pair, 0, scanLen)
	for lo := 0; lo+scanLen <= len(ks); lo += scanLen {
		pairs = pairs[:0]
		for i := lo; i < lo+scanLen; i++ {
			pairs = append(pairs, kv.Pair{Key: ks[i], Value: vals[i]})
		}
		perKey = append(perKey, total(scanLen, func() {
			payload = wire.AppendPairs(payload[:0], pairs)
			if _, _, perr := wire.ReadPairs(payload); perr != nil {
				err = perr
			}
		}))
	}
	m["wire.pairs_ns_per_key"] = median(perKey)
	return err
}

// replayStorage opens the disk component of the finished, closed store on
// its own and reads the sample's keys from it.
func replayStorage(m map[string]float64, storeDir string, ks [][]byte) error {
	st, err := storage.Open(storeDir, storage.Options{BlockCacheBytes: blockCacheBytes})
	if err != nil {
		return err
	}
	defer st.Close()
	m["storage.get_us_p50"] = median(perOp(len(ks), func(i int) {
		if _, _, _, _, gerr := st.Get(ks[i]); gerr != nil {
			err = gerr
		}
	})) / 1e3
	if err != nil {
		return err
	}
	it, release, err := st.NewIterator()
	if err != nil {
		return err
	}
	defer release()
	steps := 0
	m["storage.iter_next_ns"] = total(1, func() {
		for it.SeekToFirst(); it.Valid() && steps < len(ks); it.Next() {
			steps++
		}
	}) / float64(max(steps, 1))
	return it.Err()
}
