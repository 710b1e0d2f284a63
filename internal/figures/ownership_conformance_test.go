package figures

// Conformance of kv.Store's ownership rule across all six systems: a
// store keeps none of the slices a call hands it, and a value Get returns
// belongs to the caller. The service tier depends on it — the server runs
// point requests straight out of its read buffer, which the next request
// overwrites.

import (
	"fmt"
	"sort"
	"testing"

	"flodb/internal/kv"
)

// ownershipCheck drives one store through a single key buffer and a single
// value buffer, scribbling over both the moment each call returns, and
// over every value Get hands back.
type ownershipCheck struct {
	t          *testing.T
	s          kv.Store
	key, val   []byte
	model      map[string]string // live keys
	written    map[string]bool   // every key ever written
	batch      *kv.Batch
	valueBytes int
}

func scribble(bufs ...[]byte) {
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xEE
		}
	}
}

func (o *ownershipCheck) fill(i, gen int) {
	copy(o.key, fmt.Sprintf("own-%07d", i))
	o.val = o.val[:0]
	for len(o.val) < o.valueBytes {
		o.val = fmt.Appendf(o.val, "%d/%d;", i, gen)
	}
	o.val = o.val[:o.valueBytes]
}

func (o *ownershipCheck) put(i, gen int) {
	o.t.Helper()
	o.fill(i, gen)
	if err := o.s.Put(bg, o.key, o.val); err != nil {
		o.t.Fatal(err)
	}
	o.model[string(o.key)], o.written[string(o.key)] = string(o.val), true
	scribble(o.key, o.val)
}

func (o *ownershipCheck) del(i int) {
	o.t.Helper()
	o.fill(i, 0)
	if err := o.s.Delete(bg, o.key); err != nil {
		o.t.Fatal(err)
	}
	delete(o.model, string(o.key))
	o.written[string(o.key)] = true
	scribble(o.key)
}

// apply commits puts of [lo, hi) at gen and a delete of every fifth key
// as one batch, built from the shared buffers and reused after Reset.
func (o *ownershipCheck) apply(lo, hi, gen int) {
	o.t.Helper()
	o.batch.Reset()
	pending := map[string]*string{}
	for i := lo; i < hi; i++ {
		o.fill(i, gen)
		if i%5 == 0 {
			o.batch.Delete(o.key)
			pending[string(o.key)] = nil
		} else {
			o.batch.Put(o.key, o.val)
			v := string(o.val)
			pending[string(o.key)] = &v
		}
		scribble(o.key, o.val)
	}
	if err := o.s.Apply(bg, o.batch); err != nil {
		o.t.Fatal(err)
	}
	for k, v := range pending {
		o.written[k] = true
		if v == nil {
			delete(o.model, k)
		} else {
			o.model[k] = *v
		}
	}
}

func (o *ownershipCheck) get(i int) {
	o.t.Helper()
	o.fill(i, 0)
	want, live := o.model[string(o.key)]
	v, found, err := o.s.Get(bg, o.key)
	if err != nil {
		o.t.Fatal(err)
	}
	if found != live || string(v) != want {
		o.t.Fatalf("Get(%s) = %.24q found=%v, want %.24q found=%v", o.key, v, found, want, live)
	}
	scribble(o.key, v)
}

// round writes [lo, hi) at gen with single Puts, overwrites part of it in
// batches, deletes every seventh key, and reads every key twice: the
// second read finds whatever the first one's scribbling broke.
func (o *ownershipCheck) round(lo, hi, gen int) {
	o.t.Helper()
	for i := lo; i < hi; i++ {
		o.put(i, gen)
	}
	for b := lo; b+16 <= hi; b += 48 {
		o.apply(b, b+16, gen+1)
	}
	for i := lo; i < hi; i += 7 {
		o.del(i)
	}
	for pass := 0; pass < 2; pass++ {
		for i := lo; i < hi; i++ {
			o.get(i)
		}
	}
}

// readBack compares a full scan with the model.
func (o *ownershipCheck) readBack() {
	o.t.Helper()
	pairs, err := o.s.Scan(bg, nil, nil)
	if err != nil {
		o.t.Fatal(err)
	}
	want := make([]string, 0, len(o.model))
	for k := range o.model {
		want = append(want, k)
	}
	sort.Strings(want)
	if len(pairs) != len(want) {
		o.t.Fatalf("scan found %d pairs, model has %d", len(pairs), len(want))
	}
	for i, p := range pairs {
		if string(p.Key) != want[i] || string(p.Value) != o.model[want[i]] {
			o.t.Fatalf("scan pair %d = %q=%.24q, want %q=%.24q", i, p.Key, p.Value, want[i], o.model[want[i]])
		}
	}
}

// TestAllSystemsCallerOwnsBuffers: one key buffer and one value buffer
// serve every call and are overwritten as soon as it returns, as is every
// value Get returns — on every system the store still holds exactly what
// was written, through enough data to reach the disk component.
func TestAllSystemsCallerOwnsBuffers(t *testing.T) {
	const perRound, valueBytes = 2000, 200
	for _, sys := range AllSystems {
		t.Run(string(sys), func(t *testing.T) {
			s := openSysWAL(t, sys, t.TempDir())
			defer s.Close()
			o := &ownershipCheck{
				t: t, s: s, key: make([]byte, 11), val: make([]byte, 0, valueBytes+32),
				model: map[string]string{}, written: map[string]bool{},
				batch: kv.NewBatch(), valueBytes: valueBytes,
			}
			o.round(0, perRound, 1)
			o.round(perRound/2, perRound*3/2, 10)
			o.round(perRound, perRound*2, 20)
			o.readBack()
			if st := stats(t, s); st.Flushes == 0 {
				t.Fatal("the disk component went unexercised: 0 flushes")
			}
		})
	}
}
