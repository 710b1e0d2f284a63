package kv

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"flodb/internal/keys"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []struct {
		kind       keys.Kind
		key, value []byte
	}{
		{keys.KindSet, []byte("k"), []byte("v")},
		{keys.KindSet, []byte{}, []byte{}},
		{keys.KindDelete, []byte("gone"), nil},
		{keys.KindSet, bytes.Repeat([]byte("K"), 1000), bytes.Repeat([]byte("V"), 5000)},
	}
	for _, tc := range cases {
		rec := EncodeRecord(tc.kind, tc.key, tc.value)
		kind, key, value, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("decode(%v): %v", tc.kind, err)
		}
		if kind != tc.kind || !bytes.Equal(key, tc.key) || !bytes.Equal(value, tc.value) {
			t.Fatalf("round trip mismatch: %v %q %q", kind, key, value)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		{},
		{99},                                   // unknown kind
		{byte(keys.KindSet)},                   // missing lengths
		{byte(keys.KindSet), 0x05, 'a'},        // key shorter than declared
		{byte(keys.KindSet), 0x01, 'a', 0x09},  // value shorter than declared
		{byte(keys.KindSet), 0x00, 0x00, 0xff}, // trailing bytes
		{byte(keys.KindSet), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // huge varint
	}
	for i, rec := range bad {
		if _, _, _, err := DecodeRecord(rec); !errors.Is(err, ErrBadRecord) {
			t.Errorf("case %d: expected ErrBadRecord, got %v", i, err)
		}
	}
}

func TestRecordPropertyRoundTrip(t *testing.T) {
	err := quick.Check(func(key, value []byte, del bool) bool {
		kind := keys.KindSet
		if del {
			kind = keys.KindDelete
		}
		k2, key2, val2, err := DecodeRecord(EncodeRecord(kind, key, value))
		return err == nil && k2 == kind && bytes.Equal(key2, key) && bytes.Equal(val2, value)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

var errBoom = errors.New("source failed")

// sliceIter is an in-memory source honoring the Iterator contract. Key and
// Value are copied into buffers the next move overwrites, so a caller that
// keeps them without copying sees garbage. failAfter > 0 makes the
// failAfter-th positioning call fail with errBoom, and every call after it.
type sliceIter struct {
	pairs      []Pair
	i          int // current pair; len(pairs) when exhausted
	kbuf, vbuf []byte
	failAfter  int
	calls      int
	err        error
	closes     int
}

func (s *sliceIter) at(i int) bool {
	s.calls++
	if s.failAfter > 0 && s.calls >= s.failAfter {
		s.err = errBoom
	}
	if s.err != nil || s.closes > 0 {
		s.i = len(s.pairs)
		return false
	}
	s.i = i
	if i >= len(s.pairs) {
		return false
	}
	s.kbuf = append(s.kbuf[:0], s.pairs[i].Key...)
	s.vbuf = append(s.vbuf[:0], s.pairs[i].Value...)
	return true
}

func (s *sliceIter) First() bool { return s.at(0) }

func (s *sliceIter) Seek([]byte) bool { panic("Collect never seeks") }

func (s *sliceIter) Next() bool {
	if s.i >= len(s.pairs) {
		return false
	}
	return s.at(s.i + 1)
}

func (s *sliceIter) Key() []byte {
	if s.i >= len(s.pairs) {
		return nil
	}
	return s.kbuf
}

func (s *sliceIter) Value() []byte {
	if s.i >= len(s.pairs) {
		return nil
	}
	return s.vbuf
}

func (s *sliceIter) Err() error { return s.err }

func (s *sliceIter) Close() error {
	s.closes++
	return nil
}

// TestCollect: Collect returns copies that outlive the iterator, closes
// it, and drops the pairs on an error.
func TestCollect(t *testing.T) {
	var model []Pair
	for k := 0; k < 100; k++ {
		model = append(model, Pair{Key: []byte{byte(k >> 8), byte(k)}, Value: []byte(fmt.Sprintf("v%d", k))})
	}
	src := &sliceIter{pairs: model}
	pairs, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != len(model) {
		t.Fatalf("collected %d pairs, want %d", len(pairs), len(model))
	}
	for i, p := range pairs {
		if !bytes.Equal(p.Key, model[i].Key) || !bytes.Equal(p.Value, model[i].Value) {
			t.Fatalf("pair %d: %x=%q, want %x=%q", i, p.Key, p.Value, model[i].Key, model[i].Value)
		}
	}
	if src.closes != 1 {
		t.Fatalf("source closed %d times", src.closes)
	}
	failing := &sliceIter{pairs: model, failAfter: 5}
	if pairs, err := Collect(failing); !errors.Is(err, errBoom) || pairs != nil || failing.closes != 1 {
		t.Fatalf("Collect over a failing source = %d pairs, %v, %d closes", len(pairs), err, failing.closes)
	}
}
