package keys

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeUint64(t *testing.T) {
	cases := []uint64{0, 1, 255, 256, 1 << 31, 1<<63 - 1, ^uint64(0)}
	for _, v := range cases {
		b := EncodeUint64(v)
		if len(b) != 8 {
			t.Fatalf("EncodeUint64(%d) length = %d, want 8", v, len(b))
		}
		if got := DecodeUint64(b); got != v {
			t.Errorf("DecodeUint64(EncodeUint64(%d)) = %d", v, got)
		}
	}
}

func TestDecodeUint64Short(t *testing.T) {
	if got := DecodeUint64([]byte{1, 2, 3}); got != 0 {
		t.Errorf("DecodeUint64(short) = %d, want 0", got)
	}
}

func TestAppendUint64(t *testing.T) {
	b := AppendUint64([]byte("pfx"), 42)
	if !bytes.Equal(b[:3], []byte("pfx")) {
		t.Fatalf("prefix clobbered: %q", b)
	}
	if got := DecodeUint64(b[3:]); got != 42 {
		t.Errorf("decoded %d, want 42", got)
	}
}

func TestEncodingPreservesOrder(t *testing.T) {
	// Numeric order on uint64 must match lexicographic order on encodings.
	err := quick.Check(func(a, b uint64) bool {
		ea, eb := EncodeUint64(a), EncodeUint64(b)
		switch {
		case a < b:
			return bytes.Compare(ea, eb) < 0
		case a > b:
			return bytes.Compare(ea, eb) > 0
		default:
			return bytes.Equal(ea, eb)
		}
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestPartitionOf(t *testing.T) {
	tests := []struct {
		key  []byte
		bits uint
		want uint32
	}{
		{nil, 0, 0},
		{nil, 4, 0},
		{[]byte{0x00}, 4, 0},
		{[]byte{0xff}, 4, 0xf},
		{[]byte{0xff, 0xff}, 4, 0xf},
		{[]byte{0x80, 0x00}, 1, 1},
		{[]byte{0x7f, 0xff}, 1, 0},
		{[]byte{0x12, 0x34}, 8, 0x12},
		{[]byte{0x12, 0x34}, 16, 0x1234},
		{[]byte{0xab}, 8, 0xab},
	}
	for _, tc := range tests {
		if got := PartitionOf(tc.key, tc.bits); got != tc.want {
			t.Errorf("PartitionOf(%x, %d) = %#x, want %#x", tc.key, tc.bits, got, tc.want)
		}
	}
}

func TestPartitionOfIsMonotone(t *testing.T) {
	// Partition index must be monotone in the key: if a <= b then
	// partition(a) <= partition(b). This is what makes a partition a
	// contiguous key "neighborhood" (§4.3).
	err := quick.Check(func(a, b uint64, bitsRaw uint8) bool {
		bits := uint(bitsRaw%16) + 1
		ka, kb := EncodeUint64(a), EncodeUint64(b)
		if bytes.Compare(ka, kb) > 0 {
			ka, kb = kb, ka
		}
		return PartitionOf(ka, bits) <= PartitionOf(kb, bits)
	}, nil)
	if err != nil {
		t.Error(err)
	}
}

func TestInternalKeyRoundTrip(t *testing.T) {
	ik := MakeInternal([]byte("user-key"), 12345, KindSet)
	if !ik.Valid() {
		t.Fatal("internal key should be valid")
	}
	if !bytes.Equal(ik.UserKey(), []byte("user-key")) {
		t.Errorf("UserKey = %q", ik.UserKey())
	}
	if ik.Seq() != 12345 {
		t.Errorf("Seq = %d", ik.Seq())
	}
	if ik.Kind() != KindSet {
		t.Errorf("Kind = %v", ik.Kind())
	}
	del := MakeInternal(nil, MaxSeq, KindDelete)
	if del.Seq() != MaxSeq {
		t.Errorf("MaxSeq round trip = %d", del.Seq())
	}
	if del.Kind() != KindDelete {
		t.Errorf("Kind = %v", del.Kind())
	}
	if len(del.UserKey()) != 0 {
		t.Errorf("empty user key round trip = %q", del.UserKey())
	}
}

func TestInternalKeySeqSaturates(t *testing.T) {
	ik := MakeInternal([]byte("k"), ^uint64(0), KindSet)
	if ik.Seq() != MaxSeq {
		t.Errorf("Seq = %d, want saturation at MaxSeq", ik.Seq())
	}
}

func TestCompareInternalOrdering(t *testing.T) {
	// Same user key: higher seq sorts first.
	a := MakeInternal([]byte("k"), 10, KindSet)
	b := MakeInternal([]byte("k"), 5, KindSet)
	if CompareInternal(a, b) >= 0 {
		t.Error("newer version should sort before older")
	}
	// Different user keys: user key order dominates regardless of seq.
	c := MakeInternal([]byte("a"), 1, KindSet)
	d := MakeInternal([]byte("b"), 1000, KindSet)
	if CompareInternal(c, d) >= 0 {
		t.Error("user key order should dominate")
	}
	// Equal keys compare equal.
	if CompareInternal(a, MakeInternal([]byte("k"), 10, KindSet)) != 0 {
		t.Error("identical internal keys should compare equal")
	}
}

func TestCompareInternalSortsNewestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var iks []InternalKey
	for i := 0; i < 200; i++ {
		iks = append(iks, MakeInternal(EncodeUint64(uint64(rng.Intn(16))), uint64(rng.Intn(1000)), KindSet))
	}
	sort.Slice(iks, func(i, j int) bool { return CompareInternal(iks[i], iks[j]) < 0 })
	for i := 1; i < len(iks); i++ {
		prev, cur := iks[i-1], iks[i]
		uc := bytes.Compare(prev.UserKey(), cur.UserKey())
		if uc > 0 {
			t.Fatalf("user keys out of order at %d", i)
		}
		if uc == 0 && prev.Seq() < cur.Seq() {
			t.Fatalf("sequence numbers not descending within user key at %d", i)
		}
	}
}

func TestSuccessor(t *testing.T) {
	k := []byte("abc")
	s := Successor(k)
	if bytes.Compare(s, k) <= 0 {
		t.Error("successor not greater")
	}
	// Nothing sorts strictly between k and its successor.
	if bytes.Compare(s, append(append([]byte{}, k...), 0)) != 0 {
		t.Error("successor should be k + 0x00")
	}
}

func TestClone(t *testing.T) {
	if Clone(nil) != nil {
		t.Error("Clone(nil) should be nil")
	}
	src := []byte{1, 2, 3}
	c := Clone(src)
	src[0] = 9
	if c[0] != 1 {
		t.Error("Clone should not alias source")
	}
	empty := Clone([]byte{})
	if empty == nil || len(empty) != 0 {
		t.Error("Clone(empty) should be non-nil empty")
	}
}

func TestKindString(t *testing.T) {
	if KindSet.String() != "set" || KindDelete.String() != "delete" {
		t.Error("kind strings wrong")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind should still format")
	}
}

// TestHashIsStable pins Hash: table filters on disk were built with it, so
// a change to it makes every existing table's filter reject its own keys.
func TestHashIsStable(t *testing.T) {
	for key, want := range map[string]uint64{
		"":                                 0xefd01f60ba992926,
		"a":                                0x82a2a958a9bece5b,
		"flodb":                            0x6cdcc2e81af249e9,
		"\x00\x00\x00\x00\x00\x00\x00\x01": 0x0d4ad0eb39c50357,
	} {
		if got := Hash([]byte(key)); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", key, got, want)
		}
	}
}
