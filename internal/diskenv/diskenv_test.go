package diskenv

import (
	"errors"
	"testing"
)

func TestFaultPoint(t *testing.T) {
	var f FaultPoint
	if err := f.Check(); err != nil {
		t.Fatal("unarmed fault fired")
	}
	boom := errors.New("boom")
	f.Arm(boom, 3)
	if f.Check() != nil || f.Check() != nil {
		t.Fatal("fired early")
	}
	if err := f.Check(); !errors.Is(err, boom) {
		t.Fatalf("third check = %v", err)
	}
	if f.Check() != nil {
		t.Fatal("fault fired twice")
	}
	if f.Fired() != 1 {
		t.Fatalf("Fired = %d", f.Fired())
	}
}

func TestNilFaultPoint(t *testing.T) {
	var f *FaultPoint
	if f.Check() != nil || f.Fired() != 0 {
		t.Fatal("nil fault point misbehaved")
	}
}
