// Package diskenv injects failures into disk code paths under test: a
// FaultPoint, armed with an error and a countdown, fails one Check on the
// persist path (core.Config.FlushFault).
package diskenv

import "sync"

// FaultPoint injects failures into code paths under test. Arm it with an
// error and a countdown: the Nth Check call fires the error once.
type FaultPoint struct {
	mu        sync.Mutex
	err       error
	remaining int
	fired     int
}

// Arm schedules err to fire on the nth Check call from now (n >= 1).
func (f *FaultPoint) Arm(err error, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.err = err
	f.remaining = n
}

// Check returns the armed error when the countdown reaches zero, nil
// otherwise. A nil *FaultPoint always passes.
func (f *FaultPoint) Check() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		return nil
	}
	f.remaining--
	if f.remaining > 0 {
		return nil
	}
	err := f.err
	f.err = nil
	f.fired++
	return err
}

// Fired reports how many times the fault has fired.
func (f *FaultPoint) Fired() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}
