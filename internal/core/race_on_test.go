//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts, so a pooled frame or window is sometimes re-made; allocation
// budgets leave room for that.
const raceEnabled = true
