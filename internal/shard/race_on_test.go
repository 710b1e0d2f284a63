//go:build race

package shard

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts, so the engines' pooled iterator frames and read windows are
// sometimes re-made; allocation budgets leave room for that.
const raceEnabled = true
