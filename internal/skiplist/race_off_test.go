//go:build !race

package skiplist

const raceEnabled = false
