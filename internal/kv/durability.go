package kv

import (
	"fmt"
)

// Durability classifies how durable a mutation is when its call returns.
//
// The store has an open-time default; every Put, Delete and Apply may
// override it per operation with a WriteOption. The classes trade crash
// safety against cost:
//
//	None      — the mutation skips the commit log entirely. A crash loses
//	            it unless its memtable already reached sstables. Cheapest:
//	            pure memory-component speed.
//	Buffered  — the mutation is staged into the commit log before the
//	            call returns, with no flush or fsync on the ack path: a
//	            crash may lose a suffix of recently acked writes — never
//	            a middle slice (replay is prefix-consistent in commit
//	            order). The store's Sync barrier, or any later Sync-class
//	            write, promotes everything staged so far to durable.
//	Sync      — the call returns only after a disk barrier covers the
//	            mutation's log record. Concurrent Sync-class committers
//	            share barriers through the WAL's group-commit queue, so N
//	            writers cost O(1) fsyncs, not O(N).
//
// The zero value, DurabilityDefault, defers to the store's configured
// default (itself Buffered unless configured otherwise, or None for a
// store without a disk component, which has no commit log).
type Durability uint8

const (
	// DurabilityDefault defers to the store's open-time default.
	DurabilityDefault Durability = iota
	// DurabilityNone skips the commit log: fastest, lost on crash.
	DurabilityNone
	// DurabilityBuffered stages into the commit log without flush or
	// fsync: a crash may lose a recent suffix of acked writes, never a
	// middle slice.
	DurabilityBuffered
	// DurabilitySync group-commits an fsync before acknowledging.
	DurabilitySync
)

// String names the class.
func (d Durability) String() string {
	switch d {
	case DurabilityDefault:
		return "default"
	case DurabilityNone:
		return "none"
	case DurabilityBuffered:
		return "buffered"
	case DurabilitySync:
		return "sync"
	default:
		return fmt.Sprintf("durability(%d)", uint8(d))
	}
}

// Valid reports whether d is one of the defined classes.
func (d Durability) Valid() bool { return d <= DurabilitySync }

// ParseDurability maps the CLI/config spelling to a class.
func ParseDurability(s string) (Durability, error) {
	switch s {
	case "default":
		return DurabilityDefault, nil
	case "none":
		return DurabilityNone, nil
	case "buffered":
		return DurabilityBuffered, nil
	case "sync":
		return DurabilitySync, nil
	default:
		return 0, fmt.Errorf("kv: unknown durability %q (want none|buffered|sync)", s)
	}
}

// WriteOptions is the resolved per-operation write configuration.
type WriteOptions struct {
	// Durability is the class this operation committed under.
	Durability Durability
}

// A WriteOption tunes one Put, Delete or Apply call. Options are applied
// in order over the store's defaults, so later options override earlier
// ones.
type WriteOption interface {
	// ApplyWrite folds the option into the resolved options.
	ApplyWrite(*WriteOptions)
}

// writeOptionFunc adapts a closure to WriteOption.
type writeOptionFunc func(*WriteOptions)

func (f writeOptionFunc) ApplyWrite(o *WriteOptions) { f(o) }

// WithDurability requests the given durability class for one operation.
// DurabilityDefault is a no-op (keeps the store default).
func WithDurability(d Durability) WriteOption {
	return writeOptionFunc(func(o *WriteOptions) {
		if d != DurabilityDefault {
			o.Durability = d
		}
	})
}

// WithSync makes one operation Sync-durable: the call returns only after a
// group-committed disk barrier covers it. Shorthand for
// WithDurability(DurabilitySync).
func WithSync() WriteOption { return WithDurability(DurabilitySync) }

// ResolveWriteOptions folds opts over a store's default durability. A
// DurabilityDefault default resolves to Buffered, matching the documented
// store contract. Nil options are ignored.
func ResolveWriteOptions(def Durability, opts ...WriteOption) WriteOptions {
	if def == DurabilityDefault {
		def = DurabilityBuffered
	}
	o := WriteOptions{Durability: def}
	for _, opt := range opts {
		if opt != nil {
			opt.ApplyWrite(&o)
		}
	}
	return o
}
