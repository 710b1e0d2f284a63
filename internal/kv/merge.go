package kv

import "flodb/internal/keys"

// Merge returns one ascending Iterator over the union of srcs, which it
// takes ownership of. It runs on the caller's goroutine: a positioning
// call positions or advances the sources it has to and picks the least
// key among their heads by a linear scan — the sources are a handful
// (the members of one ring), where a heap does not pay.
//
// resolve is the merge's one policy. It is called for every key the
// merge reaches, with the values of all sources positioned on that key
// in source order, and returns the value to emit — or ok=false to skip
// the key (a replicated store picks the newest version and drops
// tombstones). The slices it is handed alias the sources.
//
// Key aliases the winning source and Value what resolve returned; both
// are valid until the merge moves. The first error a source reports
// invalidates the merge: every later positioning call returns false and
// Err returns that error. Close closes every source once.
func Merge(srcs []Iterator, resolve func(vals [][]byte) (value []byte, ok bool)) Iterator {
	m := &merge{
		srcs:    make([]mergeSource, len(srcs)),
		resolve: resolve,
		cur:     -1,
	}
	for i, it := range srcs {
		m.srcs[i].it = it
	}
	return m
}

// mergeSource is one source and its head: key caches it.Key() while ok.
type mergeSource struct {
	it  Iterator
	key []byte
	ok  bool
}

type merge struct {
	srcs    []mergeSource
	resolve func([][]byte) ([]byte, bool)

	cur     int      // source holding the current key; -1 when unpositioned
	at      []int    // sources positioned on the current key
	vals    [][]byte // resolve's argument, reused across keys
	val     []byte   // the current key's resolved value
	seekKey []byte   // Seek's target, copied: it may alias Key
	started bool     // a positioning call has run since the merge opened
	err     error
	closed  bool
}

// begin admits First or Seek: false once the merge is closed or failed.
func (m *merge) begin() bool {
	if m.closed || m.err != nil {
		return false
	}
	m.started = true
	return true
}

// set records source i's answer to a positioning call.
func (m *merge) set(i int, ok bool) {
	s := &m.srcs[i]
	s.ok, s.key = ok, nil
	if ok {
		s.key = s.it.Key()
	} else if err := s.it.Err(); err != nil && m.err == nil {
		m.err = err
	}
}

func (m *merge) First() bool {
	if !m.begin() {
		return false
	}
	for i := range m.srcs {
		m.set(i, m.srcs[i].it.First())
	}
	return m.settle()
}

func (m *merge) Seek(key []byte) bool {
	if !m.begin() {
		return false
	}
	m.seekKey = append(m.seekKey[:0], key...)
	for i := range m.srcs {
		m.set(i, m.srcs[i].it.Seek(m.seekKey))
	}
	return m.settle()
}

// Next advances every source positioned on the current key. On a fresh
// merge it is First; once a positioning call has returned false it stays
// false until First or Seek.
func (m *merge) Next() bool {
	if m.closed || m.err != nil {
		return false
	}
	if !m.started {
		return m.First()
	}
	if m.cur < 0 {
		return false
	}
	m.advance()
	return m.settle()
}

// advance moves the sources on the current key off it.
func (m *merge) advance() {
	for _, i := range m.at {
		m.set(i, m.srcs[i].it.Next())
	}
}

// settle positions the merge on the least head the policy emits,
// advancing past the keys resolve skips.
func (m *merge) settle() bool {
	for m.err == nil {
		cur := -1
		for i := range m.srcs {
			if m.srcs[i].ok && (cur < 0 || keys.Compare(m.srcs[i].key, m.srcs[cur].key) < 0) {
				cur = i
			}
		}
		if cur < 0 {
			break
		}
		m.at = append(m.at[:0], cur)
		key := m.srcs[cur].key
		m.vals = append(m.vals[:0], m.srcs[cur].it.Value())
		for i := cur + 1; i < len(m.srcs); i++ {
			if s := &m.srcs[i]; s.ok && keys.Compare(s.key, key) == 0 {
				m.at = append(m.at, i)
				m.vals = append(m.vals, s.it.Value())
			}
		}
		if v, ok := m.resolve(m.vals); ok {
			m.cur, m.val = cur, v
			return true
		}
		m.advance()
	}
	m.cur = -1
	return false
}

func (m *merge) Key() []byte {
	if m.cur < 0 {
		return nil
	}
	return m.srcs[m.cur].key
}

func (m *merge) Value() []byte {
	if m.cur < 0 {
		return nil
	}
	return m.val
}

func (m *merge) Err() error { return m.err }

// Close closes every source. Idempotent; it returns the first error a
// source's Close reported.
func (m *merge) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	m.cur = -1
	var firstErr error
	for i := range m.srcs {
		if err := m.srcs[i].it.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Collect drains it from First into copies it does not alias, closes it,
// and returns the pairs — the one way a Scan materializes an iterator.
// On an iterator error the pairs are dropped and the error returned.
func Collect(it Iterator) ([]Pair, error) {
	defer it.Close()
	var out []Pair
	for ok := it.First(); ok; ok = it.Next() {
		out = append(out, Pair{Key: keys.Clone(it.Key()), Value: keys.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
