package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"flodb/internal/kv"
)

// Span names. client.* wrap a whole client-side call; the others are
// children recorded at the boundary into the next layer down.
const (
	spanClientPut  = "client.put"
	spanClientGet  = "client.get"
	spanClientScan = "client.scan"
	spanEnginePut  = "server.engine.put" // netmix: the kv.Store call the server makes
	spanEngineGet  = "server.engine.get"
	spanIterOpen   = "core.iter_open" // scan: NewIterator + Seek
	spanIterNext   = "core.iter_next" // scan: the Next loop, Keys steps
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Client int    `json:"client"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Keys   int    `json:"keys,omitempty"`
}

const spanCap = 1 << 17 // per client; spans past it are not kept

// spanLog is one client's span buffer. The client appends its own spans;
// on netmix a server goroutine appends the engine child while the client
// waits for the reply, hence the lock (never contended: one call in
// flight per client).
type spanLog struct {
	mu    sync.Mutex
	spans []span
	seq   uint64
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if len(l.spans) < cap(l.spans) {
		l.spans = append(l.spans, s)
	}
	l.mu.Unlock()
}

// inflight is the traced call a client currently has outstanding,
// published so the engine decorator can parent its span to it.
type inflight struct {
	id   uint64
	kind opKind
	arg  uint64
}

// spanStore decorates the kv.Store handed to the server: every Put and
// Get that belongs to a traced client call records a server.engine span.
// The call is found by (kind, index): each client has at most one call in
// flight.
type spanStore struct {
	kv.Store
	r *run
}

func (s *spanStore) parent(kind opKind, key []byte) (*client, *inflight) {
	idx, ok := s.r.ks.index(key)
	if !ok {
		return nil, nil
	}
	for _, c := range s.r.clients {
		if f := c.inflight.Load(); f != nil && f.kind == kind && f.arg == idx {
			return c, f
		}
	}
	return nil, nil
}

func (s *spanStore) Put(ctx context.Context, key, value []byte, opts ...kv.WriteOption) error {
	c, f := s.parent(opPut, key)
	if f == nil {
		return s.Store.Put(ctx, key, value, opts...)
	}
	start := s.r.now()
	err := s.Store.Put(ctx, key, value, opts...)
	c.log.add(span{Name: spanEnginePut, ID: f.id + 1, Parent: f.id, Req: f.id, Client: c.id, Start: start, End: s.r.now()})
	return err
}

func (s *spanStore) Get(ctx context.Context, key []byte) ([]byte, bool, error) {
	c, f := s.parent(opGet, key)
	if f == nil {
		return s.Store.Get(ctx, key)
	}
	start := s.r.now()
	v, found, err := s.Store.Get(ctx, key)
	c.log.add(span{Name: spanEngineGet, ID: f.id + 1, Parent: f.id, Req: f.id, Client: c.id, Start: start, End: s.r.now()})
	return v, found, err
}

// spanStats derives the span-based layer metrics of one run.
type spanStats struct {
	dur      map[string][]float64 // span name -> durations, ns
	hop      []float64            // client call minus its engine child, ns
	engShare float64              // engine time / call time over calls with an engine child
	nextStep []float64            // core.iter_next duration / keys, ns
}

func collectSpans(all []span) spanStats {
	st := spanStats{dur: map[string][]float64{}}
	roots := map[uint64]float64{}
	for _, s := range all {
		d := float64(s.End - s.Start)
		st.dur[s.Name] = append(st.dur[s.Name], d)
		if s.Parent == 0 {
			roots[s.ID] = d
		}
		if s.Name == spanIterNext && s.Keys > 0 {
			st.nextStep = append(st.nextStep, d/float64(s.Keys))
		}
	}
	var engine, call float64
	for _, s := range all {
		if s.Name != spanEnginePut && s.Name != spanEngineGet {
			continue
		}
		if root, ok := roots[s.Parent]; ok {
			d := float64(s.End - s.Start)
			st.hop = append(st.hop, root-d)
			engine += d
			call += root
		}
	}
	if call > 0 {
		st.engShare = engine / call
	}
	return st
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, all []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range all {
		if err := enc.Encode(&all[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
