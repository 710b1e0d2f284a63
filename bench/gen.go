package main

import (
	"math/rand"

	"flodb/internal/workload"
)

const (
	clients = 2 // never more than nproc on the box the bounds were set on
	scanLen = 100
)

type opKind uint8

const (
	opPut opKind = iota
	opGet
	opScan
)

// op is one generated operation. arg is a key index for Put and Get and a
// raw 64-bit seek target for Scan.
type op struct {
	kind opKind
	arg  uint64
}

// workloadSpec fixes one workload's traffic. The store sees only the
// operations opGen derives from it and the seed.
type workloadSpec struct {
	name string
	why  string

	keys    uint64 // key space
	preload bool   // write every key once during set-up
	net     bool   // clients reach the store through server + wire + client
	zipf    bool   // Gets follow a Zipfian popularity; Puts are always uniform

	// Exactly one of the three shapes below is set.
	getPct     int // mixed clients: share of Gets, the rest are Puts
	probeEvery int // ingest: Puts, with every n-th op a Get of a key this client wrote
	writeRate  int // scanwrite: client 0 scans, client 1 puts at this open-loop rate

	spanEvery uint64 // traced run: one op in spanEvery records spans
}

var workloads = []workloadSpec{
	{
		name: "ingest",
		why:  "Put-saturated, data 30x the memory component: Membuffer, drain, WAL, flush, compaction and L0 back-pressure set the result; caches and the wire do nothing",
		keys: 4 << 20, probeEvery: 128, spanEvery: 64,
	},
	{
		name: "readheavy",
		why:  "95% Zipfian Gets over data larger than memory component plus block cache: bloom, table cache, block cache and block decode set the result; the write path is idle",
		keys: 400_000, preload: true, zipf: true, getPct: 95, spanEvery: 16,
	},
	{
		name: "scanwrite",
		why:  "100-key scans against a writer paced at 20k Put/s: every scan seals and drains the Membuffer the writer refills, the opposite use of the layers ingest rewards",
		keys: 400_000, preload: true, writeRate: 20_000, spanEvery: 4,
	},
	{
		name: "netmix",
		why:  "50/50 Get/Put over loopback on data that fits in memory: client, wire and server dispatch set the result; an engine-only change should not move it",
		keys: 50_000, preload: true, net: true, getPct: 50, spanEvery: 4,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// smoke shrinks a workload a hundredfold for tests.
func (s workloadSpec) smoke() workloadSpec {
	s.keys /= 100
	if s.writeRate > 0 {
		s.writeRate /= 10
	}
	s.spanEvery = 2
	return s
}

// opGen is one client's deterministic operation stream: the same
// (workload, seed, client) always yields the same sequence.
type opGen struct {
	spec   workloadSpec
	client uint64
	ks     *keyspace
	rng    *rand.Rand
	reads  workload.KeyGen // which key a Get asks for
	writes workload.KeyGen // which key a Put overwrites
	n      uint64          // operations generated
	wrote  []uint32        // ingest: indices this client has generated a Put for
	buf    [keySize]byte
}

func newOpGen(spec workloadSpec, ks *keyspace, seed int64, client int) *opGen {
	g := &opGen{
		spec:   spec,
		client: uint64(client),
		ks:     ks,
		rng:    rand.New(rand.NewSource(seed*7919 + int64(client)*104729 + int64(len(spec.name)))),
	}
	if spec.probeEvery > 0 {
		g.wrote = make([]uint32, 0, spec.keys)
	}
	g.writes = workload.NewUniform(spec.keys)
	g.reads = g.writes
	if spec.zipf {
		// Popular keys are read, not rewritten: a Put would move them into
		// the memory component and the Gets would never reach a table.
		// The stdlib sampler needs s > 1; workload.NewZipfian maps YCSB's
		// 0.99 to its default 1.1.
		g.reads = workload.NewZipfian(spec.keys, 0.99)
	}
	return g
}

func (g *opGen) draw(from workload.KeyGen) uint64 {
	i, _ := g.ks.index(from.NextKey(g.rng, g.buf[:]))
	return i
}

// own moves i to the nearest index this client is the only writer of:
// i ≡ client (mod clients). One writer per key is what lets the checker
// know the last acknowledged version without racing.
func (g *opGen) own(i uint64) uint64 {
	i = i - i%clients + g.client
	if i >= g.spec.keys {
		i -= clients
	}
	return i
}

func (g *opGen) next() op {
	g.n++
	s := &g.spec
	switch {
	case s.writeRate > 0 && g.client == 0:
		return op{opScan, g.rng.Uint64()}
	case s.writeRate > 0:
		return op{opPut, g.draw(g.writes)} // the only writer: owns every key
	case s.probeEvery > 0:
		if g.n%uint64(s.probeEvery) == 0 && len(g.wrote) > 0 {
			return op{opGet, uint64(g.wrote[g.rng.Intn(len(g.wrote))])}
		}
		i := g.own(g.draw(g.writes))
		g.wrote = append(g.wrote, uint32(i))
		return op{opPut, i}
	default:
		if g.rng.Intn(100) < s.getPct {
			return op{opGet, g.draw(g.reads)}
		}
		return op{opPut, g.own(g.draw(g.writes))}
	}
}
