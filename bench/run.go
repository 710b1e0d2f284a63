package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"flodb"
	netclient "flodb/internal/client"
	"flodb/internal/kv"
	"flodb/internal/server"
)

// The store configuration every workload shares. Everything not set here
// is the default: WAL on, Buffered durability (logged, no fsync on the op
// path), telemetry on, unsharded.
const (
	memoryBytes     = 32 << 20
	blockCacheBytes = 8 << 20
	flushPolicy     = "DurabilityBuffered: every write is logged, none is fsynced on the op path"
)

// openStore opens the store the way every workload uses it.
//
// One drain thread, not the default two: with two, this benchmark's own
// verifier catches the store losing acknowledged writes on ingest (one to
// three keys a run come back one version old). Two drainers can each hold
// a claimed copy of the same key; the skiplist replaces an entry in place
// whatever its sequence number, so the drainer that inserts last wins even
// when its copy is the older one. README.md has the reproduction. The
// benchmark needs workloads on which no operation fails, so it runs the
// configuration that is correct.
func openStore(dir string) (*flodb.DB, error) {
	return flodb.Open(dir, flodb.WithMemory(memoryBytes), flodb.WithBlockCacheSize(blockCacheBytes), flodb.WithDrainThreads(1))
}

// runConfig is how one workload is run; the numbers that define the
// benchmark (fullConfig) are fixed and identical on every commit.
type runConfig struct {
	seed         int64
	window       time.Duration // measured
	warmup       time.Duration // unmeasured, same traffic
	trace        bool
	setups       int           // set-up is repeated; setup_s is the median
	quiesce      time.Duration // set-up ends when flushes+compactions stood still this long
	verifySample int           // keys read back after close + reopen
	replayOps    int           // traced run: ops of the stream replayed through each layer
	outDir       string        // span files and store directories go here

	// wrap, when set, is put between the clients (or the server) and the
	// engine. Tests inject faults with it.
	wrap func(kv.Store) kv.Store
}

func fullConfig(seed int64, window time.Duration, trace bool, outDir string) runConfig {
	return runConfig{
		seed: seed, window: window, warmup: 2 * time.Second, trace: trace,
		setups: 3, quiesce: time.Second, verifySample: 10_000, replayOps: 50_000, outDir: outDir,
	}
}

func smokeConfig(seed int64, window time.Duration, trace bool, outDir string) runConfig {
	return runConfig{
		seed: seed, window: window, warmup: window / 4, trace: trace,
		setups: 1, quiesce: 100 * time.Millisecond, verifySample: 500, replayOps: 2_000, outDir: outDir,
	}
}

// The run's state is one word every client reads before each operation:
// the phase in the low two bits, the number of the current slice of the
// measured window above them.
const (
	phaseWarm uint64 = iota
	phaseMeasure
	phaseDone
	phaseBits = 2
)

// The measured window is cut into slices. End-to-end metrics are medians
// over the slices, so a disturbed second moves one slice and not the
// result. A traced run uses short slices and records spans in every
// second one, so the same run measures throughput with and without span
// recording.
const (
	measureSlice = time.Second
	traceSlice   = 250 * time.Millisecond
)

// run is one execution of one workload.
type run struct {
	spec   workloadSpec
	cfg    runConfig
	ks     *keyspace
	sorted []uint64 // preloaded keys in scan order (scanwrite)
	tally  tally

	base    time.Time
	state   atomic.Uint64
	clients []*client
}

func (r *run) now() int64 { return int64(time.Since(r.base)) }

// load returns the current phase and slice.
func (r *run) load() (phase uint64, slice int) {
	st := r.state.Load()
	return st & (1<<phaseBits - 1), int(st >> phaseBits)
}

// recording reports whether spans are recorded in the given slice.
func (r *run) recording(slice int) bool { return r.cfg.trace && slice%2 == 0 }

// client is one load-generating goroutine and everything it measures.
type client struct {
	r     *run
	id    int
	store kv.Store
	gen   *opGen

	put, read sampler
	ops       []uint64 // ops completed in each slice of the window
	attempted uint64
	lagMax    int64 // paced writer: worst lateness of the generator itself

	key    [keySize]byte
	val    [valueSize]byte
	floors [scanLen]uint32

	log      spanLog
	inflight atomic.Pointer[inflight]
}

// stack is an open store plus, on netmix, the server and connections in
// front of it.
type stack struct {
	dir    string
	db     *flodb.DB
	srv    *server.Server
	served chan error
	conns  []*netclient.Client
}

func (s *stack) close() error {
	for _, c := range s.conns {
		c.Close()
	}
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := s.srv.Shutdown(ctx)
		cancel()
		if err != nil {
			s.srv.Close()
		}
		<-s.served
	}
	return s.db.Close()
}

// waitQuiesce returns once the store's flush and compaction counters have
// not moved for stable (or after a minute, whichever is first).
func waitQuiesce(db *flodb.DB, stable time.Duration) {
	last, since, deadline := db.Stats(), time.Now(), time.Now().Add(time.Minute)
	for time.Since(since) < stable && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		if st := db.Stats(); st.Flushes != last.Flushes || st.Compactions != last.Compactions {
			last, since = st, time.Now()
		}
	}
}

// setup opens a store in dir, preloads it and waits for background work
// to settle. Everything here is what setup_s times.
func (r *run) setup(dir string) (*stack, error) {
	db, err := openStore(dir)
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	s := &stack{dir: dir, db: db}
	if r.spec.preload {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c uint64) {
				defer wg.Done()
				var key [keySize]byte
				var val [valueSize]byte
				for i := c; i < r.ks.n; i += clients {
					r.tally.attempted.Add(1)
					if err := db.Put(context.Background(), r.ks.key(i, key[:]), fillValue(val[:], i, 1)); err != nil {
						r.tally.fail("preload put of index %d: %v", i, err)
						continue
					}
					r.ks.version[i].Store(1)
				}
			}(uint64(c))
		}
		wg.Wait()
	}
	waitQuiesce(db, r.cfg.quiesce)
	if !r.spec.net {
		return s, nil
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.srv = server.New(server.Config{Store: r.engine(db)})
	s.served = make(chan error, 1) // one send, from the serving goroutine
	go func() { s.served <- s.srv.Serve(lis) }()
	for c := 0; c < clients; c++ {
		cl, err := netclient.Dial(lis.Addr().String(), netclient.WithConns(1))
		if err != nil {
			s.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		s.conns = append(s.conns, cl)
	}
	return s, nil
}

// engine is the store as the layer above it sees it: the DB itself, or
// the DB behind the test's fault injector and the traced run's span
// recorder.
func (r *run) engine(db *flodb.DB) kv.Store {
	var st kv.Store = db
	if r.cfg.wrap != nil {
		st = r.cfg.wrap(st)
	}
	if r.cfg.trace && r.spec.net {
		st = &spanStore{Store: st, r: r}
	}
	return st
}

// result is what one run of one workload produced.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Samples   map[string]uint64  `json:"samples"` // observations behind each timing metric
	Reasons   []string           `json:"reasons,omitempty"`
}

// execute runs one workload start to finish: repeated set-up, warm-up,
// the measured window, close + reopen + verification and, when traced,
// the layer counters, spans and replay.
func execute(spec workloadSpec, cfg runConfig) (*result, error) {
	r := &run{spec: spec, cfg: cfg, ks: newKeyspace(spec.keys)}
	if spec.writeRate > 0 {
		r.sorted = r.ks.sortedKeys()
	}
	root := filepath.Join(cfg.outDir, fmt.Sprintf("store-%s-%d-%d", spec.name, cfg.seed, os.Getpid()))
	if err := os.RemoveAll(root); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	// Set-up, several times over; the last store is the one measured.
	var st *stack
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("close after set-up %d: %w", i, err)
			}
			if err := os.RemoveAll(st.dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = r.setup(filepath.Join(root, fmt.Sprintf("db%d", i))); err != nil {
			return nil, err
		}
		setupSecs = append(setupSecs, time.Since(t0).Seconds())
	}

	for c := 0; c < clients; c++ {
		cl := &client{r: r, id: c, gen: newOpGen(spec, r.ks, cfg.seed, c)}
		cl.put, cl.read = newSampler(samplerCap), newSampler(samplerCap)
		if spec.net {
			cl.store = st.conns[c]
		} else {
			cl.store = r.engine(st.db)
		}
		if cfg.trace {
			cl.log.spans = make([]span, 0, spanCap)
		}
		r.clients = append(r.clients, cl)
	}

	var layers *layerProbe
	if cfg.trace {
		layers = newLayerProbe(st, cfg.quiesce)
		defer layers.stop()
	}

	// Warm-up and the measured window. In a traced run span recording is
	// switched on and off every traceSlice, so the run itself measures
	// what recording costs.
	r.base = time.Now()
	var wg sync.WaitGroup
	for _, cl := range r.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if spec.writeRate > 0 && cl.id == 1 {
				cl.pacedLoop()
			} else {
				cl.closedLoop()
			}
		}()
	}
	time.Sleep(cfg.warmup)
	if layers != nil {
		layers.begin()
	}
	var sliceSecs []float64
	sliceLen := measureSlice
	if cfg.trace {
		sliceLen = traceSlice
	}
	for start := time.Now(); ; {
		left := cfg.window - time.Since(start)
		if left <= 0 {
			break
		}
		r.state.Store(phaseMeasure | uint64(len(sliceSecs))<<phaseBits)
		t0 := time.Now()
		time.Sleep(min(left, sliceLen))
		sliceSecs = append(sliceSecs, time.Since(t0).Seconds())
	}
	r.state.Store(phaseDone)
	wg.Wait()
	if layers != nil {
		layers.end()
	}
	rss := peakRSSMiB()

	res := &result{
		Workload: spec.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.window.Seconds(),
		Metrics: map[string]float64{}, Samples: map[string]uint64{},
	}
	// Per slice of the window: what the closed-loop clients completed, per
	// second.
	slices := len(sliceSecs)
	rates := make([]float64, slices)
	var puts, reads []*sampler
	var completed uint64
	for _, cl := range r.clients {
		r.tally.attempted.Add(cl.attempted)
		puts, reads = append(puts, &cl.put), append(reads, &cl.read)
		if spec.writeRate > 0 && cl.id == 1 {
			continue // the paced writer's rate is an input, not a result
		}
		for i, n := range cl.ops[:min(len(cl.ops), slices)] {
			rates[i] += float64(n) / sliceSecs[i]
			completed += n
		}
	}

	if !cfg.trace {
		m := res.Metrics
		m["setup_s"] = median(setupSecs)
		m["ops_per_s"] = median(rates)
		m["put_p50_us"] = sliceMedian(0.50, slices, puts...) / 1e3
		m["read_p50_us"] = sliceMedian(0.50, slices, reads...) / 1e3
		m["rss_peak_mb"] = rss
		seen := func(ss []*sampler) (n, stride uint64) {
			for _, s := range ss {
				n, stride = n+s.seen, max(stride, s.k)
			}
			return n, stride
		}
		res.Samples["setup_s"] = uint64(len(setupSecs))
		res.Samples["ops_per_s"] = completed
		res.Samples["put_p50_us"], _ = seen(puts)
		res.Samples["read_p50_us"], _ = seen(reads)
		_, res.Samples["sample_stride"] = seen(append(puts, reads...))
	} else {
		r.clientMetrics(res.Metrics, merge(-1, puts...), merge(-1, reads...), rates)
		if err := r.spanMetrics(res.Metrics); err != nil {
			return nil, err
		}
		var seconds float64
		for _, s := range sliceSecs {
			seconds += s
		}
		layers.metrics(res.Metrics, r, seconds)
	}

	// Close, reopen, and check the store against the model.
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("close store: %w", err)
	}
	if err := r.verifyReopened(st.dir); err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := r.replay(res.Metrics, st.dir); err != nil {
			return nil, fmt.Errorf("layer replay: %w", err)
		}
	}

	res.Attempted, res.Failed = r.tally.attempted.Load(), r.tally.failed.Load()
	res.Correct = res.Failed == 0
	res.Reasons = r.tally.reasons
	return res, nil
}

// closedLoop issues the next operation as soon as the previous one
// completed, until the run is over.
func (c *client) closedLoop() {
	for {
		ph, slice := c.r.load()
		if ph == phaseDone {
			return
		}
		o := c.gen.next()
		start := c.r.now()
		end := c.do(o, start, c.traced(slice))
		if ph == phaseMeasure {
			c.record(o.kind, end-start, slice)
		}
	}
}

// traced says whether the operation just generated records spans: one in
// spanEvery, in the slices of a traced run that record at all.
func (c *client) traced(slice int) bool {
	return c.r.recording(slice) && c.gen.n%c.gen.spec.spanEvery == 0
}

// pacedLoop is the open-loop writer: operation k is due at k/rate whether
// or not the store kept up, and its latency runs from when it was due, so
// a stall is charged to every operation it delayed. Waiting yields the
// processor instead of sleeping: a Go timer is late by more than the 50 µs
// between operations.
func (c *client) pacedLoop() {
	interval := int64(time.Second) / int64(c.gen.spec.writeRate)
	first := c.r.now()
	for k := int64(0); ; k++ {
		due := first + k*interval
		for c.r.now() < due {
			if ph, _ := c.r.load(); ph == phaseDone {
				return
			}
			runtime.Gosched()
		}
		ph, slice := c.r.load()
		if ph == phaseDone {
			return
		}
		o := c.gen.next()
		start := c.r.now()
		end := c.do(o, start, c.traced(slice))
		if ph == phaseMeasure {
			c.lagMax = max(c.lagMax, start-due)
			c.record(o.kind, end-due, slice)
		}
	}
}

func (c *client) record(kind opKind, ns int64, slice int) {
	for len(c.ops) <= slice {
		c.ops = append(c.ops, 0)
		c.put.mark()
		c.read.mark()
	}
	c.ops[slice]++
	if kind == opPut {
		c.put.add(ns)
	} else {
		c.read.add(ns)
	}
}

// do performs one operation, checks its result against the model and
// returns the time it completed. With traced set it records spans.
func (c *client) do(o op, start int64, traced bool) int64 {
	c.attempted++
	ctx := context.Background()
	ks := c.r.ks
	var id uint64
	if traced {
		c.log.seq++
		id = uint64(c.id+1)<<48 | c.log.seq<<2
		c.inflight.Store(&inflight{id: id, kind: o.kind, arg: o.arg})
		defer c.inflight.Store(nil)
	}
	switch o.kind {
	case opPut:
		ver := ks.version[o.arg].Load() + 1
		err := c.store.Put(ctx, ks.key(o.arg, c.key[:]), fillValue(c.val[:], o.arg, ver))
		end := c.r.now()
		if err != nil {
			c.r.tally.fail("put of index %d: %v", o.arg, err)
		} else {
			ks.version[o.arg].Store(ver)
		}
		if traced {
			c.log.add(span{Name: spanClientPut, ID: id, Req: id, Client: c.id, Start: start, End: end})
		}
		return end

	case opGet:
		floor := ks.version[o.arg].Load() // before the Get: the result may not be older
		v, found, err := c.store.Get(ctx, ks.key(o.arg, c.key[:]))
		end := c.r.now()
		switch {
		case err != nil:
			c.r.tally.fail("get of index %d: %v", o.arg, err)
		case !found:
			if floor > 0 {
				c.r.tally.fail("get of index %d: not found, version %d was acknowledged", o.arg, floor)
			}
		default:
			c.checkRead("get", v, o.arg, floor)
		}
		if traced {
			c.log.add(span{Name: spanClientGet, ID: id, Req: id, Client: c.id, Start: start, End: end})
		}
		return end

	default:
		return c.scan(ctx, o.arg, start, id)
	}
}

// checkRead validates a value read for index idx: intact, not older than
// floor, and not newer than the one write that may be in flight.
func (c *client) checkRead(what string, v []byte, idx uint64, floor uint32) bool {
	ver, err := checkValue(v, idx)
	switch {
	case err != nil:
		c.r.tally.fail("%s: %v", what, err)
	case ver < floor:
		c.r.tally.fail("%s of index %d: stale version %d, version %d was acknowledged before the read", what, idx, ver, floor)
	case ver > c.r.ks.version[idx].Load()+1:
		c.r.tally.fail("%s of index %d: version %d was never written", what, idx, ver)
	default:
		return true
	}
	return false
}

// scan seeks to target and reads scanLen keys, which must be exactly the
// next scanLen preloaded keys in order (nothing is ever deleted).
func (c *client) scan(ctx context.Context, target uint64, start int64, id uint64) int64 {
	r := c.r
	sorted := r.sorted
	pos := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= target })
	want := sorted[pos:min(pos+scanLen, len(sorted))]
	for j, k := range want {
		c.floors[j] = r.ks.version[k*r.ks.inv].Load()
	}
	it, err := c.store.NewIterator(ctx, nil, nil)
	if err != nil {
		r.tally.fail("scan: open iterator: %v", err)
		return r.now()
	}
	binary.BigEndian.PutUint64(c.key[:], target)
	ok := it.Seek(c.key[:])
	opened := r.now()
	good := true
	for j, k := range want {
		if !ok {
			r.tally.fail("scan from %016x: ended after %d keys, want %d", target, j, len(want))
			good = false
			break
		}
		if key := it.Key(); len(key) != keySize || binary.BigEndian.Uint64(key) != k {
			r.tally.fail("scan from %016x: key %d is %x, want %016x", target, j, key, k)
			good = false
			break
		}
		if good = c.checkRead("scan", it.Value(), k*r.ks.inv, c.floors[j]); !good {
			break
		}
		ok = it.Next()
	}
	end := r.now()
	if good && len(want) < scanLen && ok {
		r.tally.fail("scan from %016x: key %x past the last key", target, it.Key())
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		r.tally.fail("scan from %016x: %v", target, err)
	}
	if id != 0 {
		c.log.add(span{Name: spanClientScan, ID: id, Req: id, Client: c.id, Start: start, End: end})
		c.log.add(span{Name: spanIterOpen, ID: id + 1, Parent: id, Req: id, Client: c.id, Start: start, End: opened})
		c.log.add(span{Name: spanIterNext, ID: id + 2, Parent: id, Req: id, Client: c.id, Start: opened, End: end, Keys: len(want)})
	}
	return end
}

// verifyReopened opens the closed store again and checks it against the
// model: a sample of point reads, then one full pass that must return
// exactly the written keys, in order, each at its last acknowledged
// version.
func (r *run) verifyReopened(dir string) error {
	db, err := openStore(dir)
	if err != nil {
		return fmt.Errorf("reopen store: %w", err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	var key [keySize]byte
	for n := 0; n < r.cfg.verifySample; n++ {
		i := uint64(rng.Int63n(int64(r.ks.n)))
		want := r.ks.version[i].Load()
		r.tally.attempted.Add(1)
		v, found, err := db.Get(ctx, r.ks.key(i, key[:]))
		switch {
		case err != nil:
			r.tally.fail("after reopen: get of index %d: %v", i, err)
		case !found && want > 0:
			r.tally.fail("after reopen: index %d lost, version %d was acknowledged", i, want)
		case found:
			if ver, err := checkValue(v, i); err != nil {
				r.tally.fail("after reopen: %v", err)
			} else if ver != want {
				r.tally.fail("after reopen: index %d has version %d, want %d", i, ver, want)
			}
		}
	}

	it, err := db.NewIterator(ctx, nil, nil)
	if err != nil {
		db.Close()
		return fmt.Errorf("reopen store: iterator: %w", err)
	}
	var count, prev uint64
	for ok := it.First(); ok; ok = it.Next() {
		r.tally.attempted.Add(1)
		count++
		i, valid := r.ks.index(it.Key())
		if !valid {
			r.tally.fail("full pass: foreign key %x", it.Key())
			continue
		}
		k := binary.BigEndian.Uint64(it.Key())
		switch {
		case count > 1 && k <= prev:
			r.tally.fail("full pass: key %016x after %016x", k, prev)
		default:
			if ver, err := checkValue(it.Value(), i); err != nil {
				r.tally.fail("full pass: %v", err)
			} else if want := r.ks.version[i].Load(); ver != want {
				gv, gfound, gerr := db.Get(ctx, r.ks.key(i, key[:]))
				gver, _ := checkValue(gv, i)
				r.tally.fail("full pass: index %d has version %d, want %d (DEBUG get: found=%v err=%v ver=%d)", i, ver, want, gfound, gerr, gver)
			}
		}
		prev = k
	}
	if err := errors.Join(it.Err(), it.Close()); err != nil {
		r.tally.fail("full pass: %v", err)
	}
	if want := r.ks.written(); count != want {
		r.tally.fail("full pass: %d keys, want %d", count, want)
	}
	return db.Close()
}

// peakRSSMiB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
