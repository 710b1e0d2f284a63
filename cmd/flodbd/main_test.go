package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"flodb"
	"flodb/internal/client"
	"flodb/internal/kv"
	"flodb/internal/obs"
	"flodb/internal/wire"
)

// TestSigtermDrainPreservesAckedWrites runs the daemon in-process,
// acknowledges a pile of Buffered-class writes (logged, no fsync — the
// class a crash CAN lose), delivers SIGTERM, and asserts every acked
// write is present after reopening the directory: the drain + close-time
// WAL sync honored the ack.
func TestSigtermDrainPreservesAckedWrites(t *testing.T) {
	dir := t.TempDir()
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(
			[]string{"-db", dir, "-addr", "127.0.0.1:0", "-drain-timeout", "10s"},
			io.Discard,
			func(addr string) { addrCh <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}

	cl, err := client.Dial(addr, client.WithConns(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const n = 300
	var mu sync.Mutex
	acked := make([]string, 0, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("acked-%04d", i)
			if err := cl.Put(ctx, []byte(key), []byte("v"), kv.WithDurability(kv.DurabilityBuffered)); err == nil {
				mu.Lock()
				acked = append(acked, key)
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(acked) != n {
		t.Fatalf("only %d/%d puts acked", len(acked), n)
	}

	// The daemon intercepts SIGTERM via signal.Notify, so delivering it
	// to our own process exercises the real signal path.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain and exit after SIGTERM")
	}

	db, err := flodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, key := range acked {
		if _, found, err := db.Get(ctx, []byte(key)); err != nil || !found {
			t.Fatalf("acked Buffered write %q lost across SIGTERM drain: found=%v err=%v", key, found, err)
		}
	}
}

// TestDebugTelemetryEndpoint runs the daemon in-process with
// -debug-addr, drives traffic, and scrapes the full /debug surface: the
// /metrics exposition must parse strictly and carry both the engine's
// and the server's metric families, /statsz must be valid JSON with op
// quantiles, /events valid JSON, and OpTelemetry over the wire must
// agree with the HTTP view. CI runs this against every PR — a metric
// family disappearing or the exposition going malformed fails here.
func TestDebugTelemetryEndpoint(t *testing.T) {
	dir := t.TempDir()
	debugFile := filepath.Join(dir, "debug-addr")
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(
			[]string{"-db", filepath.Join(dir, "db"), "-addr", "127.0.0.1:0",
				"-debug-addr", "127.0.0.1:0", "-debug-addr-file", debugFile},
			io.Discard,
			func(addr string) { addrCh <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	defer func() {
		syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		select {
		case <-runErr:
		case <-time.After(30 * time.Second):
			t.Error("daemon did not exit after SIGTERM")
		}
	}()

	cl, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("k-%03d", i)
		if err := cl.Put(ctx, []byte(key), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Get(ctx, []byte(key)); err != nil {
			t.Fatal(err)
		}
	}

	blob, err := os.ReadFile(debugFile)
	if err != nil {
		t.Fatalf("debug addr file: %v", err)
	}
	debugURL := "http://" + string(blob)

	resp, err := http.Get(debugURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePrometheus(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics exposition does not parse: %v", err)
	}
	for _, want := range []string{
		"flodb_puts_total",
		"flodb_gets_total",
		"flodb_op_latency_seconds",
		"flodb_wal_syncs_total",
		"flodb_memtable_bytes",
		"flodbd_requests_total",
		"flodbd_request_seconds",
		"flodbd_conns_open",
	} {
		if _, ok := fams[want]; !ok {
			t.Errorf("/metrics is missing family %q", want)
		}
	}

	resp, err = http.Get(debugURL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var statsz wire.StatsPayload
	if err := json.Unmarshal(body, &statsz); err != nil {
		t.Fatalf("/statsz is not a StatsPayload: %v", err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(body, &top); err != nil || len(top) != 2 || top["store"] == nil || top["ops"] == nil {
		t.Errorf("/statsz = %.200s…, want an object holding exactly store and ops", body)
	}
	if statsz.Store.Puts != 50 {
		t.Errorf("/statsz store.Puts = %d, want 50", statsz.Store.Puts)
	}
	if q, ok := statsz.Ops["put"]; !ok || q.Count != 50 {
		t.Errorf("/statsz ops[put] = %+v, want count 50", q)
	}

	resp, err = http.Get(debugURL + "/events?last=10")
	if err != nil {
		t.Fatal(err)
	}
	var events []obs.Event
	err = json.NewDecoder(resp.Body).Decode(&events)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/events is not an event array: %v", err)
	}

	tp, err := cl.Telemetry(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	if q, ok := tp.Ops["put"]; !ok || q.Count != 50 {
		t.Errorf("telemetry ops[put] = %+v, want count 50", q)
	}
	if len(tp.Metrics) == 0 {
		t.Error("telemetry payload carries no metrics")
	}
}

// TestTelemetryChurnUnderLoad is the nightly race-detector workload for
// the observability plane: writers storm the store (small memory
// component, so seals/flushes/events fire constantly) while scrapers
// hammer /metrics (strict-parsing every exposition), /events, /statsz,
// a pprof profile endpoint, and the OpTelemetry RPC. Everything the
// telemetry path touches — histogram atomics, the event ring, registry
// snapshots, the merged daemon view — races against the hot path here.
func TestTelemetryChurnUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("telemetry churn runs in the nightly full-duration suite")
	}
	dir := t.TempDir()
	debugFile := filepath.Join(dir, "debug-addr")
	addrCh := make(chan string, 1)
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(
			// 256 KiB memory: constant seal/flush churn. Durability none:
			// writers must outrun the membuffer even under -race, and the
			// WAL wait would cap them at group-commit speed.
			[]string{"-db", filepath.Join(dir, "db"), "-addr", "127.0.0.1:0",
				"-mem", "262144", "-durability", "none",
				"-debug-addr", "127.0.0.1:0", "-debug-addr-file", debugFile},
			io.Discard,
			func(addr string) { addrCh <- addr },
		)
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-runErr:
		t.Fatalf("daemon exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	defer func() {
		syscall.Kill(syscall.Getpid(), syscall.SIGTERM)
		select {
		case <-runErr:
		case <-time.After(30 * time.Second):
			t.Error("daemon did not exit after SIGTERM")
		}
	}()
	blob := []byte(nil)
	deadline := time.Now().Add(10 * time.Second)
	for len(blob) == 0 && time.Now().Before(deadline) {
		blob, _ = os.ReadFile(debugFile)
		if len(blob) == 0 {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if len(blob) == 0 {
		t.Fatal("debug addr file never appeared")
	}
	debugURL := "http://" + string(blob)

	cl, err := client.Dial(addr, client.WithConns(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	const storm = 3 * time.Second
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var scrapeErr, opErr error
	var mu sync.Mutex
	record := func(dst *error, err error) {
		mu.Lock()
		if *dst == nil && err != nil {
			*dst = err
		}
		mu.Unlock()
	}

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// 8 KiB values: even when -race stretches each round trip to
			// tens of milliseconds, a handful of puts fills the membuffer
			// slice of the 256 KiB budget, so seal/flush events keep
			// firing for the scrapers to race against.
			val := make([]byte, 8192)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("w%d-%06d", w, i%5000)
				if err := cl.Put(ctx, []byte(key), val); err != nil {
					record(&opErr, err)
					return
				}
				if i%7 == 0 {
					if _, _, err := cl.Get(ctx, []byte(key)); err != nil {
						record(&opErr, err)
						return
					}
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(debugURL + "/metrics")
				if err != nil {
					record(&scrapeErr, err)
					return
				}
				_, perr := obs.ParsePrometheus(resp.Body)
				resp.Body.Close()
				if perr != nil {
					record(&scrapeErr, fmt.Errorf("mid-storm exposition: %w", perr))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/events?last=64", "/statsz"} {
				resp, err := http.Get(debugURL + path)
				if err != nil {
					record(&scrapeErr, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			if _, err := cl.Telemetry(ctx, 32); err != nil {
				record(&scrapeErr, fmt.Errorf("OpTelemetry mid-storm: %w", err))
				return
			}
		}
	}()

	// One pprof heap profile mid-storm: the profile endpoints share the
	// mux and must not wedge the scrape path.
	time.Sleep(storm / 2)
	resp, err := http.Get(debugURL + "/debug/pprof/heap?debug=1")
	if err != nil {
		t.Errorf("pprof fetch: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	time.Sleep(storm / 2)
	close(stop)
	wg.Wait()
	if opErr != nil {
		t.Fatalf("write storm failed: %v", opErr)
	}
	if scrapeErr != nil {
		t.Fatalf("telemetry scrape failed: %v", scrapeErr)
	}

	// The storm must have produced events (seals at 256 KiB are
	// guaranteed) and a put histogram covering every acked write.
	evs, err := cl.Telemetry(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs.Events) == 0 {
		t.Errorf("no structured events after a seal-heavy write storm (%d puts recorded)", evs.Ops["put"].Count)
	}
	if evs.Ops["put"].Count == 0 {
		t.Error("no put latencies recorded after the storm")
	}
}

// TestKillMidStormKeepsAckedWrites runs a real flodbd process with
// -wal-writethrough, storms it with Buffered-class Puts (logged, no
// fsync), SIGKILLs it mid-storm and reopens the directory: every Put the
// server acknowledged must be there. Unlike SIGTERM there is no drain and
// no close-time sync — the process dies with whatever it held in user
// space, so only a WAL record handed to the OS at append time survives.
//
// Skipped under -short: it builds and kill -9s a real binary.
func TestKillMidStormKeepsAckedWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kill -9s a real flodbd process")
	}
	base := t.TempDir()
	bin := filepath.Join(base, "flodbd")
	if out, err := exec.Command("go", "build", "-o", bin, "flodb/cmd/flodbd").CombinedOutput(); err != nil {
		t.Fatalf("building flodbd: %v\n%s", err, out)
	}
	dir, addrFile := filepath.Join(base, "db"), filepath.Join(base, "addr")
	cmd := exec.Command(bin, "-db", dir, "-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-wal-writethrough")
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { cmd.Wait(); close(exited) }()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	var addr []byte
	for deadline := time.Now().Add(10 * time.Second); len(addr) == 0; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("flodbd never published its address")
		}
		addr, _ = os.ReadFile(addrFile)
	}

	cl, err := client.Dial(string(addr), client.WithConns(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := context.Background()

	// Writers record every key whose Put RETURNED NIL — the acked set.
	// Once the process dies every Put fails and the writer stops.
	const writers = 8
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				key := fmt.Sprintf("storm-%d-%06d", w, i)
				if err := cl.Put(ctx, []byte(key), []byte("v-"+key), kv.WithDurability(kv.DurabilityBuffered)); err != nil {
					return
				}
				acked[w] = append(acked[w], key)
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	<-exited
	wg.Wait()

	db, err := flodb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	total := 0
	for w := range acked {
		total += len(acked[w])
		for _, key := range acked[w] {
			v, found, err := db.Get(ctx, []byte(key))
			if err != nil || !found || string(v) != "v-"+key {
				t.Fatalf("acked Buffered write %s lost to kill -9: found=%v val=%q err=%v", key, found, v, err)
			}
		}
	}
	if total == 0 {
		t.Fatal("the storm acked nothing before the kill")
	}
	t.Logf("all %d acked writes survived kill -9", total)
}
