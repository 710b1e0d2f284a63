// Sessionstore: the skewed session-state scenario from the paper's
// introduction ("maintaining session states in user-facing applications",
// evaluated in §5.4). A small set of hot sessions receives nearly all
// updates; FloDB's in-place updates keep the hot set resident in memory
// instead of flooding the store with duplicate versions — run it and watch
// the flush counter stay low while millions of updates land.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"flodb"
)

const (
	sessions    = 10000
	hotSessions = 200 // 2% of sessions take 98% of traffic (§5.4)
	workers     = 8
	updatesEach = 50000
)

func sessionKey(id int) []byte {
	return []byte(fmt.Sprintf("session:%08d", id))
}

func main() {
	ctx := context.Background()
	dir := filepath.Join(os.TempDir(), "flodb-sessionstore")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir, flodb.WithMemory(16<<20), flodb.WithDurability(flodb.DurabilityNone))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// Seed every session.
	for i := 0; i < sessions; i++ {
		if err := db.Put(ctx, sessionKey(i), []byte("state=new")); err != nil {
			log.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			state := make([]byte, 0, 64)
			for i := 0; i < updatesEach; i++ {
				var id int
				if rng.Intn(100) < 98 {
					id = rng.Intn(hotSessions) // hot
				} else {
					id = hotSessions + rng.Intn(sessions-hotSessions)
				}
				state = state[:0]
				state = append(state, fmt.Sprintf("state=active;worker=%d;op=%d", w, i)...)
				if err := db.Put(ctx, sessionKey(id), state); err != nil {
					log.Fatal(err)
				}
				// Occasionally read back the session (50/50 mix of §5.4).
				if _, _, err := db.Get(ctx, sessionKey(id)); err != nil {
					log.Fatal(err)
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := workers * updatesEach
	st := db.Stats()
	fmt.Printf("%d updates+reads over %d sessions in %v (%.2f Mops/s)\n",
		2*total, sessions, elapsed.Round(time.Millisecond),
		float64(2*total)/elapsed.Seconds()/1e6)
	fmt.Printf("in-place efficiency: %d updates caused only %d flushes\n", total, st.Flushes)
	fmt.Printf("membuffer-hits=%d memtable-writes=%d\n", st.MembufferHits, st.MemtableWrites)

	// Spot-check a hot session's final state is a valid latest write.
	v, found, _ := db.Get(ctx, sessionKey(0))
	fmt.Printf("session 0: found=%v state=%q\n", found, v)
}
