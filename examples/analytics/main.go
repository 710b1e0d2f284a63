// Analytics: consistent range scans running concurrently with a heavy
// update stream — the capability §3.2 highlights (FloDB is "the first LSM
// system to simultaneously support consistent scans and in-place
// updates"). A writer continuously reprices a catalog in whole-category
// bursts, each burst committed as ONE atomic WriteBatch; analytic scans
// aggregate a category and verify they always observe exactly one price —
// scans never see a partially applied batch.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"flodb"
)

const (
	categories   = 8
	itemsPerCat  = 500
	scanRounds   = 200
	writerBursts = 1000
)

func itemKey(cat, item int) []byte {
	k := make([]byte, 4+4)
	binary.BigEndian.PutUint32(k[0:], uint32(cat))
	binary.BigEndian.PutUint32(k[4:], uint32(item))
	return k
}

func catBounds(cat int) (lo, hi []byte) {
	return itemKey(cat, 0), itemKey(cat+1, 0)
}

func main() {
	ctx := context.Background()
	dir := filepath.Join(os.TempDir(), "flodb-analytics")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir, flodb.WithMemory(8<<20), flodb.WithoutWAL())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	price := make([]byte, 8)
	for cat := 0; cat < categories; cat++ {
		for item := 0; item < itemsPerCat; item++ {
			binary.BigEndian.PutUint64(price, 100)
			if err := db.Put(ctx, itemKey(cat, item), price); err != nil {
				log.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var bursts atomic.Uint64
	var wg sync.WaitGroup

	// Writer: reprices whole categories in bursts; each burst is one
	// atomic WriteBatch, so all items of the category change price
	// together or not at all.
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 8)
		batch := flodb.NewWriteBatch()
		for b := 1; b <= writerBursts; b++ {
			select {
			case <-stop:
				return
			default:
			}
			cat := b % categories
			binary.BigEndian.PutUint64(buf, uint64(100+b))
			batch.Reset()
			for item := 0; item < itemsPerCat; item++ {
				batch.Put(itemKey(cat, item), buf)
			}
			if err := db.Apply(ctx, batch); err != nil {
				log.Fatal(err)
			}
			bursts.Add(1)
		}
	}()

	// Analysts: scan a category and check the snapshot is not torn.
	// Because bursts commit atomically, every scan must observe exactly
	// ONE price across the category — never a burst boundary.
	torn := 0
	start := time.Now()
	for round := 0; round < scanRounds; round++ {
		cat := round % categories
		lo, hi := catBounds(cat)
		pairs, err := db.Scan(ctx, lo, hi)
		if err != nil {
			log.Fatal(err)
		}
		if len(pairs) != itemsPerCat {
			log.Fatalf("scan lost items: %d of %d", len(pairs), itemsPerCat)
		}
		prices := map[uint64]int{}
		for _, p := range pairs {
			prices[binary.BigEndian.Uint64(p.Value)]++
		}
		if len(prices) > 1 {
			torn++
		}
	}
	elapsed := time.Since(start)
	close(stop)
	wg.Wait()

	fmt.Printf("%d scans over %d repricing bursts in %v\n", scanRounds, bursts.Load(), elapsed.Round(time.Millisecond))
	fmt.Printf("torn snapshots observed: %d (must be 0)\n", torn)
	if torn > 0 {
		os.Exit(1)
	}
}
