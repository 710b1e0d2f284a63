// Messagequeue: the write-intensive message-queue scenario from the
// paper's introduction ("message queues that undergo a high number of
// updates"). Multiple producers append messages; a consumer drains them
// with range scans; acknowledged messages are deleted. FloDB's Membuffer
// absorbs the bursty appends while the consumer's scans run concurrently
// against the sorted Memtable and disk.
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
	producers       = 4
	messagesPerProd = 5000
)

// queueKey orders messages globally: "q:" + 8-byte big-endian sequence.
func queueKey(seq uint64) []byte {
	k := make([]byte, 2+8)
	copy(k, "q:")
	binary.BigEndian.PutUint64(k[2:], seq)
	return k
}

func main() {
	ctx := context.Background()
	dir := filepath.Join(os.TempDir(), "flodb-messagequeue")
	os.RemoveAll(dir)
	db, err := flodb.Open(dir,
		flodb.WithMemory(8<<20),
		flodb.WithDurability(flodb.DurabilityNone), // queue contents are reconstructible; favor speed
	)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	var nextSeq atomic.Uint64
	var produced, consumed atomic.Uint64
	var wg sync.WaitGroup

	// Producers enqueue concurrently.
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < messagesPerProd; i++ {
				seq := nextSeq.Add(1)
				msg := fmt.Sprintf("producer-%d message-%d", p, i)
				if err := db.Put(ctx, queueKey(seq), []byte(msg)); err != nil {
					log.Fatal(err)
				}
				produced.Add(1)
			}
		}(p)
	}

	// Consumer streams the queue with an iterator while producers are
	// still active — the queue is never materialized — and acknowledges
	// each drain round with one atomic delete batch. It always restarts
	// from the queue head: sequence numbers are allocated before their Put
	// lands, so a resumed cursor could otherwise skip a message that is
	// still in flight.
	done := make(chan struct{})
	go func() {
		defer close(done)
		lo, hi := queueKey(0), queueKey(^uint64(0))
		acks := flodb.NewWriteBatch()
		for {
			it, err := db.NewIterator(ctx, lo, hi)
			if err != nil {
				log.Fatal(err)
			}
			acks.Reset()
			for ok := it.First(); ok; ok = it.Next() {
				acks.Delete(it.Key())
			}
			if err := it.Err(); err != nil {
				log.Fatal(err)
			}
			it.Close()
			if err := db.Apply(ctx, acks); err != nil { // acknowledge atomically
				log.Fatal(err)
			}
			consumed.Add(uint64(acks.Len()))
			if consumed.Load() >= producers*messagesPerProd {
				return
			}
			if acks.Len() == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}()

	start := time.Now()
	wg.Wait()
	<-done
	elapsed := time.Since(start)

	fmt.Printf("produced %d, consumed %d messages in %v (%.0f msgs/s end to end)\n",
		produced.Load(), consumed.Load(), elapsed.Round(time.Millisecond),
		float64(consumed.Load())/elapsed.Seconds())

	// The queue must be empty now.
	rest, _ := db.Scan(ctx, []byte("q:"), []byte("q:\xff"))
	fmt.Printf("remaining in queue: %d\n", len(rest))
	st := db.Stats()
	fmt.Printf("stats: membuffer-hits=%d memtable-writes=%d flushes=%d iterators=%d\n",
		st.MembufferHits, st.MemtableWrites, st.Flushes, st.Iterators)
}
