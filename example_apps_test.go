package alex_test

// Whole-application examples: each runs as a test, and its Output block
// pins what it prints.

import (
	"fmt"
	"math/rand"

	alex "repro"
)

// Example_quickstart bulk loads an index, looks keys up, inserts,
// scans, updates and deletes, and prints the space accounting that
// motivates learned indexes: the index (inner nodes and models) is a
// small fraction of the data it routes to.
func Example_quickstart() {
	// 100k synthetic order IDs with random payloads.
	const n = 100_000
	rng := rand.New(rand.NewSource(42))
	keys := make([]float64, n)
	payloads := make([]uint64, n)
	for i := range keys {
		keys[i] = float64(i) * 10 // sorted, unique
		payloads[i] = rng.Uint64() % 1000
	}

	// Bulk load. LoadSorted skips sorting when keys are already ordered.
	idx := alex.LoadSorted(keys, payloads)
	fmt.Printf("loaded %d keys, tree height %d\n", idx.Len(), idx.Height())
	fmt.Printf("index size: %d bytes (%.4f bytes/key)\n",
		idx.IndexSizeBytes(), float64(idx.IndexSizeBytes())/n)
	fmt.Printf("data size:  %d bytes\n", idx.DataSizeBytes())

	// Point lookups.
	if v, ok := idx.Get(123450); ok {
		fmt.Printf("Get(123450) = %d\n", v)
	}

	// Dynamic inserts go to the model-predicted position.
	idx.Insert(123455, 7)
	if v, ok := idx.Get(123455); ok {
		fmt.Printf("after insert, Get(123455) = %d\n", v)
	}

	// Range scan from 123440 up to the first key >= 123480.
	fmt.Print("scan from 123440:")
	idx.Scan(123440, func(k float64, v uint64) bool {
		fmt.Printf(" %g", k)
		return k < 123480
	})
	fmt.Println()

	// Updates and deletes.
	idx.Update(123455, 8)
	idx.Delete(123450)
	fmt.Printf("after delete, contains(123450) = %v\n", idx.Contains(123450))

	// The index observed its own workload; stats show the work done.
	st := idx.Stats()
	fmt.Printf("stats: %d leaves, %d inserts, %d deletes, %d expands\n",
		st.NumLeaves, st.Inserts, st.Deletes, st.Expands)
	// Output:
	// loaded 100000 keys, tree height 2
	// index size: 2088 bytes (0.0209 bytes/key)
	// data size:  2519808 bytes
	// Get(123450) = 508
	// after insert, Get(123455) = 7
	// scan from 123440: 123440 123450 123455 123460 123470 123480
	// after delete, contains(123450) = false
	// stats: 32 leaves, 1 inserts, 1 deletes, 0 expands
}

// order is a heap row of Example_secondary; indexes refer to it by its
// position in the table.
type order struct {
	ID     uint64
	Time   float64 // Unix seconds, unique per order
	Amount float64 // cents, made unique by a sub-cent tiebreaker
}

// Example_secondary uses ALEX as a secondary index over a row table,
// the §7 "Secondary Indexes" pattern: the index stores row numbers
// instead of data, exactly like a B+Tree secondary index. Two indexes
// over an orders table (one on order time, one on amount) answer
// selective queries without touching the heap until the row fetch.
func Example_secondary() {
	const n = 30_000
	rng := rand.New(rand.NewSource(5))

	// The heap: an append-only order table.
	table := make([]order, n)
	timeKeys := make([]float64, n)
	amountKeys := make([]float64, n)
	rowIDs := make([]uint64, n)
	base := 1.7e9
	for i := range table {
		table[i] = order{
			ID:   uint64(i) + 1,
			Time: base + float64(i)*7 + rng.Float64(),
			// ALEX keys must be unique (§7); a deterministic sub-cent
			// epsilon disambiguates equal amounts, the standard
			// composite-key trick for secondary indexes.
			Amount: float64(rng.Intn(50000)) + float64(i)*1e-9,
		}
		timeKeys[i] = table[i].Time
		amountKeys[i] = table[i].Amount
		rowIDs[i] = uint64(i)
	}

	// Secondary indexes: key -> row number.
	byTime := alex.LoadSorted(timeKeys, rowIDs) // times are increasing
	byAmount, err := alex.Load(amountKeys, rowIDs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("orders: %d rows, time index height %d, amount index height %d\n",
		n, byTime.Height(), byAmount.Height())

	// Point query through the time index.
	probe := table[12345].Time
	if row, ok := byTime.Get(probe); ok {
		fmt.Printf("order at t=%.3f -> id %d\n", probe, table[row].ID)
	}

	// Range query: total value of orders in a 1-hour window, resolved
	// through the time index with row fetches from the heap.
	var total float64
	count := 0
	byTime.ScanRange(base+100_000, base+103_600, func(k float64, row uint64) bool {
		total += table[row].Amount
		count++
		return true
	})
	fmt.Printf("1-hour window: %d orders, total %.0f cents\n", count, total)

	// The largest orders: iterate from 100 cents below the maximum.
	maxAmt, _ := byAmount.MaxKey()
	it := byAmount.IterFrom(maxAmt - 100)
	top := 0
	for it.Next() {
		top++
	}
	fmt.Printf("orders within 100 cents of the maximum: %d\n", top)

	// Deleting an order removes it from both indexes.
	victim := table[777]
	byTime.Delete(victim.Time)
	byAmount.Delete(victim.Amount)
	_, inTime := byTime.Get(victim.Time)
	_, inAmount := byAmount.Get(victim.Amount)
	fmt.Printf("order %d still indexed: %v %v\n", victim.ID, inTime, inAmount)
	// Output:
	// orders: 30000 rows, time index height 2, amount index height 2
	// order at t=1700086415.218 -> id 12346
	// 1-hour window: 514 orders, total 12736473 cents
	// orders within 100 cents of the maximum: 69
	// order 778 still indexed: false false
}

// Example_timeseries ingests an append-mostly event stream, the
// paper's §5.2.5 distribution-shift scenario as an application. Events
// arrive with increasing timestamps, so new keys land in a key domain
// the bulk load never saw and the index must adapt: that is what node
// splitting on inserts (WithSplitOnInsert) is for. The heights printed
// after the bulk load and after the appends show how the appends
// deepened the tree.
func Example_timeseries() {
	const (
		histor = 20_000 // historical events bulk loaded
		live   = 20_000 // live events inserted afterwards
	)
	rng := rand.New(rand.NewSource(11))

	// Historical events with jittered timestamps.
	base := 1.7e9 // Unix seconds
	hist := make([]float64, histor)
	for i := range hist {
		hist[i] = base + float64(i)*13 + rng.Float64()
	}

	// An adaptive index with splitting enabled for the shifting domain.
	idx := alex.LoadSorted(hist, nil, alex.WithSplitOnInsert())
	fmt.Printf("bulk loaded %d historical events, height %d\n", idx.Len(), idx.Height())

	// Live ingest: strictly later timestamps (a disjoint key domain).
	liveBase := hist[len(hist)-1] + 60
	for i := 0; i < live; i++ {
		ts := liveBase + float64(i)*13 + rng.Float64()
		idx.Insert(ts, uint64(i))
	}
	st := idx.Stats()
	fmt.Printf("ingested %d live events (splits=%d, expands=%d), height %d\n",
		live, st.Splits, st.Expands, idx.Height())

	// Query: the last 1000 events.
	maxTs, _ := idx.MaxKey()
	recent, _ := idx.ScanN(maxTs-13_000, 1000)
	fmt.Printf("window query returned %d events, first=%.0f last=%.0f\n",
		len(recent), recent[0], recent[len(recent)-1])

	if err := idx.CheckInvariants(); err != nil {
		panic(err)
	}
	fmt.Println("invariants hold after ingest")
	// Output:
	// bulk loaded 20000 historical events, height 2
	// ingested 20000 live events (splits=19, expands=0), height 21
	// window query returned 1000 events, first=1700507048 last=1700520035
	// invariants hold after ingest
}
