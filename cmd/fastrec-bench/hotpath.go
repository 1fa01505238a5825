package main

// Hot-path measurement rails (-hotpath): the numbers behind
// BENCH_hotpath.json.
//
// Three experiments, matching the three hot-path optimizations:
//
//  1. Point ops — ns/op and allocs/op for a warm Lookup hit (LookupInto
//     with a recycled destination) and a no-split Insert. Both must be
//     allocation-free: the descent scratch, path slice, and in-page encode
//     are pooled or in place, so a warm point op never touches the heap.
//  2. Batched vs single durable writes — 8 goroutines over one tree at a
//     simulated 100µs/page, a mixed lookup/insert stream where every
//     insert must be durable. The single-op baseline syncs after each
//     insert; the batched side buffers a run into InsertBatch and pays one
//     sync per batch. The ratio is the group-amortization win.
//  3. Eviction under a scan-heavy mix — the hot-set hit rate while a
//     sequential scan many times the pool size streams past, measured
//     under the scan-resistant segmented sweep and again under the legacy
//     single clock on the identical access pattern.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/page"
	"repro/internal/storage"
)

var (
	hotpathBench = flag.Bool("hotpath", false, "run the hot-path benchmark suite and emit BENCH_hotpath.json-shaped JSON")
	cpuProfile   = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile   = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
)

type pointOpResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	Ops         int     `json:"ops_measured"`
}

type batchResult struct {
	Goroutines      int     `json:"goroutines"`
	IOLatUS         int64   `json:"iolat_us"`
	BatchSize       int     `json:"batch_size"`
	SingleOpsPerSec float64 `json:"single_ops_per_sec"`
	BatchOpsPerSec  float64 `json:"batched_ops_per_sec"`
	Speedup         float64 `json:"batched_vs_single"`
}

type evictionResult struct {
	PoolFrames    int     `json:"pool_frames"`
	HotPages      int     `json:"hot_pages"`
	ScanPages     int     `json:"scan_pages"`
	TwoQHitRate   float64 `json:"segmented_hot_hit_rate"`
	LegacyHitRate float64 `json:"legacy_clock_hot_hit_rate"`
	Improvement   float64 `json:"segmented_vs_legacy"`
}

type hotpathReport struct {
	Variant      string         `json:"variant"`
	WarmLookup   pointOpResult  `json:"warm_lookup_hit"`
	NoSplitIns   pointOpResult  `json:"no_split_insert"`
	DurableMixed batchResult    `json:"durable_mixed_8g"`
	ScanEviction evictionResult `json:"scan_heavy_eviction"`
}

func runHotpathBench() {
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	report := hotpathReport{Variant: btree.Hybrid.String()}
	report.WarmLookup = benchWarmLookup()
	report.NoSplitIns = benchNoSplitInsert()
	report.DurableMixed = benchDurableMixed()
	report.ScanEviction = benchScanEviction()

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// measureOps times fn over n calls and returns ns/op plus the exact
// per-call heap allocation count from the runtime's Mallocs counter. The
// warm calls run after the GC (which drains the sync.Pools) and before the
// measurement window, so pool refills are not charged to the ops.
func measureOps(n, warm int, fn func(i int)) pointOpResult {
	runtime.GC()
	for i := 0; i < warm; i++ {
		fn(i)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return pointOpResult{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		Ops:         n,
	}
}

func benchWarmLookup() pointOpResult {
	tr, err := btree.Open(storage.NewMemDisk(), btree.Hybrid, btree.Options{Obs: benchRec})
	if err != nil {
		fatal(err)
	}
	const n = 10000
	key := make([]byte, 4)
	value := []byte("v00000000")
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(key, uint32(i))
		if err := tr.Insert(key, value); err != nil {
			fatal(err)
		}
	}
	dst := make([]byte, 0, 64)
	// Warm the descent pools and the buffer pool.
	for i := 0; i < 1000; i++ {
		binary.BigEndian.PutUint32(key, uint32(i%n))
		if _, err := tr.LookupInto(key, dst[:0]); err != nil {
			fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(*seed))
	return measureOps(200000, 100, func(i int) {
		binary.BigEndian.PutUint32(key, uint32(rng.Intn(n)))
		if _, err := tr.LookupInto(key, dst[:0]); err != nil {
			fatal(err)
		}
	})
}

func benchNoSplitInsert() pointOpResult {
	// Inserts are measured in rounds small enough that no measured insert
	// splits a leaf: each round starts a fresh tree, warms it past root
	// creation, and measures 300 inserts into a leaf that holds ~450.
	const (
		rounds  = 200
		warmup  = 8
		perLeaf = 300
	)
	var total pointOpResult
	key := make([]byte, 4)
	value := []byte("v00000000")
	for r := 0; r < rounds; r++ {
		tr, err := btree.Open(storage.NewMemDisk(), btree.Hybrid, btree.Options{Obs: benchRec})
		if err != nil {
			fatal(err)
		}
		next := uint32(0)
		res := measureOps(perLeaf, warmup, func(int) {
			binary.BigEndian.PutUint32(key, next)
			next++
			if err := tr.Insert(key, value); err != nil {
				fatal(err)
			}
		})
		total.NsPerOp += res.NsPerOp
		total.AllocsPerOp += res.AllocsPerOp
		total.Ops += res.Ops
	}
	total.NsPerOp /= rounds
	total.AllocsPerOp /= rounds
	return total
}

func benchDurableMixed() batchResult {
	const (
		goroutines = 8
		batchSize  = 64
		perG       = 512 // ops per goroutine per side, half lookups
		nKeys      = 20000
	)
	lat := *ioLat
	if lat == 0 {
		lat = 100 * time.Microsecond
	}
	run := func(batched bool) float64 {
		disk := storage.NewMemDisk()
		tr, err := btree.Open(disk, btree.Hybrid, btree.Options{PoolSize: 256, Obs: benchRec})
		if err != nil {
			fatal(err)
		}
		value := []byte("v00000000")
		for i := 0; i < nKeys; i++ {
			if err := tr.Insert(benchKey(i, 0), value); err != nil {
				fatal(err)
			}
		}
		if err := tr.Sync(); err != nil {
			fatal(err)
		}
		disk.SetLatency(lat, lat)
		defer disk.SetLatency(0, 0)

		var wg sync.WaitGroup
		var failed atomic.Bool
		start := time.Now()
		for w := 0; w < goroutines; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(*seed + int64(w)*7919))
				keys := make([][]byte, 0, batchSize)
				values := make([][]byte, 0, batchSize)
				flush := func() bool {
					if len(keys) == 0 {
						return true
					}
					if err := tr.InsertBatch(keys, values); err != nil && !errors.Is(err, btree.ErrDuplicateKey) {
						fmt.Fprintln(os.Stderr, err)
						failed.Store(true)
						return false
					}
					keys, values = keys[:0], values[:0]
					if err := tr.Sync(); err != nil {
						fmt.Fprintln(os.Stderr, err)
						failed.Store(true)
						return false
					}
					return true
				}
				for i := 0; i < perG; i++ {
					if i%2 == 0 {
						if _, err := tr.Lookup(benchKey(rng.Intn(nKeys), 0)); err != nil {
							fmt.Fprintln(os.Stderr, err)
							failed.Store(true)
							return
						}
						continue
					}
					k := benchKey(rng.Intn(nKeys), 1+rng.Uint32())
					if batched {
						keys = append(keys, k)
						values = append(values, value)
						if len(keys) == batchSize && !flush() {
							return
						}
						continue
					}
					// Single-op durable baseline: every insert syncs.
					err := tr.Insert(k, value)
					if err != nil && !errors.Is(err, btree.ErrDuplicateKey) {
						fmt.Fprintln(os.Stderr, err)
						failed.Store(true)
						return
					}
					if err := tr.Sync(); err != nil {
						fmt.Fprintln(os.Stderr, err)
						failed.Store(true)
						return
					}
				}
				if batched {
					flush()
				}
			}(w)
		}
		wg.Wait()
		if failed.Load() {
			os.Exit(1)
		}
		return float64(goroutines*perG) / time.Since(start).Seconds()
	}
	single := run(false)
	batchedRate := run(true)
	return batchResult{
		Goroutines:      goroutines,
		IOLatUS:         lat.Microseconds(),
		BatchSize:       batchSize,
		SingleOpsPerSec: single,
		BatchOpsPerSec:  batchedRate,
		Speedup:         batchedRate / single,
	}
}

func benchScanEviction() evictionResult {
	const (
		poolFrames = 256  // 16 stripes of 16: the segmented policy engages
		hotPages   = 32   // 2 per stripe: comfortably inside the protected cap
		scanPages  = 2560 // 10x the pool in one-shot reads
	)
	prime := func() *storage.MemDisk {
		d := storage.NewMemDisk()
		img := page.New()
		img.Init(page.TypeLeaf, 0)
		for no := storage.PageNo(0); no < storage.PageNo(hotPages+64+512+scanPages); no++ {
			img.SetSyncToken(uint64(no))
			if err := d.WritePage(no, img); err != nil {
				fatal(err)
			}
		}
		if err := d.Sync(); err != nil {
			fatal(err)
		}
		return d
	}
	run := func(legacy bool) float64 {
		p := buffer.NewPool(prime(), poolFrames)
		if legacy {
			p.SetLegacyEviction(true)
		}
		touch := func(no storage.PageNo) bool {
			h0, _ := p.Stats()
			f, err := p.Get(no)
			if err != nil {
				fatal(err)
			}
			f.Unpin()
			h1, _ := p.Stats()
			return h1 > h0
		}
		// Phase one: the hot set earns residence — dense re-references
		// under moderate eviction pressure, so the segmented sweep
		// observes reuse on distinct encounters and promotes the frames
		// into the protected segment.
		scanNo := storage.PageNo(hotPages + 64)
		for i := 0; i < 1024; i++ {
			touch(storage.PageNo(i % hotPages))
			if i%2 == 0 {
				touch(scanNo)
				touch(scanNo)
				scanNo++
			}
		}
		// Phase two: the scan burst. Each scan page is read twice in quick
		// succession — the correlated double reference of a real scan
		// (heap fetch + index revisit) — so the plain clock grants every
		// scan page a second chance. The hot set is re-referenced only
		// sparsely now, at an interval longer than the clock's revolution:
		// the legacy policy evicts it, while the protected segment —
		// which one-shot pages never enter — keeps serving it.
		hotHits, hotAccesses := 0, 0
		for i := 0; i < scanPages; i++ {
			touch(scanNo)
			touch(scanNo)
			scanNo++
			if i%16 == 15 {
				hotAccesses++
				if touch(storage.PageNo(i / 16 % hotPages)) {
					hotHits++
				}
			}
		}
		return float64(hotHits) / float64(hotAccesses)
	}
	twoQ := run(false)
	legacy := run(true)
	return evictionResult{
		PoolFrames:    poolFrames,
		HotPages:      hotPages,
		ScanPages:     scanPages,
		TwoQHitRate:   twoQ,
		LegacyHitRate: legacy,
		Improvement:   twoQ / legacy,
	}
}
