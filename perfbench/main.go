// Command perfbench is the repository's benchmark. It runs one workload
// against the storage engine on in-memory devices with no simulated
// latency, checks every answer, and prints one JSON result line:
//
//	perfbench --workload kv-serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// it holds the per-layer metrics, and the spans and counter deltas are
// written under --trace-dir. NOTES.md explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// workload is one benchmark input set. A run repeats cycle until the
// measured time is spent and at least minCycles cycles have run.
type workload struct {
	minCycles int
	cycle     func(r *run, cycle int) error
	// extra lists the workload's own end-to-end names, printed as
	// information above the result line.
	extra func(r *run) []metric
}

var workloads = map[string]workload{
	"kv-serve":      {minCycles: 3, cycle: kvServeCycle, extra: kvServeExtra},
	"ingest-append": {minCycles: 5, cycle: ingestCycle, extra: ingestExtra},
	"crash-restart": {minCycles: 20, cycle: crashCycle, extra: crashExtra},
}

// run accumulates one benchmark run's measurements across cycles.
type run struct {
	seed int64
	tr   *tracer

	mu      sync.Mutex
	setup   samples // set-up time of each cycle
	read    samples // the workload's point reads
	write   samples // the workload's durable writes
	restart samples // core.Open to the first answered read
	recov   samples // the recovery sweep
	amp     []float64
	kind    map[string]samples // latencies by operation kind
	ops     int64              // operations of the measured phases
	opsTime time.Duration      // time those operations took
	rates   []float64          // ops/s of each measured block; ops_per_s is their median

	// Per-layer state. win covers the phase ops_per_s counts, cyc the
	// whole cycle up to the crash or shutdown, rec restart plus recovery.
	win, cyc, rec counters
	height        int
	freePages     int
	pages         map[string]int
	entriesPerKey samples
	shardWall     samples
	shardSkew     []float64
	tracedOps     [2]int64
	tracedOpsTime [2]time.Duration
	reqID         int64
	attempted     int64
	failed        int64
	wrong         int64
	wrongMessages []string
}

func newRun(seed int64, trace bool) *run {
	return &run{
		seed: seed,
		tr:   newTracer(trace),
		kind: make(map[string]samples),
		win:  counters{}, cyc: counters{}, rec: counters{},
	}
}

// measured records ops operations that took d, split by whether the
// cycle was traced, for the tracing-overhead metric.
func (r *run) measured(ops int64, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops += ops
	r.opsTime += d
	i := 0
	if r.tr.on {
		i = 1
	}
	r.tracedOps[i] += ops
	r.tracedOpsTime[i] += d
}

// rate records the throughput of one measured block.
func (r *run) rate(opsPerSec float64) {
	r.mu.Lock()
	r.rates = append(r.rates, opsPerSec)
	r.mu.Unlock()
}

func (r *run) attempt(n int64) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// failOps counts operations the engine refused (an error reply).
func (r *run) failOps(n int64) {
	r.mu.Lock()
	r.failed += n
	r.mu.Unlock()
}

// wrongf counts a wrong answer; any wrong answer fails the run.
func (r *run) wrongf(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.wrong++
	if len(r.wrongMessages) < 10 {
		r.wrongMessages = append(r.wrongMessages, fmt.Sprintf(format, args...))
	}
}

// newReq numbers a traced request; untraced runs skip the lock.
func (r *run) newReq() int64 {
	if !r.tr.on {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reqID++
	return r.reqID
}

type metric struct {
	name  string
	value float64
	unit  string
	n     int // sample count, 0 when not a sampled timing
}

func (r *run) endToEnd() []metric {
	amp := samples(r.amp)
	return []metric{
		{"setup_s", r.setup.median() / 1e6, "s", len(r.setup)},
		{"ops_per_s", samples(r.rates).median(), "1/s", len(r.rates)},
		{"read_p50_us", r.read.median(), "us", len(r.read)},
		{"read_p90_us", r.read.tail(0.90), "us", len(r.read)},
		{"write_p50_us", r.write.median(), "us", len(r.write)},
		{"write_p90_us", r.write.tail(0.90), "us", len(r.write)},
		{"restart_ms", r.restart.median() / 1e3, "ms", len(r.restart)},
		{"recover_ms", r.recov.median() / 1e3, "ms", len(r.recov)},
		{"space_amp", amp.median(), "ratio", len(amp)},
	}
}

func (r *run) perLayer() []metric {
	ops := float64(r.ops)
	win, cyc, rec := r.win, r.cyc, r.rec
	us := func(name string) metric {
		s := r.tr.byName[name]
		return metric{value: s.median(), unit: "us", n: len(s)}
	}
	named := func(name string, m metric) metric { m.name = name; return m }
	val := func(name string, v float64, unit string) metric { return metric{name: name, value: v, unit: unit} }
	overhead := 0.0
	if r.tracedOps[0] > 0 && r.tracedOps[1] > 0 {
		plain := float64(r.tracedOps[0]) / r.tracedOpsTime[0].Seconds()
		traced := float64(r.tracedOps[1]) / r.tracedOpsTime[1].Seconds()
		overhead = 100 * (plain - traced) / plain
	}
	skew := samples(r.shardSkew)
	return []metric{
		named("server.rtt_us.get", us("server.get")),
		named("server.rtt_us.put", us("server.put")),
		named("server.rtt_us.mput", us("server.mput")),
		named("server.rtt_us.scan", us("server.scan")),
		named("core.heap_insert_us", us("core.heap_insert")),
		named("core.insert_batch_us", us("core.insert_batch")),
		val("core.index_entries_per_live_key", r.entriesPerKey.median(), "ratio"),
		val("txn.commit_us", cyc.timerMeanUs("commit.latency"), "us"),
		val("txn.txns_per_batch", ratio(cyc["obs.commit.txn"], cyc["obs.commit.batch"]), "ratio"),
		val("txn.status_write_us", cyc.timerMeanUs("commit.status"), "us"),
		val("txn.commit_fail", cyc["obs.commit.fail"], "count"),
		val("btree.splits_per_1k_keys", 1000*ratio(cyc["tree.splits"], cyc["tree.inserts"]), "count"),
		val("btree.range_checks_per_op", ratio(win["tree.range_checks"], ops), "count"),
		val("btree.chase_hops_per_op", ratio(win["obs.chase.hop"], ops), "count"),
		val("btree.latch_retries_per_op", ratio(win["obs.latch.retry"], ops), "count"),
		val("btree.latch_fallbacks_per_op", ratio(win["obs.latch.fallback"], ops), "count"),
		val("btree.height", float64(r.height), "count"),
		val("btree.repairs.shadow", rec["obs.repair.shadow"], "count"),
		val("btree.repairs.intra", rec["obs.repair.intra"], "count"),
		val("btree.repairs.peer", rec["obs.repair.peer"], "count"),
		val("btree.repairs.root", rec["obs.repair.root"], "count"),
		val("freelist.free_pages", float64(r.freePages), "count"),
		val("buffer.hit_rate", ratio(win["cache.hits"], win["cache.hits"]+win["cache.misses"]), "ratio"),
		val("buffer.misses_per_op", ratio(win["cache.misses"], ops), "count"),
		val("buffer.evict_clean_per_op", ratio(win["obs.pool.evict.clean"], ops), "count"),
		val("buffer.evict_dirty_per_op", ratio(win["obs.pool.evict.dirty"], ops), "count"),
		val("buffer.promotions", win["obs.pool.evict.promote"], "count"),
		val("buffer.flush_us", cyc.timerMeanUs("pool.flush"), "us"),
		val("storage.writes_per_op", ratio(win["disk.writes"], ops), "count"),
		val("storage.syncs_per_txn", ratio(cyc["disk.syncs"], cyc["obs.commit.txn"]), "count"),
		val("storage.pages.rel", float64(sumPages(r.pages, "rel_")), "count"),
		val("storage.pages.idx", float64(sumPages(r.pages, "idx_")), "count"),
		val("storage.pages.control", float64(sumPages(r.pages, "control")), "count"),
		val("storage.sync_flush_us", cyc.timerMeanUs("sync.flush"), "us"),
		val("shard.recover_wall_ms", r.shardWall.median()/1e3, "ms"),
		val("shard.recover_max_over_min", skew.median(), "ratio"),
		val("trace.overhead_pct", overhead, "%"),
	}
}

func sumPages(pages map[string]int, prefix string) int {
	n := 0
	for name, p := range pages {
		if strings.HasPrefix(name, prefix) {
			n += p
		}
	}
	return n
}

type resultLine struct {
	Correct   bool                       `json:"correct"`
	Attempted int64                      `json:"attempted"`
	Failed    int64                      `json:"failed"`
	Metrics   map[string]json.RawMessage `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "kv-serve, ingest-append or crash-restart")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "where a traced run writes its spans")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1>\n",
			strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	// A cycle's working set is a few megabytes, so the default GC target
	// collects about a hundred times a second and its pauses set every
	// tail latency; a serving process holds its pools and collects far
	// less often. A fixed, larger target keeps the runs comparable.
	debug.SetGCPercent(400)
	r := newRun(*seed, *trace == 1)
	start := time.Now()
	cycles := 0
	for cycles < w.minCycles || time.Since(start) < time.Duration(*seconds)*time.Second {
		// A traced run alternates traced and untraced cycles, so the
		// tracing overhead is measured under the same conditions.
		r.tr.on = *trace == 1 && cycles%2 == 0
		runtime.GC() // start every cycle from the same collected heap
		if err := w.cycle(r, cycles); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s cycle %d: %v\n", *name, cycles, err)
			os.Exit(1)
		}
		cycles++
	}
	r.tr.on = *trace == 1

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d cycles=%d wall=%.1fs nproc=%d %s\n",
		*name, *seed, *seconds, *trace, cycles, time.Since(start).Seconds(), runtime.NumCPU(), runtime.Version())
	var out []metric
	if *trace == 1 {
		out = r.perLayer()
		path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		deltas := map[string]counters{"window": r.win, "cycle": r.cyc, "restart_recover": r.rec}
		if err := r.tr.write(path, deltas); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  trace: %d spans (%d kept) -> %s\n", r.tr.count, len(r.tr.spans), path)
	} else {
		out = r.endToEnd()
		for _, m := range w.extra(r) {
			printMetric(m)
		}
		printMetric(metric{"read_p99_us", r.read.tail(0.99), "us", len(r.read)})
		printMetric(metric{"write_p99_us", r.write.tail(0.99), "us", len(r.write)})
		printMetric(metric{"failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio", int(r.attempted)})
		fmt.Println("  --")
	}
	res := resultLine{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]json.RawMessage{}}
	for _, m := range out {
		printMetric(m)
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit})
		res.Metrics[m.name] = b
	}
	for _, msg := range r.wrongMessages {
		fmt.Fprintf(os.Stderr, "perfbench: wrong answer: %s\n", msg)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if r.wrong > 0 || r.attempted == 0 {
		os.Exit(1)
	}
}

func printMetric(m metric) {
	if m.n > 0 {
		fmt.Printf("  %-34s %14.4f %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	} else {
		fmt.Printf("  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
