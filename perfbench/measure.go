package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
)

// --- samples ---------------------------------------------------------------

// samples collects durations, in microseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e3) }

// quantile is the nearest-rank q-quantile, 0 for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	i := int(q*float64(len(c))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(c) {
		i = len(c) - 1
	}
	return c[i]
}

func (s samples) median() float64 { return s.quantile(0.5) }

// tailBlock is the sample count of one block in tail: 1,000 samples leave
// ten beyond a p99.
const tailBlock = 1000

// tail is the median, over consecutive blocks of tailBlock samples, of
// each block's q-quantile. A burst of outside load that slows one block
// moves a pooled p99 a long way but this median hardly at all.
func (s samples) tail(q float64) float64 {
	if len(s) < 2*tailBlock {
		return s.quantile(q)
	}
	var per samples
	for lo := 0; lo+tailBlock <= len(s); lo += tailBlock {
		per = append(per, s[lo:lo+tailBlock].quantile(q))
	}
	return per.median()
}

// --- tracing ---------------------------------------------------------------

// Span is one timed call from the benchmark into a layer. Spans of one
// request (a client operation, a transaction, a crash cycle) share Req;
// Parent is the enclosing span's ID, 0 at the top.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxKeptSpans bounds the spans kept for the trace file; durations of every
// span still feed the per-name medians.
const maxKeptSpans = 200000

// tracer keeps spans in memory and writes them out when the run ends. When
// off, every method is a no-op, so untraced runs pay one branch per call.
type tracer struct {
	on     bool
	t0     time.Time
	mu     sync.Mutex
	nextID int64
	spans  []Span
	byName map[string]samples
	count  int
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, t0: time.Now(), byName: make(map[string]samples)}
}

// id reserves a span ID, so children can name their parent before it ends.
func (t *tracer) id() int64 {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if !t.on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.count++
	s := t.byName[name]
	s.add(end.Sub(start))
	t.byName[name] = s
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, Span{ID: id, Parent: parent, Req: req, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	}
}

// span records a leaf span around fn.
func (t *tracer) span(parent, req int64, name string, fn func()) {
	if !t.on {
		fn()
		return
	}
	id := t.id()
	start := time.Now()
	fn()
	t.add(id, parent, req, name, start, time.Now())
}

// write stores the kept spans and the run's counter deltas as JSON lines.
func (t *tracer) write(path string, deltas any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := enc.Encode(map[string]any{"counter_deltas": deltas}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- counters --------------------------------------------------------------

// counters is a flat view of every public counter the engine exports:
// obs counters and timers (DB.Metrics), the buffer cache (DB.CacheStats),
// I/O fault handling (DB.IOStats), per-file device counts (MemoryDisks),
// and the B-link trees' operation counters (Tree().Stats). Per-layer
// metrics are differences of two snapshots taken around a phase.
type counters map[string]float64

func snapshot(db *core.DB, store core.Storage) counters {
	c := counters{}
	m := db.Metrics()
	for k, v := range m.Counters {
		c["obs."+k] = float64(v)
	}
	for k, t := range m.Timers {
		c["timer."+k+".count"] = float64(t.Count)
		c["timer."+k+".ns"] = float64(t.TotalNs)
	}
	cs := db.CacheStats()
	c["cache.hits"] = float64(cs.Hits)
	c["cache.misses"] = float64(cs.Misses)
	c["io.retries"] = float64(db.IOStats().Retries)
	for name, d := range core.MemoryDisks(store) {
		writes, syncs, _ := d.Stats()
		c["disk."+name+".writes"] += float64(writes)
		c["disk.writes"] += float64(writes)
		c["disk.syncs"] += float64(syncs)
	}
	for _, t := range trees(db) {
		c["tree.inserts"] += float64(t.Stats.Inserts.Load())
		c["tree.splits"] += float64(t.Stats.Splits.Load())
		c["tree.range_checks"] += float64(t.Stats.RangeChecks.Load())
	}
	return c
}

// trees lists every B-link tree of db, sharded or not.
func trees(db *core.DB) []*btree.Tree {
	var out []*btree.Tree
	for _, ix := range db.Indexes() {
		out = append(out, ix.Tree())
	}
	for _, six := range db.ShardedIndexes() {
		for i := 0; i < six.Shards(); i++ {
			out = append(out, six.Tree(i))
		}
	}
	return out
}

// addDelta accumulates after-before into c.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// filePages returns each file's size in pages (control, rel_*, idx_*).
func filePages(store core.Storage) map[string]int {
	out := map[string]int{}
	for name, d := range core.MemoryDisks(store) {
		out[name] = int(d.NumPages())
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// timerMeanUs is an obs timer's mean over the counted window.
func (c counters) timerMeanUs(name string) float64 {
	return ratio(c["timer."+name+".ns"], c["timer."+name+".count"]) / 1e3
}

// recCounters snapshots a recorder's counters alone, for phases that span
// a DB reopen.
func recCounters(rec *obs.Recorder) counters {
	c := counters{}
	for k, v := range rec.Snapshot().Counters {
		c["obs."+k] = float64(v)
	}
	return c
}

// treeHeight is the tallest B-link tree of db.
func treeHeight(db *core.DB) int {
	h := 0
	for _, t := range trees(db) {
		if th, err := t.Height(); err == nil && th > h {
			h = th
		}
	}
	return h
}

// countEntries counts an index's entries, live or dead.
func countEntries(ix core.KVIndex) (int, error) {
	n := 0
	err := ix.Scan(nil, nil, func([]byte, heap.TID) bool { n++; return true })
	return n, err
}

// spaceAmp is the bytes of every file divided by the user bytes stored.
func spaceAmp(store core.Storage, userBytes int) float64 {
	pages := 0
	for _, p := range filePages(store) {
		pages += p
	}
	return float64(pages) * page.Size / float64(userBytes)
}

// sortedDisks names a Memory() store's files in order, so a seeded crash
// picks the same pages on every run.
func sortedDisks(store core.Storage) []string {
	var names []string
	for name := range core.MemoryDisks(store) {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// countFreePages is the number of pages on every tree's freelist.
func countFreePages(db *core.DB) int {
	n := 0
	for _, t := range trees(db) {
		n += t.Freelist().Len()
	}
	return n
}
