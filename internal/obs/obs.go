// Package obs is the recovery-event observability layer: typed counters,
// log2-bucket duration histograms, and a bounded in-memory event ring that
// records which §3.3/§3.4 repair paths actually ran. The existing crash
// suites assert end-state correctness; a Recorder lets them also assert
// coverage — "case (c) fired N>0 times" — so a regression that silently
// stops exercising a repair path fails loudly.
//
// Every method on *Recorder is nil-safe: a nil Recorder is the disabled
// state, and the fast path is a single pointer test. Hot paths (latch
// retries, peer-chase hops) use Count, which does no allocation even when
// enabled; Eventf, which formats a detail string and appends to the ring,
// is reserved for cold recovery paths.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Metric identifies one typed counter. Recovery metrics follow the paper's
// taxonomy: RepairShadow is the §3.3 prevPtr re-copy, RepairReorgA..E are
// the five §3.4 interrupted-split outcomes, and the Inject* metrics mark
// fault-disk injections so a trace pairs each cause with its repair.
type Metric uint8

const (
	// Recovery repairs (§3.3, §3.4).
	RepairRoot       Metric = iota // root re-created from prevRoot or folded in place (§3.3.2)
	RepairShadow                   // child re-copied from its prevPtr shadow (§3.3)
	RepairIntraPage                // duplicate line-table entries discarded (§3.2)
	RepairPeer                     // leaf peer chain re-verified and re-linked (§3.5.1)
	RepairReorgA                   // §3.4 (a): only P_a durable; backups folded back
	RepairReorgB                   // §3.4 (b): P_a and P_b durable, parent not
	RepairReorgC                   // §3.4 (c): split partner regenerated from backups
	RepairReorgD                   // §3.4 (d): pre-split image found at P_a's location
	RepairReorgE                   // §3.4 (e): only the parent durable; split repeated
	RepairEntryDrop                // no durable source for a child; entry removed
	RepairHashBucket               // exthash bucket rebuilt from its prev pointer
	RepairHashDir                  // exthash directory chunk rebuilt from prev dir
	RepairRTreeRedo                // rtree interrupted split redone from parent MBRs

	// Backup-key lifecycle (§3.4 reclaim cases).
	BackupReclaim // backup keys discarded: split family durable
	BackupHold    // backup keys retained: family not yet durable
	BlockedSync   // writer blocked on a forced sync (reclaim case 1)

	// Structure modifications.
	SplitStart
	SplitCommit
	RootSplit
	MergeStart
	MergeCommit

	// Shared-mode concurrency (§3.5/§3.6).
	LatchRetry        // shared descent restarted (split in flight, version bump)
	ChaseHop          // token-verified right-link chase (§3.5.1)
	ExclusiveFallback // shared path gave up; operation re-ran exclusively

	// Buffer pool and disk.
	ZeroRoute   // damaged read routed to the zeroed never-durable image
	TornRepair  // previously zero-routed page rewritten with valid contents
	EvictClean  // clean frame evicted under pool pressure
	EvictDirty  // dirty frame written back to make room
	FlushPage   // page written by a dirty-page flush
	FlushHelper // helper goroutine started by a flush larger than one worker's share

	// Fault-disk injections (cause side of the cause/repair pairing).
	InjectTransient
	InjectBitRot
	InjectTorn
	InjectBadSector

	// Degraded mode: quarantine, health, and the repair supervisor.
	RetryExhausted    // bounded I/O retry loop gave up on a sector
	QuarantinePage    // page quarantined after repair could not produce a sane image
	QuarantineRelease // page left quarantine (healed, superseded, or abandoned)
	ScanSkip          // range scan skipped a quarantined subtree (skip-and-report)
	SupervisorRepair  // background supervisor healed a quarantined page
	SupervisorFail    // background supervisor attempt failed; entry re-queued
	RepairRebuild     // leaf abandoned and rebuilt from the heap relation
	HealthTransition  // DB health-state machine changed state

	// Group commit (internal/txn) and the background flush daemon.
	CommitBatch    // one commit batch: a single status append served >= 1 txns
	CommitTxn      // transactions entering the commit path (batched or not)
	CommitSyncSkip // a batch member's force coalesced onto an already-run sync
	CommitFail     // a commit aborted by a force or status-write failure
	CommitFanout   // a batch force fanned out over >1 sync domains in parallel
	FlushDaemon    // background checkpoint pass flushed the DB's dirty pages

	// Sharded multi-index router (internal/shard).
	ShardRecover // one shard finished its post-crash recovery sweep
	ShardScan    // one cross-shard merged range scan served by the router

	// Hot-path pass: 2Q eviction segments and the batched write API.
	EvictPromote // probationary frame promoted to the protected segment
	EvictDemote  // protected frame demoted back to probationary
	BatchPut     // keys applied through the batched insert path
	BatchLeafRun // same-leaf runs applied under one leaf latch

	// Bottom-up bulk load and wholesale rebuild-from-heap.
	LoadLeaf    // leaf page packed and written by the bulk loader
	LoadLevel   // parent level completed by the bulk loader
	RebuildRun  // wholesale rebuild (bulk replace) started
	RebuildKeys // keys fed into a wholesale rebuild
	RebuildSwap // rebuilt root published over the old structure

	numMetrics
)

var metricNames = [numMetrics]string{
	RepairRoot:        "repair.root",
	RepairShadow:      "repair.shadow",
	RepairIntraPage:   "repair.intra",
	RepairPeer:        "repair.peer",
	RepairReorgA:      "repair.reorg.a",
	RepairReorgB:      "repair.reorg.b",
	RepairReorgC:      "repair.reorg.c",
	RepairReorgD:      "repair.reorg.d",
	RepairReorgE:      "repair.reorg.e",
	RepairEntryDrop:   "repair.entrydrop",
	RepairHashBucket:  "repair.hash.bucket",
	RepairHashDir:     "repair.hash.dir",
	RepairRTreeRedo:   "repair.rtree.redo",
	BackupReclaim:     "backup.reclaim",
	BackupHold:        "backup.hold",
	BlockedSync:       "sync.blocked",
	SplitStart:        "split.start",
	SplitCommit:       "split.commit",
	RootSplit:         "split.root",
	MergeStart:        "merge.start",
	MergeCommit:       "merge.commit",
	LatchRetry:        "latch.retry",
	ChaseHop:          "chase.hop",
	ExclusiveFallback: "latch.fallback",
	ZeroRoute:         "io.zeroroute",
	TornRepair:        "io.tornrepair",
	EvictClean:        "pool.evict.clean",
	EvictDirty:        "pool.evict.dirty",
	FlushPage:         "pool.flush.page",
	FlushHelper:       "pool.flush.helper",
	InjectTransient:   "inject.transient",
	InjectBitRot:      "inject.bitrot",
	InjectTorn:        "inject.torn",
	InjectBadSector:   "inject.badsector",
	RetryExhausted:    "retry.exhausted",
	QuarantinePage:    "quarantine.page",
	QuarantineRelease: "quarantine.release",
	ScanSkip:          "scan.skip",
	SupervisorRepair:  "supervisor.repair",
	SupervisorFail:    "supervisor.fail",
	RepairRebuild:     "repair.rebuild",
	HealthTransition:  "health.transition",
	CommitBatch:       "commit.batch",
	CommitTxn:         "commit.txn",
	CommitSyncSkip:    "commit.sync.skipped",
	CommitFail:        "commit.fail",
	CommitFanout:      "commit.fanout",
	FlushDaemon:       "flush.daemon",
	ShardRecover:      "shard.recover",
	ShardScan:         "shard.scan",
	EvictPromote:      "pool.evict.promote",
	EvictDemote:       "pool.evict.demote",
	BatchPut:          "batch.put",
	BatchLeafRun:      "batch.leafrun",
	LoadLeaf:          "load.leaf",
	LoadLevel:         "load.level",
	RebuildRun:        "rebuild.run",
	RebuildKeys:       "rebuild.keys",
	RebuildSwap:       "rebuild.swap",
}

func (m Metric) String() string {
	if int(m) < len(metricNames) && metricNames[m] != "" {
		return metricNames[m]
	}
	return fmt.Sprintf("metric(%d)", uint8(m))
}

// RepairMetrics lists every counter that marks an actual repair having run.
// Tests use it to assert "no repairs happened" on quiescent runs and
// "coverage complete" after crash enumeration.
var RepairMetrics = []Metric{
	RepairRoot, RepairShadow, RepairIntraPage, RepairPeer,
	RepairReorgA, RepairReorgB, RepairReorgC, RepairReorgD, RepairReorgE,
	RepairEntryDrop, RepairHashBucket, RepairHashDir, RepairRTreeRedo,
}

// Timer identifies one duration histogram.
type Timer uint8

const (
	TSyncFlush   Timer = iota // index sync: flush + token advance
	TFlushDirty               // buffer-pool dirty-page flush
	TCommit                   // whole commit as seen by one committer (queue + force + status)
	TStatusWrite              // durable status-table append (leader only)
	numTimers
)

var timerNames = [numTimers]string{
	TSyncFlush:   "sync.flush",
	TFlushDirty:  "pool.flush",
	TCommit:      "commit.latency",
	TStatusWrite: "commit.status",
}

func (t Timer) String() string {
	if int(t) < len(timerNames) && timerNames[t] != "" {
		return timerNames[t]
	}
	return fmt.Sprintf("timer(%d)", uint8(t))
}

// histBuckets covers 1ns..2^41ns (~36min) in log2 steps; the last bucket
// absorbs anything longer.
const histBuckets = 42

type histogram struct {
	count   atomic.Uint64
	totalNs atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

func (h *histogram) observe(d time.Duration) {
	ns := uint64(max64(d.Nanoseconds(), 0))
	i := bits.Len64(ns) // 0 for 0ns, 1 for 1ns, ...
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.count.Add(1)
	h.totalNs.Add(ns)
	h.buckets[i].Add(1)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Event is one entry in the bounded ring. Seq is a per-recorder monotonic
// sequence number, so timelines are deterministic under a fixed schedule —
// no wall-clock times, which keeps golden-trace tests stable.
type Event struct {
	Seq    uint64 `json:"seq"`
	Kind   string `json:"kind"`
	Page   uint32 `json:"page"`
	Detail string `json:"detail,omitempty"`
}

// DefaultRingCap bounds the event ring when New is called with cap <= 0.
const DefaultRingCap = 4096

// Recorder accumulates counters, histograms, and events. The zero value is
// NOT usable; construct with New. A nil *Recorder is the disabled state and
// every method on it is a cheap no-op.
type Recorder struct {
	counters [numMetrics]atomic.Uint64
	timers   [numTimers]histogram

	mu      sync.Mutex
	ring    []Event // circular once full
	start   int     // index of oldest event
	n       int     // live events in ring
	seq     uint64
	dropped uint64
}

// New returns a Recorder whose event ring holds at most ringCap events
// (DefaultRingCap if ringCap <= 0). Oldest events are dropped first.
func New(ringCap int) *Recorder {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Recorder{ring: make([]Event, 0, ringCap)}
}

// Count increments a counter. Safe on a nil Recorder (single branch).
func (r *Recorder) Count(m Metric) {
	if r == nil {
		return
	}
	r.counters[m].Add(1)
}

// CountN adds n to a counter.
func (r *Recorder) CountN(m Metric, n uint64) {
	if r == nil {
		return
	}
	r.counters[m].Add(n)
}

// Eventf increments the counter for m and appends a formatted event to the
// ring. Reserved for cold paths: the format arguments are evaluated and
// boxed by the caller even when r is nil.
func (r *Recorder) Eventf(m Metric, pageNo uint32, format string, args ...any) {
	if r == nil {
		return
	}
	r.counters[m].Add(1)
	detail := format
	if len(args) > 0 {
		detail = fmt.Sprintf(format, args...)
	}
	r.mu.Lock()
	r.seq++
	ev := Event{Seq: r.seq, Kind: m.String(), Page: pageNo, Detail: detail}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
		r.n++
	} else {
		r.ring[r.start] = ev
		r.start = (r.start + 1) % len(r.ring)
		r.dropped++
	}
	r.mu.Unlock()
}

// Observe records one duration sample into timer t's histogram.
func (r *Recorder) Observe(t Timer, d time.Duration) {
	if r == nil {
		return
	}
	r.timers[t].observe(d)
}

// Get returns the current value of a counter (0 on a nil Recorder).
func (r *Recorder) Get(m Metric) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[m].Load()
}

// RepairTotal sums every repair-labelled counter.
func (r *Recorder) RepairTotal() uint64 {
	if r == nil {
		return 0
	}
	var total uint64
	for _, m := range RepairMetrics {
		total += r.counters[m].Load()
	}
	return total
}

// Events returns a copy of the ring, oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		out = append(out, r.ring[(r.start+i)%len(r.ring)])
	}
	return out
}

// TimerStats is one histogram's summary.
type TimerStats struct {
	Count   uint64 `json:"count"`
	TotalNs uint64 `json:"total_ns"`
	// Buckets[i] counts samples with 2^(i-1) <= ns < 2^i (Buckets[0] is
	// exactly 0ns); trailing zero buckets are trimmed.
	Buckets []uint64 `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every non-zero counter and timer,
// plus the event ring. It is the JSON export schema and the expvar value.
type Snapshot struct {
	Counters map[string]uint64     `json:"counters"`
	Timers   map[string]TimerStats `json:"timers,omitempty"`
	Events   []Event               `json:"events,omitempty"`
	Dropped  uint64                `json:"dropped_events,omitempty"`
}

// Snapshot captures the recorder's current state. Nil-safe (empty snapshot).
func (r *Recorder) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]uint64{}}
	if r == nil {
		return s
	}
	for m := Metric(0); m < numMetrics; m++ {
		if v := r.counters[m].Load(); v != 0 {
			s.Counters[m.String()] = v
		}
	}
	for t := Timer(0); t < numTimers; t++ {
		h := &r.timers[t]
		c := h.count.Load()
		if c == 0 {
			continue
		}
		ts := TimerStats{Count: c, TotalNs: h.totalNs.Load()}
		last := -1
		var buckets [histBuckets]uint64
		for i := 0; i < histBuckets; i++ {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] != 0 {
				last = i
			}
		}
		ts.Buckets = append(ts.Buckets, buckets[:last+1]...)
		if s.Timers == nil {
			s.Timers = map[string]TimerStats{}
		}
		s.Timers[t.String()] = ts
	}
	s.Events = r.Events()
	r.mu.Lock()
	s.Dropped = r.dropped
	r.mu.Unlock()
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

var published sync.Map // name -> struct{}; expvar.Publish panics on reuse

// Publish registers the recorder's live snapshot under name in the expvar
// registry (served at /debug/vars by net/http). Publishing the same name
// twice is a no-op, since expvar panics on duplicates.
func (r *Recorder) Publish(name string) {
	if r == nil {
		return
	}
	if _, loaded := published.LoadOrStore(name, struct{}{}); loaded {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
