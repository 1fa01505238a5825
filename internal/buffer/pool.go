// Package buffer implements the DBMS buffer pool.
//
// Frames hold page images, carry pin counts and per-frame read/write
// latches (the locks of the Lehman-Yao protocol in §3.6), and track
// dirtiness. SyncAll hands every dirty page to the storage layer and then
// issues the unordered sync of §2; the pool keeps a list of the frames
// dirtied since the last flush, so that force costs what was written, not
// the size of the pool. Remap implements step (5) of the
// page-reorganization split: an in-memory-only page is remapped to another
// page's disk location, so the next sync overwrites the original.
//
// The pool is lock-striped: frames are spread over N partitions keyed by
// pageNo % N, each with its own mutex, frame map, and clock hand, so
// concurrent Get/Pin/Unpin on distinct pages do not contend on a single
// lock. The partition count scales with capacity (one stripe per 16
// frames, up to 16 stripes), which keeps tiny test pools on a single
// partition with the exact legacy eviction behavior while production-sized
// pools stripe fully.
//
// Per §3.6, the page allocator must not recycle a page whose buffer is
// pinned by a concurrent reader; PinCount exposes the information the
// allocator needs.
package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// DefaultCapacity is the default number of frames in a pool.
const DefaultCapacity = 1024

// maxPartitions caps the stripe count; framesPerPartition is the minimum
// quota that justifies a dedicated stripe.
const (
	maxPartitions      = 16
	framesPerPartition = 16
)

// RetryPolicy bounds the pool's handling of storage.ErrTransient: each
// page I/O is attempted up to MaxAttempts times, sleeping BaseDelay before
// the first retry and doubling before each subsequent one, capped at
// MaxDelay (0 = uncapped). With Jitter set, each sleep is randomized over
// [delay/2, delay] so retry storms against a struggling device decorrelate
// instead of hammering it in lockstep. An exhausted loop — the attempt cap
// reached with the error still transient — bumps the retry.exhausted
// counter and surfaces the error instead of spinning forever.
type RetryPolicy struct {
	MaxAttempts int
	BaseDelay   time.Duration
	MaxDelay    time.Duration
	Jitter      bool
}

// DefaultRetryPolicy retries enough to outlast FaultDisk's default
// MaxTransientRun of 3 while staying under a millisecond of total backoff.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 5,
	BaseDelay:   50 * time.Microsecond,
	MaxDelay:    400 * time.Microsecond,
	Jitter:      true,
}

// sleep backs off before retry number attempt (1-based).
func (rp *RetryPolicy) sleep(attempt int) {
	if rp.BaseDelay <= 0 {
		return
	}
	delay := rp.BaseDelay
	for i := 1; i < attempt && (rp.MaxDelay <= 0 || delay < rp.MaxDelay); i++ {
		delay *= 2
	}
	if rp.MaxDelay > 0 && delay > rp.MaxDelay {
		delay = rp.MaxDelay
	}
	if rp.Jitter && delay > 1 {
		delay = delay/2 + time.Duration(rand.Int63n(int64(delay/2)+1))
	}
	time.Sleep(delay)
}

// checksumRereads is how many times a read with a failing checksum is
// re-issued before the page is classified as never-durable. A re-read
// distinguishes transient corruption (bit rot on the wire, cleared by the
// retry) from a genuinely damaged durable image.
const checksumRereads = 2

// IOStats counts the pool's fault-handling activity.
type IOStats struct {
	// Retries is the number of re-issued page I/Os: transient-error
	// retries plus checksum-failure re-reads.
	Retries int64
	// ChecksumFailures is the number of reads classified as "this page
	// never became durable" — persistent checksum mismatch or an
	// unreadable sector — and routed into crash repair as a zero page.
	ChecksumFailures int64
	// TornPagesRepaired is the number of never-durable-classified pages
	// that were subsequently rewritten with valid contents, i.e. actually
	// repaired by the recovery machinery.
	TornPagesRepaired int64
	// RetriesExhausted is the number of page I/Os that burned the whole
	// attempt budget and still failed with a transient error.
	RetriesExhausted int64
	// Quarantined is the number of pages currently withdrawn from service.
	Quarantined int64
}

// PartitionStat is one stripe's share of the pool, reported by
// PartitionStats for observability (fastrec-bench -v).
type PartitionStat struct {
	Partition int   `json:"partition"`
	Frames    int   `json:"frames"`
	Quota     int   `json:"quota"`
	Protected int   `json:"protected"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
}

// partition is one lock stripe of the pool: a frame map plus the eviction
// state over the frames this stripe caches (pages with pageNo % nParts ==
// index).
//
// Eviction is a 2Q/midpoint variant when the stripe is big enough
// (twoQ): new admissions enter the probationary segment (clock); a frame
// re-referenced while probationary is promoted to the protected segment at
// sweep time instead of getting a second chance, and protected overflow is
// demoted back. A sequential scan of any length only ever churns the
// probationary segment, so it cannot flush the re-referenced working set —
// the supervisor sweeps and large SCANs stop evicting hot pages. Tiny
// stripes (quota < framesPerPartition) keep the exact legacy single-clock
// second-chance behavior, as does SetLegacyEviction.
type partition struct {
	pool *Pool

	mu     sync.RWMutex
	frames map[storage.PageNo]*Frame
	quota  int // max frames resident in this stripe

	twoQ     bool     // scan-resistant segmented mode
	clock    []*Frame // probationary segment (the whole clock in legacy mode)
	hand     int      // probationary clock hand
	prot     []*Frame // protected segment (re-referenced while probationary)
	protHand int      // protected clock hand
	protCap  int      // protected-segment quota (~3/4 of the stripe)

	hits   atomic.Int64
	misses atomic.Int64
}

// Pool caches pages of a single Disk across lock-striped partitions.
type Pool struct {
	disk storage.Disk

	parts  []*partition
	nParts uint32

	capacity int
	retry    atomic.Pointer[RetryPolicy]

	// Fault-handling counters, atomic so stat readers never contend with
	// the page-access hot path.
	ioRetries   atomic.Int64
	ioChecksum  atomic.Int64
	ioTorn      atomic.Int64
	ioExhausted atomic.Int64

	// quarantine registers pages withdrawn from service after repair could
	// not produce a sane image; Get fails fast on them with a typed error.
	quarantine *Quarantine

	// recorder is the optional observability sink (nil = disabled); swapped
	// atomically like the retry policy so SetObs never races page I/O.
	recorder atomic.Pointer[obs.Recorder]

	// dirtyList holds every frame that went clean->dirty since the last
	// flush took the list (Frame.listed marks membership and
	// Frame.listIdx the position, so a frame is listed at most once). A
	// frame leaves the list when it leaves the pool (evicted, dropped,
	// replaced by Remap, invalidated), so the list never holds more than
	// the resident frames; a resident frame an evictor wrote back stays
	// until the next flush, which skips it as clean. dirtySpare is the
	// emptied list of the last flush, reused so the steady state allocates
	// nothing. dirtyMu is a leaf lock: nothing else is acquired under it.
	dirtyMu    sync.Mutex
	dirtyList  []*Frame
	dirtySpare []*Frame

	// flushMu serializes flushes of this pool: a flush that found the list
	// empty must not return (and let its caller sync) while another flush
	// is still writing the frames it took. It also guards the pace.
	flushMu sync.Mutex
	// pace is what multi-page flushes have cost, in nanoseconds of the
	// caller's wall time per page written: pace[0] for flushes the caller
	// wrote alone (a probe of it times one page), pace[1] for flushes with
	// helper goroutines (0 = not yet measured). probeCredit is the
	// per-page time the faster mode has run since the slower one was last
	// probed. See useHelpers.
	pace        [2]int64
	probeCredit int64
}

// Frame is a buffered page. The page contents must only be accessed while
// holding the frame's latch (RLatch for readers, WLatch for writers) and
// with the frame pinned. (Single-threaded exclusive-mode tree operations
// may skip the latch: with no concurrent pool users there is nothing to
// order against.)
type Frame struct {
	pool  *Pool
	latch sync.RWMutex

	// pageNo is immutable once the frame is visible to other goroutines;
	// Remap rewrites it only on a detached frame still private to its
	// creator, before publishing it under the target partition's mutex.
	pageNo storage.PageNo

	pins  atomic.Int32
	dirty atomic.Bool
	ref   atomic.Bool // clock reference bit: set on access, cleared by the sweep

	// valid is protected by the owning partition's mutex.
	valid bool
	// listed records that the frame is on the pool's dirty list, at
	// listIdx. Protected by the pool's dirtyMu.
	listed  bool
	listIdx int
	// seen is the correlated-reference filter for the segmented sweep:
	// set when the probationary hand finds the frame referenced, so that
	// promotion to the protected segment requires the reference bit on two
	// distinct encounters. A one-shot scan that touches a page twice in
	// quick succession sets ref once and never again — it earns a second
	// chance, not residence. Protected by the owning partition's mutex.
	seen bool
	// zeroRouted records that this frame's durable image failed
	// verification and was served as a zero page for crash repair; the
	// next write of valid contents counts as a torn-page repair. Set
	// during the load (under the partition mutex, before the frame is
	// shared) and cleared by writeFrame; writeFrame calls on one frame
	// never overlap (flushers pin, evictors skip pinned frames).
	zeroRouted bool

	// Data is the page image. Latch-protected.
	Data page.Page
}

// partitionCount picks the stripe count for a capacity: one stripe per
// framesPerPartition frames, capped at maxPartitions. Pools smaller than
// 2*framesPerPartition get a single stripe and therefore behave exactly
// like the unsharded pool.
func partitionCount(capacity int) int {
	n := 1
	for n < maxPartitions && capacity/(n*2) >= framesPerPartition {
		n *= 2
	}
	return n
}

// NewPool creates a pool over disk with the given frame capacity
// (DefaultCapacity if capacity <= 0).
func NewPool(disk storage.Disk, capacity int) *Pool {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := partitionCount(capacity)
	p := &Pool{
		disk:     disk,
		parts:    make([]*partition, n),
		nParts:   uint32(n),
		capacity: capacity,
	}
	p.quarantine = newQuarantine()
	quota := (capacity + n - 1) / n
	for i := range p.parts {
		p.parts[i] = &partition{
			pool:    p,
			frames:  make(map[storage.PageNo]*Frame),
			quota:   quota,
			twoQ:    quota >= framesPerPartition,
			protCap: quota * 3 / 4,
		}
	}
	rp := DefaultRetryPolicy
	p.retry.Store(&rp)
	return p
}

// Disk returns the underlying storage device.
func (p *Pool) Disk() storage.Disk { return p.disk }

// Partitions returns the number of lock stripes.
func (p *Pool) Partitions() int { return int(p.nParts) }

// part returns the stripe owning page no.
func (p *Pool) part(no storage.PageNo) *partition {
	return p.parts[uint32(no)%p.nParts]
}

// SetRetryPolicy replaces the transient-error retry policy. The policy is
// swapped atomically, so it never contends with in-flight page I/O.
func (p *Pool) SetRetryPolicy(rp RetryPolicy) {
	if rp.MaxAttempts < 1 {
		rp.MaxAttempts = 1
	}
	p.retry.Store(&rp)
}

// SetObs attaches an event recorder to the pool (nil detaches). Every
// method on a nil *obs.Recorder is a no-op, so hook sites need no guards.
func (p *Pool) SetObs(r *obs.Recorder) { p.recorder.Store(r) }

// rec returns the attached recorder, which may be nil.
func (p *Pool) rec() *obs.Recorder { return p.recorder.Load() }

// IOStats returns a snapshot of the fault-handling counters.
func (p *Pool) IOStats() IOStats {
	return IOStats{
		Retries:           p.ioRetries.Load(),
		ChecksumFailures:  p.ioChecksum.Load(),
		TornPagesRepaired: p.ioTorn.Load(),
		RetriesExhausted:  p.ioExhausted.Load(),
		Quarantined:       int64(p.quarantine.Len()),
	}
}

// Quarantine exposes the pool's quarantine registry.
func (p *Pool) Quarantine() *Quarantine { return p.quarantine }

// QuarantinePage withdraws page no from service: the registry gains an
// entry, any cached frame is dropped, and subsequent Gets fail fast with a
// *QuarantineError until the page is released. Called by the index layer
// when crash repair concludes a page has no durable source to rebuild from.
func (p *Pool) QuarantinePage(no storage.PageNo, reason string, critical bool) {
	if p.quarantine.Add(no, reason, critical) {
		p.rec().Eventf(obs.QuarantinePage, uint32(no), "%s", reason)
	}
	p.Drop(no)
}

// ReleaseQuarantine returns page no to service (healed, superseded, or
// abandoned for rebuild), reporting whether it was quarantined.
func (p *Pool) ReleaseQuarantine(no storage.PageNo) bool {
	if p.quarantine.Release(no) {
		// Drop any cached (typically zero-routed) frame so the next Get
		// re-reads the durable image — which may have healed.
		p.Drop(no)
		p.rec().Eventf(obs.QuarantineRelease, uint32(no), "released")
		return true
	}
	return false
}

// ProbeDurable reads page no straight from the disk, bypassing the cache,
// and reports whether the durable image verifies. The repair supervisor
// probes before re-admitting a quarantined page.
func (p *Pool) ProbeDurable(no storage.PageNo) bool {
	if no >= p.disk.NumPages() {
		return false
	}
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	if err := p.readPageRetry(no, buf); err != nil {
		return false
	}
	return buf.ChecksumOK()
}

// Get pins and returns the frame for page no, reading it from storage on a
// miss. The caller must Unpin it.
func (p *Pool) Get(no storage.PageNo) (*Frame, error) {
	// Quarantine gate: a withdrawn page fails fast with the typed error.
	// The empty-registry case is one atomic load.
	if p.quarantine.count.Load() != 0 {
		if err := p.quarantine.check(no); err != nil {
			return nil, err
		}
	}
	pt := p.part(no)
	// Hit fast path: shared lock, atomic pin.
	pt.mu.RLock()
	if f, ok := pt.frames[no]; ok {
		f.pins.Add(1)
		f.ref.Store(true)
		pt.hits.Add(1)
		pt.mu.RUnlock()
		return f, nil
	}
	pt.mu.RUnlock()

	pt.mu.Lock()
	for {
		// Re-check: another goroutine may have loaded the page while we
		// upgraded (or while an eviction write released the lock).
		if f, ok := pt.frames[no]; ok {
			f.pins.Add(1)
			f.ref.Store(true)
			pt.hits.Add(1)
			pt.mu.Unlock()
			return f, nil
		}
		dropped, err := pt.ensureRoomLocked()
		if err != nil {
			pt.mu.Unlock()
			return nil, err
		}
		if !dropped {
			break
		}
	}
	pt.misses.Add(1)
	f := pt.installFrameLocked(no)
	if no >= p.disk.NumPages() {
		pt.mu.Unlock()
		return f, nil // installFrameLocked data starts zeroed
	}
	// Read OUTSIDE the stripe lock, holding the frame's write latch: a
	// concurrent Get for the same page finds the frame immediately (misses
	// on the stripe proceed in parallel), and the tree-level discipline of
	// latching a frame before reading its contents makes such a racer wait
	// on the latch until the fill completes.
	f.latch.Lock()
	pt.mu.Unlock()
	err := p.readFrame(no, f)
	f.latch.Unlock()
	if err != nil {
		// Unpublish the dead frame. A racer that pinned it meanwhile sees
		// a zeroed page, which the index validation layers reject — the
		// same face persistent device damage already wears.
		pt.mu.Lock()
		f.valid = false
		delete(pt.frames, no)
		pt.unlistLocked(f)
		pt.mu.Unlock()
		return nil, err
	}
	return f, nil
}

// readFrame fills f.Data from disk with transient-error retries and
// checksum verification. A page whose image persistently fails its checksum
// (or whose sector is unreadable) is classified "never became durable" and
// served as a zero page, which the index-level crash-repair machinery
// rebuilds on use — except page 0, the meta page, which has no redundant
// copy to rebuild from and is therefore a hard error.
func (p *Pool) readFrame(no storage.PageNo, f *Frame) error {
	err := p.readPageRetry(no, f.Data)
	for reread := 0; err == nil && !f.Data.ChecksumOK(); reread++ {
		if reread >= checksumRereads {
			return p.routeNeverDurable(no, f, "checksum mismatch")
		}
		// Re-read: transient corruption (a flipped bit on the wire)
		// clears on retry; real damage does not.
		p.ioRetries.Add(1)
		err = p.readPageRetry(no, f.Data)
	}
	if errors.Is(err, storage.ErrBadSector) {
		return p.routeNeverDurable(no, f, "unreadable sector")
	}
	if err == nil {
		p.quarantine.noteCleanRead(no)
	}
	return err
}

// readPageRetry issues a page read, retrying storage.ErrTransient under
// the pool's RetryPolicy.
func (p *Pool) readPageRetry(no storage.PageNo, buf page.Page) error {
	rp := p.retry.Load()
	var err error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.ioRetries.Add(1)
			rp.sleep(attempt)
		}
		if err = p.disk.ReadPage(no, buf); !errors.Is(err, storage.ErrTransient) {
			return err
		}
	}
	p.ioExhausted.Add(1)
	p.rec().Eventf(obs.RetryExhausted, uint32(no), "read still transient after %d attempts", rp.MaxAttempts)
	return err
}

// writePageRetry issues a page write, retrying storage.ErrTransient under
// the pool's RetryPolicy.
func (p *Pool) writePageRetry(no storage.PageNo, data page.Page) error {
	rp := p.retry.Load()
	var err error
	for attempt := 0; attempt < rp.MaxAttempts; attempt++ {
		if attempt > 0 {
			p.ioRetries.Add(1)
			rp.sleep(attempt)
		}
		if err = p.disk.WritePage(no, data); !errors.Is(err, storage.ErrTransient) {
			return err
		}
	}
	p.ioExhausted.Add(1)
	p.rec().Eventf(obs.RetryExhausted, uint32(no), "write still transient after %d attempts", rp.MaxAttempts)
	return err
}

// routeNeverDurable classifies page no's durable image as lost and serves
// a zero page in its place, handing the damage to crash repair — unless the
// same page has been classified this way zeroRouteStreakCap times in a row
// without an intervening clean read, in which case repair demonstrably
// cannot fix the durable image from here and the page is quarantined
// instead of being handed back for another futile round.
func (p *Pool) routeNeverDurable(no storage.PageNo, f *Frame, cause string) error {
	if no == 0 {
		// The meta page is overwritten in place and has no redundant copy;
		// losing it is unrecoverable at this layer. Quarantine it as
		// critical so the health-state machine forces ReadOnly/Failed.
		if p.quarantine.Add(0, cause, true) {
			p.rec().Eventf(obs.QuarantinePage, 0, "meta page: %s", cause)
		}
		return fmt.Errorf("buffer: meta page 0 unrecoverable (%s): %w",
			cause, &QuarantineError{PageNo: 0, Reason: cause})
	}
	if streak := p.quarantine.noteZeroRoute(no); streak >= zeroRouteStreakCap {
		reason := fmt.Sprintf("%s (%d consecutive zero-routes)", cause, streak)
		if p.quarantine.Add(no, reason, false) {
			p.rec().Eventf(obs.QuarantinePage, uint32(no), "%s", reason)
		}
		return &QuarantineError{PageNo: no, Reason: reason}
	}
	for i := range f.Data {
		f.Data[i] = 0
	}
	f.zeroRouted = true
	p.ioChecksum.Add(1)
	p.rec().Eventf(obs.ZeroRoute, uint32(no), "%s; serving never-durable zero page", cause)
	return nil
}

// writeFrame is the single choke point through which every dirty frame
// reaches the disk (eviction and flush), with transient-error retries.
// Writing valid contents over a frame that was zero-routed is the
// completion of a torn-page repair.
//
// Callers must guarantee no concurrent page mutation: eviction holds the
// partition mutex and only writes unpinned frames (unpinned implies
// unlatched under the pin-before-latch discipline), flushing pins the
// frame and holds its RLatch. The dirty bit is cleared before the write;
// MarkDirty requires the frame's write latch in concurrent contexts, so a
// post-flush modification re-marks it without a lost update. A failed write
// leaves the frame dirty and back on the dirty list for the next flush.
func (p *Pool) writeFrame(f *Frame) error {
	f.dirty.Store(false)
	if err := p.writePageRetry(f.pageNo, f.Data); err != nil {
		f.dirty.Store(true)
		p.listDirty(f)
		return err
	}
	if f.zeroRouted {
		if !f.Data.IsZeroed() {
			p.ioTorn.Add(1)
			p.rec().Eventf(obs.TornRepair, uint32(f.pageNo), "zero-routed page rewritten with valid contents")
		}
		f.zeroRouted = false
	}
	return nil
}

// NewPage pins and returns a zeroed frame for page no without reading
// storage; used when formatting a freshly allocated page. Any existing
// frame for no is reused (its contents zeroed under the frame's write
// latch, so a stale reader still latched onto the recycled page cannot
// race the zeroing).
func (p *Pool) NewPage(no storage.PageNo) (*Frame, error) {
	// A fresh allocation supersedes whatever damage got the page
	// quarantined: the old contents are gone by design.
	if p.quarantine.count.Load() != 0 && p.quarantine.Release(no) {
		p.rec().Eventf(obs.QuarantineRelease, uint32(no), "superseded by fresh allocation")
	}
	pt := p.part(no)
	pt.mu.Lock()
	for {
		if f, ok := pt.frames[no]; ok {
			f.pins.Add(1)
			pt.mu.Unlock()
			f.WLatch()
			for i := range f.Data {
				f.Data[i] = 0
			}
			f.WUnlatch()
			return f, nil
		}
		dropped, err := pt.ensureRoomLocked()
		if err != nil {
			pt.mu.Unlock()
			return nil, err
		}
		if !dropped {
			break
		}
	}
	f := pt.installFrameLocked(no)
	pt.mu.Unlock()
	return f, nil
}

// NewDetached pins and returns a frame that is not (yet) associated with
// any disk page: the in-memory-only allocation of the reorganization
// split's step (1). It becomes a real page via Remap. Detached frames are
// never evicted or written.
func (p *Pool) NewDetached() *Frame {
	f := &Frame{pool: p, pageNo: detachedPageNo, valid: true, Data: page.New()}
	f.pins.Store(1)
	return f
}

// detachedPageNo marks a frame with no disk identity.
const detachedPageNo = ^storage.PageNo(0)

// installFrameLocked inserts a fresh pinned frame for page no into the
// stripe's map and clock, with pt.mu held. The caller has already made
// room with ensureRoomLocked.
func (pt *partition) installFrameLocked(no storage.PageNo) *Frame {
	f := &Frame{pool: pt.pool, pageNo: no, valid: true, Data: page.New()}
	f.pins.Store(1)
	pt.frames[no] = f
	pt.clock = append(pt.clock, f)
	return f
}

// ensureRoomLocked makes room for one more frame, evicting an unpinned
// frame chosen by the clock (second-chance) algorithm if the stripe is at
// quota. Writing a dirty victim at eviction time is always legal under the
// paper's model: durability is decided only by sync, and the recovery
// algorithms tolerate any page image that existed at any instant reaching
// the disk.
//
// The write itself happens with pt.mu RELEASED — a page write is the
// slowest operation in the system, and holding the stripe lock across it
// would stall every Get on the stripe for a full device round trip. The
// victim is pinned (so it cannot be evicted twice) and write-latched out
// of existence by nobody: mutators hold pins, and unpinned frames are
// never latched by tree code. dropped reports that the lock was released;
// the caller must restart, because the stripe (including its own target
// page) may have changed arbitrarily in the window.
func (pt *partition) ensureRoomLocked() (dropped bool, err error) {
	if len(pt.frames) < pt.quota {
		return false, nil
	}
	if pt.twoQ {
		return pt.evict2QLocked()
	}
	// Legacy single clock. Two sweeps: the first clears reference bits,
	// the second takes the first unreferenced unpinned frame.
	for sweep := 0; sweep < 2*len(pt.clock); sweep++ {
		if len(pt.clock) == 0 {
			break
		}
		if pt.hand >= len(pt.clock) {
			pt.hand = 0
		}
		f := pt.clock[pt.hand]
		if f.pins.Load() > 0 || !f.valid || f.pageNo == detachedPageNo {
			pt.hand++
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			pt.hand++
			continue
		}
		return pt.evictFrameLocked(f, &pt.clock, pt.hand)
	}
	return false, fmt.Errorf("buffer: all %d frames pinned", len(pt.frames))
}

// evict2QLocked is the segmented sweep. Probationary frames are evicted on
// their first unreferenced encounter; a referenced probationary frame is
// promoted to the protected segment (its reuse is the 2Q admission
// signal), with protected overflow demoted back. Only when the
// probationary segment yields nothing does the sweep fall back to a
// classic second-chance pass over the protected segment.
func (pt *partition) evict2QLocked() (dropped bool, err error) {
	for budget := 2*len(pt.clock) + 2; budget > 0 && len(pt.clock) > 0; budget-- {
		if pt.hand >= len(pt.clock) {
			pt.hand = 0
		}
		f := pt.clock[pt.hand]
		if f.pins.Load() > 0 || !f.valid || f.pageNo == detachedPageNo {
			pt.hand++
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			if f.seen {
				// Referenced on two distinct sweep encounters: sustained
				// reuse, not a correlated burst. Promote to protected.
				f.seen = false
				pt.clock = append(pt.clock[:pt.hand], pt.clock[pt.hand+1:]...)
				pt.prot = append(pt.prot, f)
				pt.pool.rec().Count(obs.EvictPromote)
				pt.rebalanceProtLocked()
			} else {
				// First re-reference may be the tail of a correlated pair
				// of touches on a one-shot page (2Q's A1in insight): give
				// a second chance and promote only if the frame is
				// referenced again before the hand returns.
				f.seen = true
				pt.hand++
			}
			continue
		}
		return pt.evictFrameLocked(f, &pt.clock, pt.hand)
	}
	for budget := 2*len(pt.prot) + 2; budget > 0 && len(pt.prot) > 0; budget-- {
		if pt.protHand >= len(pt.prot) {
			pt.protHand = 0
		}
		f := pt.prot[pt.protHand]
		if f.pins.Load() > 0 || !f.valid || f.pageNo == detachedPageNo {
			pt.protHand++
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			pt.protHand++
			continue
		}
		return pt.evictFrameLocked(f, &pt.prot, pt.protHand)
	}
	return false, fmt.Errorf("buffer: all %d frames pinned", len(pt.frames))
}

// rebalanceProtLocked demotes least-recently-used protected frames back to
// the probationary tail until the protected segment fits its quota, giving
// each a second chance via its reference bit first.
func (pt *partition) rebalanceProtLocked() {
	for budget := 2*len(pt.prot) + 2; budget > 0 && len(pt.prot) > pt.protCap; budget-- {
		if pt.protHand >= len(pt.prot) {
			pt.protHand = 0
		}
		f := pt.prot[pt.protHand]
		if f.pins.Load() > 0 || !f.valid || f.pageNo == detachedPageNo {
			pt.protHand++
			continue
		}
		if f.ref.Load() {
			f.ref.Store(false)
			pt.protHand++
			continue
		}
		pt.prot = append(pt.prot[:pt.protHand], pt.prot[pt.protHand+1:]...)
		f.seen = false // a demoted frame must re-earn its promotion
		pt.clock = append(pt.clock, f)
		pt.pool.rec().Count(obs.EvictDemote)
	}
}

// evictFrameLocked finishes evicting victim f at position idx of *list.
// Dirty victims are written back outside the stripe lock, then the caller
// restarts (dropped=true): on the next pass the frame is clean (unless
// re-dirtied) and evicts without I/O.
func (pt *partition) evictFrameLocked(f *Frame, list *[]*Frame, idx int) (dropped bool, err error) {
	if f.dirty.Load() {
		pt.pool.rec().Count(obs.EvictDirty)
		f.pins.Add(1)
		pt.mu.Unlock()
		f.RLatch()
		var werr error
		if f.dirty.Load() {
			werr = pt.pool.writeFrame(f)
		}
		f.RUnlatch()
		pt.mu.Lock()
		f.pins.Add(-1)
		return true, werr
	}
	f.valid = false
	delete(pt.frames, f.pageNo)
	*list = append((*list)[:idx], (*list)[idx+1:]...)
	pt.pool.unlistDirty(f)
	pt.pool.rec().Count(obs.EvictClean)
	return false, nil
}

// unlistLocked removes f from whichever segment holds it (probationary or
// protected); a frame never appears in both.
func (pt *partition) unlistLocked(f *Frame) {
	for i, cf := range pt.clock {
		if cf == f {
			pt.clock = append(pt.clock[:i], pt.clock[i+1:]...)
			return
		}
	}
	for i, cf := range pt.prot {
		if cf == f {
			pt.prot = append(pt.prot[:i], pt.prot[i+1:]...)
			return
		}
	}
}

// SetLegacyEviction forces every stripe onto the legacy single-clock
// second-chance policy (true) or restores the default segmented policy for
// stripes large enough to use it (false). Forcing legacy folds the
// protected segment back into the clock. Used by benchmarks and tests to
// compare the two policies on identical workloads.
func (p *Pool) SetLegacyEviction(legacy bool) {
	for _, pt := range p.parts {
		pt.mu.Lock()
		if legacy {
			pt.twoQ = false
			pt.clock = append(pt.clock, pt.prot...)
			pt.prot = nil
			pt.protHand = 0
		} else {
			pt.twoQ = pt.quota >= framesPerPartition
		}
		pt.mu.Unlock()
	}
}

// Unpin releases one pin on f.
func (f *Frame) Unpin() {
	if f.pins.Add(-1) < 0 {
		panic("buffer: unpin of unpinned frame")
	}
}

// Pin adds a pin to an already-held frame.
func (f *Frame) Pin() { f.pins.Add(1) }

// PageNo returns the disk page this frame currently maps, or ^0 for a
// detached frame.
func (f *Frame) PageNo() storage.PageNo { return f.pageNo }

// MarkDirty records that the frame must be written before the next sync.
// When other goroutines may access the pool concurrently the caller must
// hold the frame's write latch, so flush cannot lose the update. Only the
// clean->dirty transition touches the dirty list; a detached frame is
// listed when Remap gives it a disk identity.
func (f *Frame) MarkDirty() {
	if !f.dirty.Swap(true) && f.pageNo != detachedPageNo {
		f.pool.listDirty(f)
	}
}

// listDirty puts f on the dirty list unless it is already there.
func (p *Pool) listDirty(f *Frame) {
	p.dirtyMu.Lock()
	if !f.listed {
		f.listed, f.listIdx = true, len(p.dirtyList)
		p.dirtyList = append(p.dirtyList, f)
	}
	p.dirtyMu.Unlock()
}

// unlistDirty takes f off the dirty list if it is there, moving the last
// entry into its place. Called as f leaves the pool: no flush may write
// it, and the list must not keep its image reachable.
func (p *Pool) unlistDirty(f *Frame) {
	p.dirtyMu.Lock()
	if f.listed {
		last := len(p.dirtyList) - 1
		moved := p.dirtyList[last]
		p.dirtyList[f.listIdx], moved.listIdx = moved, f.listIdx
		p.dirtyList[last] = nil
		p.dirtyList = p.dirtyList[:last]
		f.listed = false
	}
	p.dirtyMu.Unlock()
}

// RLatch acquires the frame's shared latch.
func (f *Frame) RLatch() { f.latch.RLock() }

// RUnlatch releases the shared latch.
func (f *Frame) RUnlatch() { f.latch.RUnlock() }

// WLatch acquires the frame's exclusive latch.
func (f *Frame) WLatch() { f.latch.Lock() }

// WUnlatch releases the exclusive latch.
func (f *Frame) WUnlatch() { f.latch.Unlock() }

// PinCount reports the current pin count of page no (0 if unbuffered); the
// freelist allocator consults it before recycling a page (§3.6).
func (p *Pool) PinCount(no storage.PageNo) int {
	pt := p.part(no)
	pt.mu.RLock()
	defer pt.mu.RUnlock()
	if f, ok := pt.frames[no]; ok {
		return int(f.pins.Load())
	}
	return 0
}

// Remap gives frame f the disk identity of page no, dropping any frame
// previously mapped there (step 5 of the reorganization split: the
// reorganized page P_a replaces P at P's disk location). The frame is
// marked dirty; the replaced frame is invalidated without being written.
// f must be a detached frame, still private to its creator.
func (p *Pool) Remap(f *Frame, no storage.PageNo) {
	if f.pageNo != detachedPageNo {
		panic("buffer: Remap of a non-detached frame")
	}
	pt := p.part(no)
	pt.mu.Lock()
	if old, ok := pt.frames[no]; ok && old != f {
		old.valid = false
		old.dirty.Store(false)
		pt.unlistLocked(old)
		p.unlistDirty(old)
		delete(pt.frames, no)
	}
	f.pageNo = no
	f.dirty.Store(true)
	pt.frames[no] = f
	pt.clock = append(pt.clock, f)
	pt.mu.Unlock()
	p.listDirty(f)
}

// WriteBypass writes a complete page image straight through to storage
// without installing a frame: no clock entry, no protected-segment
// promotion, no eviction pressure on resident pages. The bulk loader uses
// it to stream pages it will never re-reference — a million-key load must
// not flush the working set the way a Get-per-page build would. Any stale
// frame for no is dropped first so later Gets read the new image, and the
// write goes through the pool's transient-retry policy (the disk seals the
// stored copy with the format-v2 checksum, like every other write).
func (p *Pool) WriteBypass(no storage.PageNo, data page.Page) error {
	p.Drop(no)
	return p.writePageRetry(no, data)
}

// Drop invalidates any frame for page no without writing it, used when a
// page is freed.
func (p *Pool) Drop(no storage.PageNo) {
	pt := p.part(no)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if f, ok := pt.frames[no]; ok {
		f.valid = false
		f.dirty.Store(false)
		pt.unlistLocked(f)
		p.unlistDirty(f)
		delete(pt.frames, no)
	}
}

// flushDirty writes every dirty frame to the OS cache without syncing: the
// write half of the §2 force. It costs what was dirtied, not what is
// cached.
//
//   - The work list is the dirty list, taken whole: every frame that went
//     clean->dirty since the last flush and is still dirty. An entry is
//     written only if, under its stripe mutex, the frame is still valid
//     and still the one mapped at its page, and then only if it is still
//     dirty when latched.
//   - Writes are issued in page order from the calling goroutine. The §2
//     sync is unordered, so the writes may also overlap: a flush of
//     several pages starts helper goroutines, one per page up to
//     flushWorkers in all, when flushes with helpers have been writing
//     pages faster than flushes without (useHelpers). On a device that
//     waits per write they are; on one whose writes are CPU work behind
//     one lock they are not, and a commit force never leaves the caller.
//   - Each frame is written under its shared latch, so a concurrent writer
//     (which mutates only under the write latch) can never interleave with
//     the image being copied out, and it is pinned only for its own write:
//     pinning the whole set up front would leave concurrent Gets no
//     evictable frames for the length of a blocked sync.
//   - On a write error the flush stops; every frame it took that is still
//     dirty goes back on the list, so the next flush writes it.
func (p *Pool) flushDirty() error {
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	start := time.Now()
	frames := p.takeDirty()
	// Deterministic issue order keeps tests reproducible; the storage
	// layer still provides no durability ordering (and the crash layer
	// reports pending pages sorted, not in write order).
	slices.SortFunc(frames, func(a, b *Frame) int { return cmp.Compare(a.pageNo, b.pageNo) })
	helped, probe := p.useHelpers(len(frames))
	fl := &flushRun{pool: p, frames: frames}
	// A probe of the lone pace times the caller writing one page alone and
	// then brings the helpers in for the rest: on a device that waits, a
	// whole lone flush would cost several times a helped one.
	loneProbe := probe && !helped
	var lone int64
	if loneProbe {
		t0 := time.Now()
		for fl.written.Load() == 0 && fl.step() {
		}
		lone = int64(time.Since(t0))
		helped = true
	}
	workers := 1
	if helped {
		workers = max(1, min(flushWorkers, len(frames)-int(fl.next.Load())))
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl.work()
		}()
	}
	fl.work()
	wg.Wait()
	elapsed := time.Since(start)
	var err error
	if e := fl.err.Load(); e != nil {
		err = *e
		for _, f := range frames {
			if f.dirty.Load() {
				p.listDirty(f)
			}
		}
	} else if written := fl.written.Load(); loneProbe && written > 0 {
		p.notePace(false, true, lone)
	} else if len(frames) > 1 && written > 0 {
		p.notePace(helped, probe, int64(elapsed)/written)
	}
	p.dirtyMu.Lock()
	clear(frames)
	p.dirtySpare = frames[:0]
	p.dirtyMu.Unlock()
	if r := p.rec(); r != nil {
		r.CountN(obs.FlushPage, uint64(fl.written.Load()))
		if workers > 1 {
			r.CountN(obs.FlushHelper, uint64(workers-1))
		}
		r.Observe(obs.TFlushDirty, elapsed)
	}
	return err
}

// useHelpers decides whether a flush of n pages starts helper goroutines,
// from the pace the pool has measured rather than from a page count: a
// helper pays only if the writes it takes over would have kept the caller
// waiting longer than starting and joining it costs, and whether they do
// depends on the device (a write that sleeps on a device overlaps; a copy
// into memory behind the device's lock does not) and on how busy the
// machine is. A single page is always written alone. The first multi-page
// flush runs with helpers and the second probes the lone pace, so each
// mode has one; after that a flush runs in the faster mode, which is
// measured on every flush, so a mode that becomes slower loses without
// further help. To notice the other mode becoming faster, a flush now and
// then probes it: once the faster mode has run for probeShare times what
// one probe costs over it (slow - fast per page), so probing costs at most
// about 1/probeShare of the flush time whichever way the paces stand.
// probe reports such a flush, whose pace replaces the stale one; a probe
// of the lone pace writes one page alone and the rest with helpers
// (flushDirty). With flushMu held.
func (p *Pool) useHelpers(n int) (helped, probe bool) {
	if n < 2 {
		return false, false
	}
	alone, withHelpers := p.pace[0], p.pace[1]
	if alone == 0 || withHelpers == 0 {
		return withHelpers == 0, true
	}
	fast, slow := min(alone, withHelpers), max(alone, withHelpers)
	p.probeCredit += fast
	if p.probeCredit >= probeShare*(slow-fast) {
		p.probeCredit = 0
		return withHelpers >= alone, true
	}
	return withHelpers < alone, false
}

// notePace folds one multi-page flush's cost per page into the pace of its
// mode. A probe's cost replaces the pace it measured, which is as old as
// the last probe. Otherwise noise (a preemption, a collection) only ever
// adds time, so the pace drops to a faster sample at once and rises toward
// a slower one by an eighth per flush. With flushMu held.
func (p *Pool) notePace(helped, probe bool, perPage int64) {
	pace := &p.pace[0]
	if helped {
		pace = &p.pace[1]
	}
	perPage = max(perPage, 1)
	if probe || perPage < *pace {
		*pace = perPage
		return
	}
	*pace += (perPage - *pace) / 8
}

// takeDirty empties the dirty list and returns the frames on it that are
// still dirty. A frame cleaned since it was listed (written back by an
// evictor) is left out: if it is dirtied again it goes on the new list.
func (p *Pool) takeDirty() []*Frame {
	p.dirtyMu.Lock()
	defer p.dirtyMu.Unlock()
	frames := p.dirtyList[:0]
	for _, f := range p.dirtyList {
		f.listed = false
		if f.dirty.Load() {
			frames = append(frames, f)
		}
	}
	clear(p.dirtyList[len(frames):])
	p.dirtyList, p.dirtySpare = p.dirtySpare, nil
	return frames
}

// flushRun is one flushDirty call's shared state: the sorted frames, the
// next index to claim, the pages written and the first write error.
type flushRun struct {
	pool          *Pool
	frames        []*Frame
	next, written atomic.Int64
	err           atomic.Pointer[error]
}

// work writes frames until they run out or a write fails.
func (fl *flushRun) work() {
	for fl.step() {
	}
}

// step claims the next frame in order and writes it if it is still live
// and dirty. It reports false once the frames have run out or a write has
// failed.
func (fl *flushRun) step() bool {
	if fl.err.Load() != nil {
		return false
	}
	i := int(fl.next.Add(1)) - 1
	if i >= len(fl.frames) {
		return false
	}
	p, f := fl.pool, fl.frames[i]
	pt := p.part(f.pageNo)
	pt.mu.Lock()
	live := f.valid && pt.frames[f.pageNo] == f
	if live {
		f.pins.Add(1)
	}
	pt.mu.Unlock()
	if !live {
		return true
	}
	f.RLatch()
	if f.dirty.Load() {
		if err := p.writeFrame(f); err != nil {
			fl.err.CompareAndSwap(nil, &err)
		} else {
			fl.written.Add(1)
		}
	}
	f.RUnlatch()
	f.Unpin()
	return true
}

// flushWorkers bounds the write concurrency of one flushDirty call: a
// flush with helpers runs one goroutine per page, at most this many.
// probeShare sets what probing the slower mode may cost: about one part
// in probeShare of the flush time (see useHelpers).
const (
	flushWorkers = 8
	probeShare   = 100
)

// FlushDirty writes every dirty frame to the OS cache without syncing.
func (p *Pool) FlushDirty() error { return p.flushDirty() }

// SyncAll writes every dirty frame and then syncs the disk: the "sync
// operation" of §2. All modified pages become durable in an order chosen by
// the (simulated) operating system, not by the DBMS.
func (p *Pool) SyncAll() error {
	if err := p.flushDirty(); err != nil {
		return err
	}
	return p.disk.Sync()
}

// InvalidateAll drops every frame without writing, simulating the loss of
// volatile state at a crash. Pinned frames panic: a simulated crash must
// not race live operations.
func (p *Pool) InvalidateAll() {
	for _, pt := range p.parts {
		pt.mu.Lock()
		for no, f := range pt.frames {
			if f.pins.Load() > 0 {
				pt.mu.Unlock()
				panic(fmt.Sprintf("buffer: InvalidateAll with page %d pinned", no))
			}
			f.valid = false
			f.dirty.Store(false)
		}
		pt.frames = make(map[storage.PageNo]*Frame)
		pt.clock = nil
		pt.hand = 0
		pt.prot = nil
		pt.protHand = 0
		pt.mu.Unlock()
	}
	p.dirtyMu.Lock()
	for _, f := range p.dirtyList {
		f.listed = false
	}
	clear(p.dirtyList)
	p.dirtyList = p.dirtyList[:0]
	p.dirtyMu.Unlock()
}

// Stats returns hit/miss counters aggregated across all stripes.
func (p *Pool) Stats() (hits, misses int64) {
	for _, pt := range p.parts {
		hits += pt.hits.Load()
		misses += pt.misses.Load()
	}
	return hits, misses
}

// PartitionStats returns a per-stripe breakdown of residency and hit/miss
// counters.
func (p *Pool) PartitionStats() []PartitionStat {
	out := make([]PartitionStat, len(p.parts))
	for i, pt := range p.parts {
		pt.mu.RLock()
		n := len(pt.frames)
		nProt := len(pt.prot)
		pt.mu.RUnlock()
		out[i] = PartitionStat{
			Partition: i,
			Frames:    n,
			Quota:     pt.quota,
			Protected: nProt,
			Hits:      pt.hits.Load(),
			Misses:    pt.misses.Load(),
		}
	}
	return out
}
