package buffer

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// recordDisk is a MemDisk that records the page numbers it is asked to
// write and can be told to refuse writes.
type recordDisk struct {
	*storage.MemDisk
	mu     sync.Mutex
	writes []storage.PageNo
	refuse bool
}

var errRefused = errors.New("recordDisk: write refused")

func (d *recordDisk) WritePage(no storage.PageNo, data page.Page) error {
	d.mu.Lock()
	refuse := d.refuse
	if !refuse {
		d.writes = append(d.writes, no)
	}
	d.mu.Unlock()
	if refuse {
		return errRefused
	}
	return d.MemDisk.WritePage(no, data)
}

// take returns and forgets the writes recorded so far.
func (d *recordDisk) take() []storage.PageNo {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.writes
	d.writes = nil
	return w
}

func (d *recordDisk) setRefuse(on bool) {
	d.mu.Lock()
	d.refuse = on
	d.mu.Unlock()
}

// scanDirty is the brute-force answer the dirty list must match: every
// resident frame whose dirty bit is set, found by walking every stripe.
func scanDirty(p *Pool) []storage.PageNo {
	var out []storage.PageNo
	for _, pt := range p.parts {
		pt.mu.RLock()
		for no, f := range pt.frames {
			if f.dirty.Load() {
				out = append(out, no)
			}
		}
		pt.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

func listLen(p *Pool) int {
	p.dirtyMu.Lock()
	defer p.dirtyMu.Unlock()
	return len(p.dirtyList)
}

// dirtyPage marks page no dirty with a fresh image through Get.
func dirtyPage(t *testing.T, p *Pool, no storage.PageNo, fill byte) {
	t.Helper()
	f, err := p.Get(no)
	if err != nil {
		t.Fatal(err)
	}
	f.WLatch()
	f.Data.Init(page.TypeLeaf, 0)
	f.Data[page.HeaderSize] = fill
	f.MarkDirty()
	f.WUnlatch()
	f.Unpin()
}

// flushMatchesScan flushes and requires the flush to write exactly the
// frames the brute-force scan found dirty, each once, leaving none. (Each
// worker claims frames in page order, but helpers interleave.)
func flushMatchesScan(t *testing.T, p *Pool, d *recordDisk, where string) {
	t.Helper()
	want := scanDirty(p)
	d.take() // eviction write-backs so far are not the flush's
	if err := p.FlushDirty(); err != nil {
		t.Fatalf("%s: flush: %v", where, err)
	}
	got := d.take()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: flush wrote %v, scan found dirty %v", where, got, want)
	}
	if left := scanDirty(p); len(left) != 0 {
		t.Fatalf("%s: still dirty after flush: %v", where, left)
	}
}

// TestDirtyListMatchesScan is the model-based differential for the dirty
// list: after random sequences of Get, MarkDirty, eviction (the working
// set is three times the pool), NewPage, Drop, Remap of detached frames
// (dirtied before or only by the Remap) and InvalidateAll, a flush writes
// exactly the frames a scan of every stripe finds dirty.
func TestDirtyListMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		d := &recordDisk{MemDisk: storage.NewMemDisk()}
		p := NewPool(d, 64)
		rng := rand.New(rand.NewSource(seed))
		for step := 0; step < 3000; step++ {
			no := storage.PageNo(1 + rng.Intn(192))
			switch op := rng.Intn(100); {
			case op < 45:
				f, err := p.Get(no)
				if err != nil {
					t.Fatal(err)
				}
				if rng.Intn(2) == 0 {
					f.WLatch()
					f.Data.Init(page.TypeLeaf, 0)
					f.Data[page.HeaderSize] = byte(step)
					f.MarkDirty()
					f.WUnlatch()
				}
				f.Unpin()
			case op < 60:
				f, err := p.NewPage(no)
				if err != nil {
					t.Fatal(err)
				}
				f.Data.Init(page.TypeLeaf, 0)
				f.MarkDirty()
				f.Unpin()
			case op < 70:
				p.Drop(no)
			case op < 82:
				f := p.NewDetached()
				f.Data.Init(page.TypeLeaf, 0)
				if rng.Intn(2) == 0 {
					f.MarkDirty()
				}
				p.Remap(f, no)
				f.Unpin()
			case op < 84:
				p.InvalidateAll()
			case op < 92:
				flushMatchesScan(t, p, d, "mid-sequence")
			default:
				// A pinned frame dirtied again while a flush runs is
				// written by that flush or listed for the next.
				f, err := p.Get(no)
				if err != nil {
					t.Fatal(err)
				}
				f.MarkDirty()
				flushMatchesScan(t, p, d, "pinned")
				f.Unpin()
			}
		}
		flushMatchesScan(t, p, d, "final")
	}
}

// TestFlushRetriesFailedWrite: a write that exhausts its retries (FaultDisk
// failing every attempt) fails the flush, and the next flush writes the
// frame.
func TestFlushRetriesFailedWrite(t *testing.T) {
	p, d := newFaultPool(t, storage.FaultConfig{
		Seed:               3,
		TransientWriteProb: 1,
		MaxTransientRun:    3,
	})
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond})
	dirtyPage(t, p, 1, 9)
	if err := p.FlushDirty(); !errors.Is(err, storage.ErrTransient) {
		t.Fatalf("flush over an always-failing write: %v, want ErrTransient", err)
	}
	// The third attempt passes MaxTransientRun and succeeds.
	if err := p.SyncAll(); err != nil {
		t.Fatalf("second flush: %v", err)
	}
	p.InvalidateAll()
	f, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	if f.Data[page.HeaderSize] != 9 {
		t.Fatal("frame whose write failed was never written")
	}
	if d.Stats().TransientWrites != 3 {
		t.Fatalf("TransientWrites = %d, want 3", d.Stats().TransientWrites)
	}
}

// TestFlushFailureKeepsUntriedFrames: a flush that stops at its first
// failed write puts back every frame it took and did not write.
func TestFlushFailureKeepsUntriedFrames(t *testing.T) {
	d := &recordDisk{MemDisk: storage.NewMemDisk()}
	p := NewPool(d, 64)
	p.SetRetryPolicy(RetryPolicy{MaxAttempts: 1})
	for no := storage.PageNo(1); no <= 5; no++ {
		dirtyPage(t, p, no, byte(no))
	}
	d.setRefuse(true)
	if err := p.FlushDirty(); !errors.Is(err, errRefused) {
		t.Fatalf("flush: %v, want the refused write", err)
	}
	d.setRefuse(false)
	flushMatchesScan(t, p, d, "after failure")
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := d.take(); len(got) != 0 {
		t.Fatalf("clean pool flushed %v", got)
	}
}

// TestFlushWritesRemappedDetached: a detached frame dirtied before it had a
// disk identity is flushed once Remap gives it one, and the frame it
// replaced is not written.
func TestFlushWritesRemappedDetached(t *testing.T) {
	d := &recordDisk{MemDisk: storage.NewMemDisk()}
	p := NewPool(d, 64)
	dirtyPage(t, p, 7, 1) // the replaced frame, dirty
	f := p.NewDetached()
	f.Data.Init(page.TypeLeaf, 0)
	f.Data[page.HeaderSize] = 2
	f.MarkDirty()
	if n := listLen(p); n != 1 {
		t.Fatalf("dirty list holds %d entries before Remap, want 1 (detached frames are not listed)", n)
	}
	p.Remap(f, 7)
	f.Unpin()
	if n := listLen(p); n != 1 {
		t.Fatalf("dirty list holds %d entries after Remap, want 1 (the replaced frame leaves it)", n)
	}
	flushMatchesScan(t, p, d, "remap")
	buf := page.New()
	if err := d.ReadPage(7, buf); err != nil {
		t.Fatal(err)
	}
	if buf[page.HeaderSize] != 2 {
		t.Fatalf("page 7 holds %d, want the remapped image's 2", buf[page.HeaderSize])
	}
}

// TestFlushAfterInvalidateOrDropWritesNothing: frames dropped or lost to
// InvalidateAll are never written, even though they were listed dirty.
func TestFlushAfterInvalidateOrDropWritesNothing(t *testing.T) {
	d := &recordDisk{MemDisk: storage.NewMemDisk()}
	p := NewPool(d, 64)
	for no := storage.PageNo(1); no <= 4; no++ {
		dirtyPage(t, p, no, 1)
	}
	p.InvalidateAll()
	if n := listLen(p); n != 0 {
		t.Fatalf("dirty list holds %d entries after InvalidateAll", n)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := d.take(); len(got) != 0 {
		t.Fatalf("flush after InvalidateAll wrote %v", got)
	}
	for no := storage.PageNo(1); no <= 4; no++ {
		dirtyPage(t, p, no, 2)
		p.Drop(no)
	}
	if n := listLen(p); n != 0 {
		t.Fatalf("dirty list holds %d entries after Drop", n)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := d.take(); len(got) != 0 {
		t.Fatalf("flush after Drop wrote %v", got)
	}
}

// TestDirtyListBounded: with no flush at all, over 10k cycles of dirtying
// pages that eviction then writes back and evicts, a frame leaves the list
// as it leaves the pool, so the list never exceeds the pool's capacity and
// ends holding only resident frames.
func TestDirtyListBounded(t *testing.T) {
	const capacity = 64
	p, _ := newPoolDisk(capacity)
	longest := 0
	for i := 0; i < 10_000; i++ {
		dirtyPage(t, p, storage.PageNo(1+i%(4*capacity)), byte(i))
		longest = max(longest, listLen(p))
	}
	if longest > capacity {
		t.Fatalf("dirty list reached %d entries, capacity %d", longest, capacity)
	}
	p.dirtyMu.Lock()
	listed := slices.Clone(p.dirtyList)
	p.dirtyMu.Unlock()
	for i, f := range listed {
		pt := p.part(f.pageNo)
		pt.mu.RLock()
		resident := f.valid && pt.frames[f.pageNo] == f
		pt.mu.RUnlock()
		if !resident || f.listIdx != i {
			t.Fatalf("entry %d (page %d, listIdx %d): resident %v", i, f.pageNo, f.listIdx, resident)
		}
	}
	if len(listed) < capacity/2 {
		t.Fatalf("dirty list ends with %d entries: the pool never filled with dirty frames, test is vacuous", len(listed))
	}
}

// TestFlushHelpersFollowPace walks the helper rule: one page is always
// written alone; the first multi-page flush runs with helpers and the
// second probes the lone pace; then the faster mode wins until it has run
// for probeShare times what a probe of the slower one costs. A probe's pace
// replaces the old one; otherwise a pace drops to a faster sample at once
// and rises toward a slower one gradually, so a mode that slows down
// loses to the other without a probe.
func TestFlushHelpersFollowPace(t *testing.T) {
	type decision struct{ helped, probe bool }
	p, _ := newPoolDisk(64)
	decide := func(n int) decision {
		h, pr := p.useHelpers(n)
		return decision{h, pr}
	}
	if got := decide(1); got != (decision{}) {
		t.Fatalf("one page: %+v", got)
	}
	if got := decide(2); got != (decision{true, true}) {
		t.Fatalf("first multi-page flush: %+v, want a probe with helpers", got)
	}
	p.notePace(true, true, 100)
	if got := decide(2); got != (decision{false, true}) {
		t.Fatalf("second multi-page flush: %+v, want a lone probe", got)
	}
	p.notePace(false, true, 1000)
	// Helpers run at 100 ns/page, alone at 1000: a lone probe costs 900
	// more per page, so it comes after 100*900/100 flushes with helpers.
	for i := 1; ; i++ {
		got := decide(8)
		if got.probe {
			if got.helped || i != probeShare*900/100 {
				t.Fatalf("probe at decision %d: %+v", i, got)
			}
			break
		}
		if !got.helped {
			t.Fatalf("decision %d ran alone at pace %d vs %d helped", i, p.pace[0], p.pace[1])
		}
	}
	p.notePace(false, true, 2000)
	if p.pace[0] != 2000 {
		t.Fatalf("a lone probe of 2000 ns/page left the lone pace at %d", p.pace[0])
	}
	p.notePace(true, false, 5000)
	if p.pace[1] >= p.pace[0] {
		t.Fatalf("one slow sample moved the helped pace to %d, past the lone %d", p.pace[1], p.pace[0])
	}
	for p.pace[1] <= p.pace[0] {
		p.notePace(true, false, 5000)
	}
	if got := decide(8); got.helped {
		t.Fatalf("helpers chosen at pace %d vs %d alone", p.pace[1], p.pace[0])
	}
	p.notePace(true, false, 50)
	if p.pace[1] != 50 {
		t.Fatalf("a fast sample left the helped pace at %d", p.pace[1])
	}
	if got := decide(8); !got.helped {
		t.Fatalf("helpers not chosen at pace %d vs %d alone", p.pace[1], p.pace[0])
	}
}

// TestFlushHelpersOnWaitingDevice: on a device that waits a millisecond
// per write, every flush of eight pages runs with helpers — the second
// only after writing its first page alone, to measure the lone pace — and
// every flushed page is counted once.
func TestFlushHelpersOnWaitingDevice(t *testing.T) {
	const (
		pages   = 8
		flushes = 12
	)
	rec := obs.New(0)
	p, d := newPoolDisk(64)
	p.SetObs(rec)
	d.SetLatency(0, time.Millisecond)
	for i := 0; i < flushes; i++ {
		for no := 1; no <= pages; no++ {
			dirtyPage(t, p, storage.PageNo(no), byte(i))
		}
		h0 := rec.Get(obs.FlushHelper)
		if err := p.FlushDirty(); err != nil {
			t.Fatal(err)
		}
		want := uint64(pages - 1)
		if i == 1 {
			want = pages - 2 // the lone probe writes its first page alone
		}
		if got := rec.Get(obs.FlushHelper) - h0; got != want {
			t.Fatalf("flush %d started %d helpers, want %d (pace alone %d ns/page, helped %d)",
				i, got, want, p.pace[0], p.pace[1])
		}
	}
	if got := rec.Get(obs.FlushPage); got != pages*flushes {
		t.Errorf("pool.flush.page = %d, want %d", got, pages*flushes)
	}
}

// TestFlushConcurrentWritersLoseNothing races writers (each bumps a counter
// in a page under its write latch) against back-to-back flushes over a
// working set larger than the pool, so evictions write back too. After a
// last flush every page's durable image must hold its cached counter, and
// the counters must add up to the number of bumps.
func TestFlushConcurrentWritersLoseNothing(t *testing.T) {
	const (
		pages   = 96
		writers = 4
		bumps   = 2000
	)
	d := storage.NewMemDisk()
	p := NewPool(d, 64)
	for no := storage.PageNo(1); no <= pages; no++ {
		dirtyPage(t, p, no, 0)
	}
	stop := make(chan struct{})
	flushed := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushed <- nil
				return
			default:
			}
			if err := p.FlushDirty(); err != nil {
				flushed <- err
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < bumps; i++ {
				f, err := p.Get(storage.PageNo(1 + rng.Intn(pages)))
				if err != nil {
					t.Error(err)
					return
				}
				f.WLatch()
				c := f.Data[page.HeaderSize+8:]
				binary.LittleEndian.PutUint64(c, binary.LittleEndian.Uint64(c)+1)
				f.MarkDirty()
				f.WUnlatch()
				f.Unpin()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	var total uint64
	buf := page.New()
	for no := storage.PageNo(1); no <= pages; no++ {
		f, err := p.Get(no)
		if err != nil {
			t.Fatal(err)
		}
		cached := binary.LittleEndian.Uint64(f.Data[page.HeaderSize+8:])
		f.Unpin()
		if err := d.ReadPage(no, buf); err != nil {
			t.Fatal(err)
		}
		if onDisk := binary.LittleEndian.Uint64(buf[page.HeaderSize+8:]); onDisk != cached {
			t.Fatalf("page %d: disk holds %d bumps, cache %d", no, onDisk, cached)
		}
		total += cached
	}
	if total != writers*bumps {
		t.Fatalf("counters add up to %d, want %d", total, writers*bumps)
	}
}
