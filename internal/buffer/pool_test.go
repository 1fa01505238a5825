package buffer

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/page"
	"repro/internal/storage"
)

func newPoolDisk(capacity int) (*Pool, *storage.MemDisk) {
	d := storage.NewMemDisk()
	return NewPool(d, capacity), d
}

func TestGetMissReadsFromDisk(t *testing.T) {
	p, d := newPoolDisk(8)
	img := page.New()
	img.Init(page.TypeLeaf, 0)
	img.SetSyncToken(77)
	if err := d.WritePage(2, img); err != nil {
		t.Fatal(err)
	}
	f, err := p.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	if f.Data.SyncToken() != 77 {
		t.Fatal("frame did not load disk contents")
	}
	if f.PageNo() != 2 {
		t.Fatalf("PageNo = %d", f.PageNo())
	}
}

func TestGetHitReturnsSameFrame(t *testing.T) {
	p, _ := newPoolDisk(8)
	f1, err := p.NewPage(1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Fatal("hit must return the cached frame")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
	f1.Unpin()
	f2.Unpin()
}

func TestGetBeyondEOFReturnsZeroPage(t *testing.T) {
	p, _ := newPoolDisk(8)
	f, err := p.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Unpin()
	if !f.Data.IsZeroed() {
		t.Fatal("page beyond EOF must be zeroed")
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p, _ := newPoolDisk(2)
	f0, _ := p.NewPage(0)
	f1, _ := p.NewPage(1)
	// Both pinned: a third page cannot be brought in.
	if _, err := p.Get(2); err == nil {
		t.Fatal("get must fail when every frame is pinned")
	}
	f0.Unpin()
	f2, err := p.Get(2)
	if err != nil {
		t.Fatalf("eviction of unpinned frame failed: %v", err)
	}
	f2.Unpin()
	f1.Unpin()
}

// TestPinWaitsForUnpin: with more goroutines each holding a pin than the
// stripe has frames, a miss that finds every frame pinned waits for an
// unpin instead of failing.
func TestPinWaitsForUnpin(t *testing.T) {
	p, _ := newPoolDisk(framesPerPartition)
	if p.Partitions() != 1 {
		t.Fatalf("%d stripes, want 1", p.Partitions())
	}
	const workers, rounds = 3 * framesPerPartition, 40
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				f, err := p.Get(storage.PageNo(w*rounds + r))
				if err != nil {
					errs <- err
					return
				}
				runtime.Gosched()
				f.Unpin()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPinWaitIsBounded: a miss whose stripe stays fully pinned fails
// after the wait bound rather than hanging.
func TestPinWaitIsBounded(t *testing.T) {
	p, _ := newPoolDisk(1)
	f, _ := p.NewPage(0)
	defer f.Unpin()
	start := time.Now()
	if _, err := p.Get(1); err == nil {
		t.Fatal("get must fail while the only frame stays pinned")
	}
	if waited := time.Since(start); waited < pinWaitBound {
		t.Fatalf("failed after %v, before the %v bound", waited, pinWaitBound)
	}
}

func TestEvictionWritesDirtyPage(t *testing.T) {
	p, d := newPoolDisk(1)
	f0, _ := p.NewPage(0)
	f0.Data.Init(page.TypeLeaf, 0)
	f0.Data.SetSyncToken(123)
	f0.MarkDirty()
	f0.Unpin()
	// Bringing in page 1 evicts page 0, which must reach the OS cache.
	f1, err := p.Get(1)
	if err != nil {
		t.Fatal(err)
	}
	f1.Unpin()
	buf := page.New()
	if err := d.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 123 {
		t.Fatal("dirty page lost at eviction")
	}
}

func TestSyncAllFlushesAndSyncs(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(3)
	f.Data.Init(page.TypeLeaf, 0)
	f.Data.SetSyncToken(9)
	f.MarkDirty()
	f.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	// A crash that loses all *pending* writes must keep the page: it was
	// synced, so there is nothing pending.
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	buf := page.New()
	if err := d.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 9 {
		t.Fatal("synced page did not survive crash")
	}
}

func TestRemapReplacesDiskIdentity(t *testing.T) {
	p, d := newPoolDisk(8)
	// Page 4 exists with old contents.
	old, _ := p.NewPage(4)
	old.Data.Init(page.TypeLeaf, 0)
	old.Data.SetSyncToken(1)
	old.MarkDirty()
	old.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}

	// Build a detached replacement (reorg split step 1/5).
	det := p.NewDetached()
	det.Data.Init(page.TypeLeaf, 0)
	det.Data.SetSyncToken(2)
	p.Remap(det, 4)

	got, err := p.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	if got != det || got.Data.SyncToken() != 2 {
		t.Fatal("Get after remap must return the remapped frame")
	}
	got.Unpin()

	// Before a sync the disk still holds the old image (that is the whole
	// point of the reorganization algorithm).
	buf := page.New()
	if err := d.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 1 {
		t.Fatal("remap must not touch the disk before sync")
	}

	det.Unpin()
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := d.ReadPage(4, buf); err != nil {
		t.Fatal(err)
	}
	if buf.SyncToken() != 2 {
		t.Fatal("sync must overwrite the original with the remapped page")
	}
}

func TestDropInvalidatesWithoutWriting(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(6)
	f.Data.Init(page.TypeLeaf, 0)
	f.MarkDirty()
	f.Unpin()
	p.Drop(6)
	if err := p.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if d.NumPages() > 0 {
		buf := page.New()
		if err := d.ReadPage(6, buf); err == nil && !buf.IsZeroed() {
			t.Fatal("dropped page must not be written")
		}
	}
}

func TestPinCount(t *testing.T) {
	p, _ := newPoolDisk(8)
	if p.PinCount(1) != 0 {
		t.Fatal("unbuffered page has pin count 0")
	}
	f, _ := p.NewPage(1)
	f.Pin()
	if p.PinCount(1) != 2 {
		t.Fatalf("PinCount = %d, want 2", p.PinCount(1))
	}
	f.Unpin()
	f.Unpin()
	if p.PinCount(1) != 0 {
		t.Fatal("pins not released")
	}
}

func TestUnpinUnderflowPanics(t *testing.T) {
	p, _ := newPoolDisk(8)
	f, _ := p.NewPage(0)
	f.Unpin()
	defer func() {
		if recover() == nil {
			t.Fatal("double unpin must panic")
		}
	}()
	f.Unpin()
}

func TestInvalidateAllSimulatesVolatileLoss(t *testing.T) {
	p, d := newPoolDisk(8)
	f, _ := p.NewPage(0)
	f.Data.Init(page.TypeLeaf, 0)
	f.Data.SetSyncToken(5)
	f.MarkDirty()
	f.Unpin()
	p.InvalidateAll()
	// The dirty page never reached storage: reading it again yields
	// whatever stable storage has (nothing).
	f2, err := p.Get(0)
	if err == nil {
		defer f2.Unpin()
		if !f2.Data.IsZeroed() {
			t.Fatal("invalidated dirty page must not survive")
		}
	}
	_ = d
}

func TestConcurrentGetSamePage(t *testing.T) {
	p, _ := newPoolDisk(64)
	f, _ := p.NewPage(0)
	f.Data.Init(page.TypeLeaf, 0)
	f.Unpin()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				fr, err := p.Get(0)
				if err != nil {
					t.Error(err)
					return
				}
				fr.RLatch()
				_ = fr.Data.Type()
				fr.RUnlatch()
				fr.Unpin()
			}
		}()
	}
	wg.Wait()
	if p.PinCount(0) != 0 {
		t.Fatal("pins leaked")
	}
}
