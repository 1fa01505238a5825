package btree

import (
	"bytes"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// readCounter counts the page reads an index issues against its disk.
type readCounter struct {
	storage.Disk
	reads atomic.Int64
}

func (d *readCounter) ReadPage(no storage.PageNo, buf page.Page) error {
	d.reads.Add(1)
	return d.Disk.ReadPage(no, buf)
}

// openCounted opens the tree over d through a read counter and returns
// the tree, the reads its Open issued, and the pages its walk counted.
func openCounted(t *testing.T, d storage.Disk, v Variant) (*Tree, int64, uint64) {
	t.Helper()
	rc := &readCounter{Disk: d}
	rec := obs.New(0)
	tr, err := Open(rc, v, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	return tr, rc.reads.Load(), rec.Get(obs.OpenWalkPage)
}

// TestCleanOpenReadsOnlyMeta: after a clean Close, Open takes the next
// fresh page number from the meta page instead of walking the tree, so a
// tree of over a thousand pages opens with one read. A crash open of the
// same tree still walks every page.
func TestCleanOpenReadsOnlyMeta(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("v"), 200)
	for i := 0; d.NumPages() < 1000; i++ {
		if err := tr.Insert(u32key(i), big); err != nil {
			t.Fatal(err)
		}
	}
	want := tr.nextNew
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr, reads, walked := openCounted(t, d, Shadow)
	if reads > 2 || walked != 0 {
		t.Fatalf("clean open: %d page reads, %d walked; want <= 2 and 0", reads, walked)
	}
	if tr.nextNew != want {
		t.Fatalf("clean open: nextNew %d, want %d", tr.nextNew, want)
	}
	// Crash right after the clean open: the open already cleared the
	// clean flag durably, so the next open must walk.
	if err := d.CrashPartial(func([]storage.PageNo) []storage.PageNo { return nil }); err != nil {
		t.Fatal(err)
	}
	tr, reads, walked = openCounted(t, d, Shadow)
	if walked < 1000 || reads != int64(walked)+1 {
		t.Fatalf("crash open: %d page reads, %d walked; want the meta page plus a walk of >= 1000", reads, walked)
	}
	if tr.nextNew != want {
		t.Fatalf("crash open: nextNew %d, want %d", tr.nextNew, want)
	}
}

// TestCleanCloseAfterLostExtension: a crash keeps a parent that points at
// split halves whose file extension was lost. The crash open's walk finds
// them beyond the end of the file; an immediate clean Close must carry that
// bound, not the file size, to the next open, or the next fresh pages would
// reuse the lost children's numbers and the lazy repair that rebuilds them
// there would overwrite live pages.
func TestCleanCloseAfterLostExtension(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Committed keys are multiples of 10; the later inserts fill the gaps
	// in the left of the key space, away from the lost split.
	const nPre = 3000
	for i := 0; i < nPre; i++ {
		mustInsert(t, tr, 10*i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	durable := d.NumPages()
	splits := tr.Stats.Splits.Load()
	for i := nPre; tr.Stats.Splits.Load() == splits; i++ {
		mustInsert(t, tr, 10*i)
	}
	if err := tr.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// The parent survives; the extension holding the split halves does not.
	err = d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
		var keep []storage.PageNo
		for _, no := range pending {
			if no < durable {
				keep = append(keep, no)
			}
		}
		return keep
	})
	if err != nil {
		t.Fatal(err)
	}

	tr, err = Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.nextNew <= d.NumPages() {
		t.Fatalf("scenario: no durable pointer past the end of the file (nextNew %d, %d pages)",
			tr.nextNew, d.NumPages())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	tr, _, walked := openCounted(t, d, Shadow)
	if walked != 0 {
		t.Fatalf("clean open walked %d pages", walked)
	}
	inserted := []int{}
	for i, start := 0, tr.nextNew; tr.nextNew < start+4; i++ {
		if i >= nPre {
			t.Fatal("no fresh pages allocated")
		}
		for j := 1; j < 10; j++ {
			k := 10*i + j
			mustInsert(t, tr, k)
			inserted = append(inserted, k)
		}
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nPre; i++ {
		mustLookup(t, tr, 10*i)
	}
	for _, k := range inserted {
		mustLookup(t, tr, k)
	}
	if err := tr.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Check(CheckStrict); err != nil {
		t.Fatal(err)
	}
}

// TestCloseCountsDroppedFreelist: a freelist too large for the meta page
// loses its tail at Close; the drops are counted, not silent.
func TestCloseCountsDroppedFreelist(t *testing.T) {
	d := storage.NewMemDisk()
	rec := obs.New(0)
	tr, err := Open(d, Shadow, Options{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	// Each entry carries two 400-byte bounds, so about ten fill the page.
	const n = 40
	lo, hi := bytes.Repeat([]byte("a"), 400), bytes.Repeat([]byte("b"), 400)
	for i := 0; i < n; i++ {
		tr.free.Put(tr.nextNew, lo, hi)
		tr.nextNew++
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	dropped := rec.Get(obs.FreelistDrop)
	if dropped == 0 || dropped >= n {
		t.Fatalf("freelist.drop = %d, want between 1 and %d", dropped, n-1)
	}
	tr, err = Open(d, Shadow, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if kept := len(tr.free.Entries()); uint64(kept)+dropped != n {
		t.Fatalf("reloaded %d entries + %d dropped != %d", kept, dropped, n)
	}
}

// TestCleanOpenWithoutMarkWalks: a file whose last clean shutdown recorded
// no next-page mark (written before the mark existed) still walks.
func TestCleanOpenWithoutMarkWalks(t *testing.T) {
	d := storage.NewMemDisk()
	tr, err := Open(d, Reorg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		mustInsert(t, tr, i)
	}
	if err := tr.Sync(); err != nil {
		t.Fatal(err)
	}
	want := tr.nextNew
	if err := tr.counter.CloseClean(0); err != nil {
		t.Fatal(err)
	}
	tr, _, walked := openCounted(t, d, Reorg)
	if walked == 0 {
		t.Fatal("open after a clean shutdown without a mark did not walk")
	}
	if tr.nextNew != want {
		t.Fatalf("nextNew %d, want %d", tr.nextNew, want)
	}
	mustLookup(t, tr, 1999)
}
