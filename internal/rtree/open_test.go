package rtree

import (
	"sync/atomic"
	"testing"

	"repro/internal/page"
	"repro/internal/storage"
)

// readCounter counts the page reads a tree issues against its disk.
type readCounter struct {
	storage.Disk
	reads atomic.Int64
}

func (d *readCounter) ReadPage(no storage.PageNo, buf page.Page) error {
	d.reads.Add(1)
	return d.Disk.ReadPage(no, buf)
}

// TestCleanOpenReadsOnlyMeta: after a clean Close, Open reads the meta
// page and nothing else; a crash open of the same tree still walks it.
func TestCleanOpenReadsOnlyMeta(t *testing.T) {
	tr, d := newTreeT(t)
	for i := 0; i < 3000; i++ {
		if err := tr.Insert(pointRect(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := tr.nextNew
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() (*Tree, int64) {
		t.Helper()
		rc := &readCounter{Disk: d}
		tr, err := Open(rc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tr.nextNew != want {
			t.Fatalf("nextNew %d, want %d", tr.nextNew, want)
		}
		return tr, rc.reads.Load()
	}
	if _, reads := open(); reads != 1 {
		t.Fatalf("clean open read %d pages, want 1", reads)
	}
	// The clean open cleared the clean flag durably: this is a crash.
	if err := d.CrashPartial(func([]storage.PageNo) []storage.PageNo { return nil }); err != nil {
		t.Fatal(err)
	}
	tr, reads := open()
	if reads < int64(d.NumPages())/2 {
		t.Fatalf("crash open read %d of %d pages; want a walk", reads, d.NumPages())
	}
	if n, err := tr.Count(); err != nil || n != 3000 {
		t.Fatalf("Count = %d, %v; want 3000", n, err)
	}
}
