package exthash

import (
	"sync/atomic"
	"testing"

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

// TestCleanOpenReadsOnlyMeta: after a clean Close, Open reads the meta
// page and nothing else; a crash open of the same index still walks its
// directory.
func TestCleanOpenReadsOnlyMeta(t *testing.T) {
	ix, d := newIdx(t)
	const n = 3000
	for i := 0; i < n; i++ {
		if err := ix.Insert(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := ix.nextNew
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	open := func() (*Index, int64) {
		t.Helper()
		rc := &readCounter{Disk: d}
		ix, err := Open(rc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if ix.nextNew != want {
			t.Fatalf("nextNew %d, want %d", ix.nextNew, want)
		}
		return ix, rc.reads.Load()
	}
	if _, reads := open(); reads != 1 {
		t.Fatalf("clean open read %d pages, want 1", reads)
	}
	// The clean open cleared the clean flag durably: this is a crash.
	if err := d.CrashPartial(func([]storage.PageNo) []storage.PageNo { return nil }); err != nil {
		t.Fatal(err)
	}
	ix, reads := open()
	if reads < 2 {
		t.Fatalf("crash open read %d pages; want the meta page and the directory", reads)
	}
	if c, err := ix.Count(); err != nil || c != n {
		t.Fatalf("Count = %d, %v; want %d", c, err, n)
	}
}
