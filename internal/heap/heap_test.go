package heap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/storage"
)

// fakeStatus marks a fixed set of XIDs committed.
type fakeStatus map[XID]bool

func (f fakeStatus) Committed(x XID) bool { return f[x] }

// Active: no fake transaction is running, so every uncommitted XID is dead.
func (f fakeStatus) Active(XID) bool { return false }

func newRel(t *testing.T) (*Relation, *storage.MemDisk) {
	t.Helper()
	d := storage.NewMemDisk()
	r, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	return r, d
}

func TestTIDRoundTrip(t *testing.T) {
	tid := TID{PageNo: 0xDEADBEEF, Slot: 0xCAFE}
	got, err := ParseTID(tid.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got != tid {
		t.Fatalf("round trip: %v != %v", got, tid)
	}
	if _, err := ParseTID([]byte{1, 2, 3}); err == nil {
		t.Fatal("short TID must be rejected")
	}
	if s := tid.String(); s != "(3735928559,51966)" {
		t.Fatalf("String = %q", s)
	}
}

func TestInsertFetchVisible(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true}
	tid, err := r.Insert(5, []byte("hello"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := r.Fetch(tid, status)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, []byte("hello")) {
		t.Fatalf("Fetch = %q", data)
	}
}

func TestUncommittedTupleInvisible(t *testing.T) {
	r, _ := newRel(t)
	tid, err := r.Insert(9, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	// XID 9 never committed: the tuple is one of the "records pointed to
	// by invalid keys" the storage system detects and ignores (§2).
	if _, err := r.Fetch(tid, fakeStatus{}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("uncommitted tuple visible: %v", err)
	}
}

func TestDeleteVisibility(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true}
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 6, status); err != nil {
		t.Fatal(err)
	}
	// Deleter not committed: still visible.
	if _, err := r.Fetch(tid, status); err != nil {
		t.Fatalf("tuple with uncommitted deleter must stay visible: %v", err)
	}
	// Deleter commits: invisible.
	status[6] = true
	if _, err := r.Fetch(tid, status); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("deleted tuple visible: %v", err)
	}
	// Double delete fails.
	if err := r.Delete(tid, 7, status); err == nil {
		t.Fatal("double delete must fail")
	}
}

func TestUpdateCreatesNewVersion(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true, 6: true}
	tid1, err := r.Insert(5, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	tid2, err := r.Update(tid1, 6, []byte("v2"), status)
	if err != nil {
		t.Fatal(err)
	}
	if tid1 == tid2 {
		t.Fatal("update must not overwrite in place")
	}
	if _, err := r.Fetch(tid1, status); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("old version must be invisible to current reads")
	}
	data, err := r.Fetch(tid2, status)
	if err != nil || !bytes.Equal(data, []byte("v2")) {
		t.Fatalf("new version: %q, %v", data, err)
	}
}

func TestTimeTravelFetchAsOf(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true, 8: true}
	tid1, err := r.Insert(5, []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	tid2, err := r.Update(tid1, 8, []byte("v2"), status)
	if err != nil {
		t.Fatal(err)
	}
	// As of XID 6 (after 5 committed, before 8), v1 was current.
	data, err := r.FetchAsOf(tid1, status, 6)
	if err != nil || !bytes.Equal(data, []byte("v1")) {
		t.Fatalf("historical fetch: %q, %v", data, err)
	}
	// v2 did not exist yet as of 6.
	if _, err := r.FetchAsOf(tid2, status, 6); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("future version visible in the past")
	}
	// As of 8, v1 is deleted and v2 current.
	if _, err := r.FetchAsOf(tid1, status, 8); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatal("deleted version visible after deleter committed")
	}
	if _, err := r.FetchAsOf(tid2, status, 8); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderAndScanAll(t *testing.T) {
	r, _ := newRel(t)
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 7, fakeStatus{}); err != nil {
		t.Fatal(err)
	}
	xmin, xmax, err := r.Header(tid)
	if err != nil || xmin != 5 || xmax != 7 {
		t.Fatalf("Header = %d,%d,%v", xmin, xmax, err)
	}
	count := 0
	err = r.ScanAll(func(got TID, mn, mx XID, data []byte) bool {
		count++
		if got != tid || mn != 5 || mx != 7 || string(data) != "x" {
			t.Fatalf("ScanAll got %v %d %d %q", got, mn, mx, data)
		}
		return true
	})
	if err != nil || count != 1 {
		t.Fatalf("ScanAll count=%d err=%v", count, err)
	}
}

func TestMultiPageGrowth(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{1: true}
	var tids []TID
	payload := bytes.Repeat([]byte{'p'}, 500)
	for i := 0; i < 100; i++ {
		tid, err := r.Insert(1, append(payload, byte(i)))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if r.NumPages() < 5 {
		t.Fatalf("expected multi-page relation, got %d pages", r.NumPages())
	}
	for i, tid := range tids {
		data, err := r.Fetch(tid, status)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if data[len(data)-1] != byte(i) {
			t.Fatalf("tuple %d corrupted", i)
		}
	}
}

func TestCrashLosesUnsyncedTuples(t *testing.T) {
	d := storage.NewMemDisk()
	r, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	status := fakeStatus{1: true}
	tid1, err := r.Insert(1, []byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Insert(1, []byte("volatile")); err != nil {
		t.Fatal(err)
	}
	// Crash without sync: the second tuple is gone, the first survives.
	if err := r.Pool().FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if err := d.CrashPartial(storage.CrashNone); err != nil {
		t.Fatal(err)
	}
	r2, err := Open(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := r2.Fetch(tid1, status)
	if err != nil || !bytes.Equal(data, []byte("durable")) {
		t.Fatalf("synced tuple lost: %q, %v", data, err)
	}
}

func TestOversizedTupleRejected(t *testing.T) {
	r, _ := newRel(t)
	if _, err := r.Insert(1, bytes.Repeat([]byte{1}, 10000)); err == nil {
		t.Fatal("oversized tuple must be rejected")
	}
}

func TestFetchBadTID(t *testing.T) {
	r, _ := newRel(t)
	if _, err := r.Fetch(TID{PageNo: 99, Slot: 0}, fakeStatus{}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("fetch past EOF: %v", err)
	}
	tid, err := r.Insert(1, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	bad := TID{PageNo: tid.PageNo, Slot: 42}
	if _, err := r.Fetch(bad, fakeStatus{1: true}); !errors.Is(err, ErrNoSuchTuple) {
		t.Fatalf("fetch bad slot: %v", err)
	}
}

func ExampleTID_Bytes() {
	tid := TID{PageNo: 7, Slot: 3}
	parsed, _ := ParseTID(tid.Bytes())
	fmt.Println(parsed)
	// Output: (7,3)
}

// TestFetchInvisibleSentinels: the two ways a tuple can be invisible have
// their own sentinels, both still ErrNoSuchTuple, and building them
// allocates nothing beyond the tuple copy every Fetch makes.
func TestFetchInvisibleSentinels(t *testing.T) {
	r, _ := newRel(t)
	status := fakeStatus{5: true, 6: true}
	tidUncommitted, err := r.Insert(9, []byte("ghost"))
	if err != nil {
		t.Fatal(err)
	}
	tidDeleted, err := r.Insert(5, []byte("old"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tidDeleted, 6, status); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		tid  TID
		want error
	}{{tidUncommitted, ErrUncommitted}, {tidDeleted, ErrDeleted}}
	for _, c := range cases {
		_, err := r.Fetch(c.tid, status)
		if err != c.want || !errors.Is(err, ErrNoSuchTuple) {
			t.Fatalf("Fetch(%v) = %v, want %v matching ErrNoSuchTuple", c.tid, err, c.want)
		}
		allocs := testing.AllocsPerRun(100, func() { _, _ = r.Fetch(c.tid, status) })
		if allocs > 1 {
			t.Fatalf("Fetch(%v) of an invisible tuple: %.0f allocs, want <= 1", c.tid, allocs)
		}
	}
	if ErrUncommitted == ErrDeleted {
		t.Fatal("the two invisible cases share a sentinel")
	}
}

// runningStatus is a fakeStatus with a set of running transactions.
type runningStatus struct {
	fakeStatus
	running map[XID]bool
}

func (s runningStatus) Active(x XID) bool { return s.running[x] }

// TestDeleteXmaxOwnership: a stamp left by a dead transaction is taken
// over, one held by a running transaction is a conflict, one by a
// committed transaction means the tuple is gone, and the holder itself may
// stamp again.
func TestDeleteXmaxOwnership(t *testing.T) {
	r, _ := newRel(t)
	status := runningStatus{fakeStatus{5: true}, map[XID]bool{8: true}}
	tid, err := r.Insert(5, []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	// XID 6 stamps and dies (neither committed nor running).
	if err := r.Delete(tid, 6, status); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 7, status); err != nil {
		t.Fatalf("stamp of dead txn 6 must be taken over: %v", err)
	}
	if _, xmax, _ := r.Header(tid); xmax != 7 {
		t.Fatalf("xmax = %d, want 7", xmax)
	}
	// Running XID 8 takes over 7's dead stamp; 9 then conflicts.
	if err := r.Delete(tid, 8, status); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete(tid, 8, status); err != nil {
		t.Fatalf("re-stamp by the holder itself: %v", err)
	}
	if _, err := r.Update(tid, 9, []byte("y"), status); !errors.Is(err, ErrConflict) {
		t.Fatalf("update over a running holder: %v, want ErrConflict", err)
	}
	if _, xmax, _ := r.Header(tid); xmax != 8 {
		t.Fatalf("conflict changed xmax to %d", xmax)
	}
	// 8 commits: the tuple is deleted for good.
	delete(status.running, 8)
	status.fakeStatus[8] = true
	if err := r.Delete(tid, 9, status); err != ErrDeleted {
		t.Fatalf("delete of a committed-deleted tuple: %v, want ErrDeleted", err)
	}
}
