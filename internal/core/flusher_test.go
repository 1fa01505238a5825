package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestFlushDaemonWritesColdDirt: pages dirtied by an in-flight transaction
// are written back by the daemon without any commit, so the eventual
// commit-time force finds them clean. The daemon must never touch the
// status table: the uncommitted tuples stay invisible throughout.
func TestFlushDaemonWritesColdDirt(t *testing.T) {
	store := Memory()
	rec := obs.New(64)
	db, err := Open(store, Config{FlushEvery: time.Millisecond, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	tid, err := rel.Insert(tx, []byte("cold"))
	if err != nil {
		t.Fatal(err)
	}

	// Wait for at least two daemon passes.
	deadline := time.Now().Add(2 * time.Second)
	for rec.Get(obs.FlushDaemon) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("flush daemon never ran")
		}
		time.Sleep(time.Millisecond)
	}

	// The dirty heap page reached the disk's stable store...
	d := MemoryDisks(store)["rel_t"]
	if len(d.PendingPages()) != 0 {
		t.Fatalf("heap pages still buffered after daemon flush: %v", d.PendingPages())
	}
	// ...but the tuple is still invisible: the daemon checkpoints data,
	// never commit status.
	if _, err := rel.Fetch(tid); err == nil {
		t.Fatal("uncommitted tuple visible after background flush")
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := rel.Fetch(tid); err != nil {
		t.Fatalf("tuple invisible after commit: %v", err)
	}
}

// TestCommitForceWritesOnlyDirtied: on a DB whose pools are clean, a
// one-row transaction's commit force writes exactly the pages the row
// dirtied — one heap page and one index leaf — and runs on the committing
// goroutine without starting a flush helper.
func TestCommitForceWritesOnlyDirtied(t *testing.T) {
	store := Memory()
	rec := obs.New(64)
	db, err := Open(store, Config{Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("t_pk", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	row := func(tx *Txn, i int) {
		t.Helper()
		key := []byte(fmt.Sprintf("k%06d", i))
		tid, err := rel.Insert(tx, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, key, tid); err != nil {
			t.Fatal(err)
		}
	}
	// Enough rows that both files span many pages, then a checkpoint.
	for b := 0; b < 20; b++ {
		tx := db.Begin()
		for i := 0; i < 100; i++ {
			row(tx, b*100+i)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}

	dataWrites := func() (n int) {
		for name, d := range MemoryDisks(store) {
			if name != "control" {
				w, _, _ := d.Stats()
				n += w
			}
		}
		return n
	}
	writes0, pages0, helpers0 := dataWrites(), rec.Get(obs.FlushPage), rec.Get(obs.FlushHelper)
	tx := db.Begin()
	row(tx, 1_000_000)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := rec.Get(obs.FlushPage) - pages0; got != 2 {
		t.Fatalf("commit force flushed %d pages, want 2 (the heap page and the leaf)", got)
	}
	if got := dataWrites() - writes0; got != 2 {
		t.Fatalf("commit force wrote %d data pages, want 2", got)
	}
	if got := rec.Get(obs.FlushHelper) - helpers0; got != 0 {
		t.Fatalf("commit force started %d flush helpers, want 0", got)
	}
}
