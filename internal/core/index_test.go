package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/shard"
	"repro/internal/storage"
)

func shardKey(i int) []byte {
	return []byte(fmt.Sprintf("sk%05d", i))
}

// TestShardedInsertCommitFetch drives the full transactional path through a
// 4-shard index: inserts route by hash, commits force only the touched
// shards, lookups and visible fetches resolve through the router, and a
// range scan sees the union keyspace in global key order.
func TestShardedInsertCommitFetch(t *testing.T) {
	const n = 300
	rec := obs.New(64)
	db, err := Open(Memory(), Config{Variant: Shadow, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("t")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.OpenIndex("t_pk", Shadow, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", ix.Shards())
	}

	for i := 0; i < n; i++ {
		tx := db.Begin()
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}

	// Every key resolves through the router.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil {
			t.Fatalf("FetchVisible(%d): %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}

	// The hash actually spread the keys: every shard holds at least one.
	for s := 0; s < ix.Shards(); s++ {
		cnt := 0
		if err := ix.trees[s].Scan(nil, nil, func(k, v []byte) bool {
			if got := ix.r.Pick(k); got != s {
				t.Fatalf("shard %d holds key %q owned by shard %d", s, k, got)
			}
			cnt++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if cnt == 0 {
			t.Fatalf("shard %d is empty — hash did not spread %d keys", s, n)
		}
	}

	// Merged scan: all n keys, in global key order.
	var last []byte
	seen := 0
	err = ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("merged scan out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("merged scan saw %d keys, want %d", seen, n)
	}
	if rec.Get(obs.ShardScan) == 0 {
		t.Fatal("shard.scan not counted")
	}

	// Stats surfaces: per-shard pools appear in CacheStats and ShardStats.
	cs := db.CacheStats()
	for s := 0; s < 4; s++ {
		name := fmt.Sprintf("idx_t_pk.s%d", s)
		if _, ok := cs.Partitions[name]; !ok {
			t.Fatalf("CacheStats missing %q: %v", name, cs.Partitions)
		}
	}
	if st := ix.ShardStats(); len(st) != 4 {
		t.Fatalf("ShardStats len = %d", len(st))
	}
}

// TestShardedMetaMismatch: the shard count is persisted at create time and
// a reopen with a different count fails typed instead of misrouting keys.
func TestShardedMetaMismatch(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.OpenIndex("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	// Same handle, wrong count: refused while open.
	if _, err := db.OpenIndex("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("open-handle mismatch: %v, want ErrShardMismatch", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen with the wrong count: refused from the persisted meta.
	db2, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.OpenIndex("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen mismatch: %v, want ErrShardMismatch", err)
	}
	// The right count still works.
	if _, err := db2.OpenIndex("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	db3, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	// A one-tree open of the name is refused too.
	if _, err := db3.CreateIndex("x", Shadow); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("one-tree reopen: %v, want ErrShardMismatch", err)
	}
	if _, err := db3.OpenIndex("x", Shadow, 4); err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrashRecoveryParallel is the end-to-end fast-recovery story at
// shard scale: a crash leaves dirty state in every shard, restart does no
// log processing, and one parallel Recover sweep heals all shards
// concurrently — attested by per-shard timings and shard.recover counters —
// after which every committed key is visible and every in-flight key is not.
func TestShardedCrashRecoveryParallel(t *testing.T) {
	const nShards = 4
	const committed = 400
	store := Memory()
	db, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	rel, _ := db.CreateRelation("t")
	ix, err := db.OpenIndex("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	for i := 0; i < committed; i++ {
		tid, err := rel.Insert(tx, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	// A second transaction in flight when the machine dies: its inserts
	// have dirtied pages in every shard.
	tx2 := db.Begin()
	for i := committed; i < committed+200; i++ {
		tid, err := rel.Insert(tx2, append([]byte("row-"), shardKey(i)...))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx2, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	// Crash mid-sync: flush to the OS cache, keep every other pending page.
	for _, d := range MemoryDisks(store) {
		if err := d.CrashPartial(func(pending []storage.PageNo) []storage.PageNo {
			var out []storage.PageNo
			for i, no := range pending {
				if i%2 == 0 {
					out = append(out, no)
				}
			}
			return out
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Restart: reopen and run ONE parallel recovery sweep over all shards.
	rec := obs.New(obs.DefaultRingCap)
	db2, err := Open(store, Config{Variant: Shadow, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	rel2, _ := db2.CreateRelation("t")
	ix2, err := db2.OpenIndex("t_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}
	st, rep, err := ix2.Recover(true)
	if err != nil {
		t.Fatalf("parallel recover: %v", err)
	}
	if !st.Parallel || st.Shards != nShards || len(st.PerShard) != nShards {
		t.Fatalf("recovery stats: %+v", st)
	}
	for i, d := range st.PerShard {
		if d <= 0 {
			t.Fatalf("shard %d reported no recovery time", i)
		}
	}
	if len(rep.Skipped) != 0 {
		t.Fatalf("recovery quarantined %d ranges on clean repairs: %+v", len(rep.Skipped), rep)
	}
	if got := rec.Get(obs.ShardRecover); got != nShards {
		t.Fatalf("shard.recover = %d, want %d (one per shard)", got, nShards)
	}

	for i := 0; i < committed; i++ {
		data, err := ix2.FetchVisible(rel2, shardKey(i))
		if err != nil {
			t.Fatalf("committed key %d lost: %v", i, err)
		}
		if want := append([]byte("row-"), shardKey(i)...); !bytes.Equal(data, want) {
			t.Fatalf("key %d = %q", i, data)
		}
	}
	for i := committed; i < committed+200; i++ {
		_, err := ix2.FetchVisible(rel2, shardKey(i))
		if err == nil {
			t.Fatalf("uncommitted key %d visible after crash", i)
		}
		if !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("uncommitted key %d: unexpected error %v", i, err)
		}
	}
	if got := db2.Health(); got != Healthy {
		t.Fatalf("health after recovery = %v, want Healthy", got)
	}
}

// buildFaultyShardedDB is buildFaultyDB with the index partitioned across
// nShards trees on fault-injectable disks (tuple data = index key).
func buildFaultyShardedDB(t *testing.T, rec *obs.Recorder, n, nShards int) (*DB, Storage, *Relation, *Index) {
	t.Helper()
	st := FaultyMemory(storage.FaultConfig{})
	db, err := Open(st, Config{
		Variant: Shadow,
		Obs:     rec,
		Supervisor: SupervisorConfig{
			BaseBackoff: time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			GiveUpAfter: 50,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("acct")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.OpenIndex("acct_pk", Shadow, nShards)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < n; i++ {
		tid, err := rel.Insert(tx, shardKey(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, shardKey(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return db, st, rel, ix
}

// TestShardedSupervisorHealsAllShards quarantines a live leaf in EVERY
// shard, proves the degraded merged scan and the health machine see all of
// them (one HealthReport entry per shard file), then clears the faults and
// lets the parallel supervisor sweep heal every shard back to Healthy.
func TestShardedSupervisorHealsAllShards(t *testing.T) {
	const n = 2000
	const nShards = 4
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix := buildFaultyShardedDB(t, rec, n, nShards)
	defer db.Close()

	fds := FaultDisks(st)
	type hit struct {
		fd *storage.FaultDisk
		no storage.PageNo
	}
	var hits []hit
	for s := 0; s < nShards; s++ {
		fd := fds[fmt.Sprintf("idx_acct_pk.s%d", s)]
		if fd == nil {
			t.Fatalf("no fault disk for shard %d", s)
		}
		leaves := liveLeaves(t, fd, 1)
		if len(leaves) == 0 {
			t.Fatalf("shard %d has no live leaves — scenario is vacuous", s)
		}
		fd.AddPermanentBadSector(leaves[0])
		hits = append(hits, hit{fd, leaves[0]})
		ix.trees[s].Pool().InvalidateAll()
	}

	// Degraded merged scan: every emitted key correct and in order, one
	// skipped range reported per damaged shard.
	var last []byte
	emitted := make(map[string]bool)
	rep, err := ix.ScanDegraded(nil, nil, func(k []byte, tid heap.TID) bool {
		if last != nil && bytes.Compare(k, last) <= 0 {
			t.Fatalf("degraded merge out of order: %q after %q", k, last)
		}
		last = append(last[:0], k...)
		emitted[string(k)] = true
		return true
	})
	if err != nil {
		t.Fatalf("ScanDegraded: %v", err)
	}
	if len(rep.Skipped) < nShards {
		t.Fatalf("skipped %d ranges, want >= %d (one per damaged shard)", len(rep.Skipped), nShards)
	}
	if len(emitted) == n {
		t.Fatal("no key was skipped — scenario is vacuous")
	}

	if got := db.Health(); got != Degraded {
		t.Fatalf("health = %v, want Degraded", got)
	}
	hr := db.HealthReport()
	files := make(map[string]bool)
	for _, e := range hr.Quarantined {
		files[e.File] = true
	}
	for s := 0; s < nShards; s++ {
		if !files[fmt.Sprintf("idx_acct_pk.s%d", s)] {
			t.Fatalf("HealthReport missing shard %d entry: %+v", s, hr)
		}
	}

	// Supervisor with faults present: the parallel sweep attempts (and
	// fails) every shard's repair.
	db.SuperviseOnce()
	if rec.Get(obs.SupervisorFail) == 0 {
		t.Fatal("supervisor.fail not counted while faults persist")
	}

	// Faults clear; concurrent per-shard heals promote the DB to Healthy.
	for _, h := range hits {
		if !h.fd.ClearBadSector(h.no) {
			t.Fatalf("bad sector %d was not registered", h.no)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("DB never returned to Healthy; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if rec.Get(obs.SupervisorRepair) < uint64(nShards) {
		t.Fatalf("supervisor.repair = %d, want >= %d", rec.Get(obs.SupervisorRepair), nShards)
	}
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil || !bytes.Equal(data, shardKey(i)) {
			t.Fatalf("key %d after heal: %q, %v", i, data, err)
		}
	}
}

// TestShardedRebuildFromHeapRespectsRouting: when one shard's leaf is
// stably corrupted beyond repair, the supervisor abandons it and re-seeds
// from the heap — inserting ONLY keys the router hashes to that shard, so
// the rebuild never plants a key where lookups would miss it.
func TestShardedRebuildFromHeapRespectsRouting(t *testing.T) {
	const n = 2000
	const nShards = 4
	rec := obs.New(obs.DefaultRingCap)
	db, st, rel, ix := buildFaultyShardedDB(t, rec, n, nShards)
	defer db.Close()
	db.cfg.Supervisor.RebuildAfter = 1
	db.RegisterHeal(ix, rel, func(data []byte) []byte { return data })

	const victim = 1
	fd := FaultDisks(st)[fmt.Sprintf("idx_acct_pk.s%d", victim)]
	if fd == nil {
		t.Fatal("no fault disk for the victim shard")
	}
	leaves := liveLeaves(t, fd, 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf found")
	}
	if !fd.CorruptStable(leaves[0], func(img page.Page) { img[page.HeaderSize] ^= 0xFF }) {
		t.Fatalf("no durable image to corrupt at page %d", leaves[0])
	}
	ix.trees[victim].Pool().InvalidateAll()

	// First touch quarantines the subtree.
	rep, err := ix.ScanDegraded(nil, nil, func([]byte, heap.TID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("stable corruption did not quarantine anything — scenario is vacuous")
	}

	deadline := time.Now().Add(10 * time.Second)
	for db.Health() != Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("rebuild never completed; report: %+v", db.HealthReport())
		}
		time.Sleep(5 * time.Millisecond)
		db.SuperviseOnce()
	}
	if rec.Get(obs.RepairRebuild) == 0 {
		t.Fatal("repair.rebuild not counted")
	}

	// Every key is back, and the rebuilt shard holds only its own keys.
	for i := 0; i < n; i++ {
		data, err := ix.FetchVisible(rel, shardKey(i))
		if err != nil || !bytes.Equal(data, shardKey(i)) {
			t.Fatalf("key %d after rebuild: %q, %v", i, data, err)
		}
	}
	if err := ix.trees[victim].Scan(nil, nil, func(k, v []byte) bool {
		if got := ix.r.Pick(k); got != victim {
			t.Fatalf("rebuild planted key %q (shard %d) into shard %d", k, got, victim)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

// TestOneNameOneIndex: a name opens one index. Opening it again with the
// same tree count returns that index, so a key inserted through one
// handle is found through the other; opening it with another count fails
// with ErrShardMismatch, in either order, while open and from disk.
func TestOneNameOneIndex(t *testing.T) {
	store := Memory()
	db, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	one, err := db.CreateIndex("x", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateShardedIndex("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("one tree, then two: %v, want ErrShardMismatch", err)
	}
	two, err := db.CreateShardedIndex("y", Shadow, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateIndex("y", Shadow); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("two trees, then one: %v, want ErrShardMismatch", err)
	}
	tx := db.Begin()
	if err := one.InsertTID(tx, []byte("k"), heap.TID{PageNo: 1, Slot: 1}); err != nil {
		t.Fatal(err)
	}
	if err := two.InsertTID(tx, []byte("k"), heap.TID{PageNo: 1, Slot: 2}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sameOne, err := db.CreateShardedIndex("x", Shadow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tid, err := sameOne.LookupTID([]byte("k")); err != nil || tid.Slot != 1 {
		t.Fatalf("x through a second handle: %v, %v", tid, err)
	}
	sameTwo, err := db.CreateShardedIndex("y", Shadow, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tid, err := sameTwo.LookupTID([]byte("k")); err != nil || tid.Slot != 2 {
		t.Fatalf("y through a second handle: %v, %v", tid, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(store, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if _, err := db2.CreateShardedIndex("x", Shadow, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen x with two trees: %v, want ErrShardMismatch", err)
	}
	if _, err := db2.CreateIndex("y", Shadow); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("reopen y with one tree: %v, want ErrShardMismatch", err)
	}
}

func diffKey(i int) []byte { return []byte(fmt.Sprintf("dk%06d", i)) }

// errKind names an error by the sentinel callers test for.
func errKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrKeyNotFound):
		return "notfound"
	default:
		return err.Error()
	}
}

// TestIndexDifferentialOverTreeCounts runs one seeded sequence of index
// operations on indexes over 1, 2 and 4 trees and requires the same
// answers from each: the tree count is a layout choice, never a semantic
// one.
func TestIndexDifferentialOverTreeCounts(t *testing.T) {
	// Keys this router sends to tree 0 also land in one tree at N = 1 and
	// N = 2, since both divide 4.
	r4, err := shard.New(make([]shard.Tree, 4))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, n := range []int{1, 2, 4} {
		got := runDiffSequence(t, n, r4)
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("trees=%d answer %d differs from trees=1: %q", n, i, got[min(i, len(got)-1)])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trees=%d gave %d answers, trees=1 gave %d", n, len(got), len(want))
		}
	}
}

func runDiffSequence(t *testing.T, n int, r4 *shard.Router) []string {
	t.Helper()
	const keys = 4000
	rng := rand.New(rand.NewSource(13))
	st := FaultyMemory(storage.FaultConfig{})
	db, err := Open(st, Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rel, err := db.CreateRelation("d")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.OpenIndex("d_pk", Shadow, n)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	say := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	entries := make(map[string]heap.TID) // every index entry, live or dead
	insert := func(tx *Txn, i int) heap.TID {
		tid, err := rel.Insert(tx, diffKey(i))
		if err != nil {
			t.Fatal(err)
		}
		entries[string(diffKey(i))] = tid
		return tid
	}
	end := func(tx *Txn, commit bool) {
		if !commit {
			_ = tx.Abort()
		} else if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	perm := rng.Perm(keys)

	// InsertTID: committed transactions, then one that aborts.
	for b := 0; b <= 1600; b += 100 {
		tx := db.Begin()
		for _, i := range perm[b : b+100] {
			if err := ix.InsertTID(tx, diffKey(i), insert(tx, i)); err != nil {
				t.Fatal(err)
			}
		}
		end(tx, b < 1600)
	}
	// InsertTIDBatch: a batch spanning every tree, then one whose keys
	// all land in one tree.
	batch := func(ids []int) {
		tx := db.Begin()
		ks := make([][]byte, len(ids))
		tids := make([]heap.TID, len(ids))
		for j, i := range ids {
			ks[j], tids[j] = diffKey(i), insert(tx, i)
		}
		if err := ix.InsertTIDBatch(tx, ks, tids); err != nil {
			t.Fatal(err)
		}
		end(tx, true)
	}
	batch(perm[1700:3700])
	var oneTree []int
	for _, i := range perm[3700:] {
		if r4.Pick(diffKey(i)) == 0 {
			oneTree = append(oneTree, i)
		}
	}
	batch(oneTree)
	say("one-tree batch of %d keys", len(oneTree))

	// Point reads of every key: committed, aborted and never inserted.
	for i := 0; i < keys; i++ {
		tid, err := ix.LookupTID(diffKey(i))
		data, ferr := ix.FetchVisible(rel, diffKey(i))
		say("key %d: lookup %v %s, fetch %q %s", i, tid, errKind(err), data, errKind(ferr))
	}

	// A bounded scan that stops early.
	seen := 0
	if err := ix.Scan(diffKey(1000), diffKey(3000), func(k []byte, tid heap.TID) bool {
		say("scan %q %v", k, tid)
		seen++
		return seen < 300
	}); err != nil {
		t.Fatal(err)
	}

	// A degraded scan over a quarantined leaf of tree 0: every entry is
	// either emitted correctly or inside a reported skipped range.
	leaves := liveLeaves(t, FaultDisks(st)[ix.file(0)], 1)
	if len(leaves) == 0 {
		t.Fatal("no live leaf in tree 0")
	}
	ix.trees[0].Pool().QuarantinePage(leaves[0], "differential test", false)
	emitted := 0
	rep, err := ix.ScanDegraded(nil, nil, func(k []byte, tid heap.TID) bool {
		if want, ok := entries[string(k)]; !ok || want != tid {
			t.Fatalf("trees=%d degraded scan emitted %q -> %v, want %v", n, k, tid, want)
		}
		emitted++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() || emitted == len(entries) {
		t.Fatalf("trees=%d: nothing skipped, scenario is vacuous", n)
	}
	skipped := 0
	for k := range entries {
		for _, s := range rep.Skipped {
			if k >= string(s.Lo) && (s.Hi == nil || k < string(s.Hi)) {
				skipped++
				break
			}
		}
	}
	if emitted+skipped < len(entries) {
		t.Fatalf("trees=%d degraded scan lost entries: %d emitted + %d skipped < %d",
			n, emitted, skipped, len(entries))
	}
	say("degraded scan accounts for all %d entries", len(entries))

	// Rebuild from the heap: only committed versions come back.
	stats, err := ix.Rebuild(rel, func(data []byte) []byte { return data })
	if err != nil {
		t.Fatal(err)
	}
	say("rebuild: %d keys", stats.Keys)
	if err := ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		say("after rebuild %q %v", k, tid)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// A one-tree Index.Scan costs no more allocations than its tree's own
// scan. Every KV GET is one Index.Scan of a version run, so the merge
// cursor's per-entry copies must stay off this path.
func TestOneTreeScanAllocs(t *testing.T) {
	db, err := Open(Memory(), Config{Variant: Shadow})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ix, err := db.CreateIndex("a", Shadow)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for i := 0; i < 1000; i++ {
		if err := ix.InsertTID(tx, diffKey(i), heap.TID{PageNo: 1, Slot: uint16(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	lo, hi := diffKey(100), diffKey(120)
	var n int
	scan := func() {
		n = 0
		if err := ix.Scan(lo, hi, func([]byte, heap.TID) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
	}
	if scan(); n != 20 {
		t.Fatalf("scan visited %d entries, want 20", n)
	}
	viaIndex := testing.AllocsPerRun(100, scan)
	viaTree := testing.AllocsPerRun(100, func() {
		_ = ix.trees[0].Scan(lo, hi, func(_, _ []byte) bool { return true })
	})
	if viaIndex > viaTree {
		t.Fatalf("Index.Scan allocates %.0f per 20-entry scan, Tree.Scan %.0f", viaIndex, viaTree)
	}
}
