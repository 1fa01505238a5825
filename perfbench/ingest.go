package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
)

// ingest-append: the embedded core API with no server. A goroutine runs
// transactions of 64 heap inserts, one batched index insert of globally
// ascending 8-byte keys, and a commit. A cycle then crashes the devices
// (a seeded random half of the unsynced pages survives), restarts,
// recovers, reads a sample of keys and re-reads every key.
//
// One goroutine, not two: with two, commits settled into runs of fast or
// slow phase alignment, and the commit p50 spread over ten seeds reached
// 0.37 on the 2-vCPU host; with one it is 0.04.

const (
	embeddedPool        = 256
	ingestWorkers       = 1
	txnKeys             = 64
	ingestBaseTxns      = 128 // set-up: 8192 keys committed by one goroutine
	ingestTxnsPerWorker = 400
	embeddedReads       = 2000 // post-restart point reads per cycle
	ingestWriter        = 3    // writer id of ingest values
	ingestRestarts      = 3
)

func embeddedConfig(rec *obs.Recorder) core.Config {
	return core.Config{Variant: core.Shadow, PoolSize: embeddedPool, Obs: rec}
}

type ingestDB struct {
	db  *core.DB
	rel *core.Relation
	ix  *core.Index
}

func openIngest(store core.Storage, rec *obs.Recorder) (*ingestDB, error) {
	db, err := core.Open(store, embeddedConfig(rec))
	if err != nil {
		return nil, err
	}
	rel, err := db.CreateRelation("ingest")
	if err != nil {
		return nil, err
	}
	ix, err := db.CreateIndex("ingest_pk", core.Shadow)
	if err != nil {
		return nil, err
	}
	return &ingestDB{db: db, rel: rel, ix: ix}, nil
}

// flushAndCrash writes every dirty heap and index page to the OS cache,
// then crashes every device so that a seeded random half of the unsynced
// pages survives.
func flushAndCrash(db *core.DB, store core.Storage, seed int64, cycle int) error {
	for _, rel := range db.Relations() {
		if err := rel.Heap().Pool().FlushDirty(); err != nil {
			return err
		}
	}
	for _, t := range trees(db) {
		if err := t.Pool().FlushDirty(); err != nil {
			return err
		}
	}
	pick := crashHalf(rngFor(seed, int64(50000+cycle)))
	for _, name := range sortedDisks(store) {
		if err := core.MemoryDisks(store)[name].CrashPartial(pick); err != nil {
			return err
		}
	}
	return nil
}

// commitRows runs one transaction: a heap insert per id, one batched
// index insert of the ids' keys, and a commit. It returns the commit
// latency.
func commitRows(r *run, db *core.DB, rel *core.Relation, ix core.KVIndex, ids []int64, writer int) (time.Duration, error) {
	req := r.newReq()
	root := r.tr.id()
	t0 := time.Now()
	tx := db.Begin()
	keys := make([][]byte, len(ids))
	tids := make([]heap.TID, len(ids))
	for i, id := range ids {
		keys[i] = u64Key(id)
		var err error
		r.tr.span(root, req, "core.heap_insert", func() {
			tids[i], err = rel.Insert(tx, []byte(makeValue(id, writer, id)))
		})
		if err != nil {
			tx.Abort()
			return 0, err
		}
	}
	var err error
	r.tr.span(root, req, "core.insert_batch", func() { err = ix.InsertTIDBatch(tx, keys, tids) })
	if err != nil {
		tx.Abort()
		return 0, err
	}
	cid := r.tr.id()
	c0 := time.Now()
	err = tx.Commit()
	c1 := time.Now()
	r.tr.add(cid, root, req, "txn.commit", c0, c1)
	r.tr.add(root, 0, req, "txn", t0, c1)
	return c1.Sub(c0), err
}

// ingestTxn commits keys [first, first+txnKeys).
func ingestTxn(r *run, d *ingestDB, first int64) (time.Duration, error) {
	ids := make([]int64, txnKeys)
	for i := range ids {
		ids[i] = first + int64(i)
	}
	return commitRows(r, d.db, d.rel, d.ix, ids, ingestWriter)
}

// idSet records the first key of every committed transaction.
type idSet struct {
	mu    sync.Mutex
	first []int64
}

func (s *idSet) add(first int64) {
	s.mu.Lock()
	s.first = append(s.first, first)
	s.mu.Unlock()
}

func ingestCycle(r *run, cycle int) error {
	rec := obs.New(obs.DefaultRingCap)
	t0 := time.Now()
	store := core.Memory()
	d, err := openIngest(store, rec)
	if err != nil {
		return err
	}
	cycBefore := snapshot(d.db, store)
	var next atomic.Int64
	var committed idSet
	for i := 0; i < ingestBaseTxns; i++ {
		first := next.Add(txnKeys) - txnKeys
		if _, err := ingestTxn(r, d, first); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		committed.add(first)
	}
	r.setup.add(time.Since(t0))

	winBefore := snapshot(d.db, store)
	start := time.Now()
	var wg sync.WaitGroup
	var keysDone atomic.Int64
	for w := 0; w < ingestWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat samples
			for i := 0; i < ingestTxnsPerWorker; i++ {
				first := next.Add(txnKeys) - txnKeys
				r.attempt(txnKeys)
				commit, err := ingestTxn(r, d, first)
				if err != nil {
					// Not retried: the keys stay absent, which the
					// verification below expects.
					r.failOps(txnKeys)
					continue
				}
				lat.add(commit)
				keysDone.Add(txnKeys)
				committed.add(first)
			}
			r.mu.Lock()
			r.write = append(r.write, lat...)
			r.mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	r.win.addDelta(winBefore, snapshot(d.db, store))
	r.measured(keysDone.Load(), elapsed)
	r.rate(float64(keysDone.Load()) / elapsed.Seconds())
	r.cyc.addDelta(cycBefore, snapshot(d.db, store))
	r.pages = filePages(store)
	r.freePages = countFreePages(d.db)
	nKeys := len(committed.first) * txnKeys
	r.amp = append(r.amp, spaceAmp(store, nKeys*(8+valueLen)))
	if err := flushAndCrash(d.db, store, r.seed, cycle); err != nil {
		return err
	}
	runtime.GC() // the ingest's garbage is not the restart's cost

	// The first restart follows the crash; the others follow a clean
	// close, so restart_ms and recover_ms get several samples a cycle.
	for i := 0; i < ingestRestarts; i++ {
		if i > 0 {
			if err := d.db.Close(); err != nil {
				return err
			}
		}
		if d, err = embeddedRestart(r, store, rec); err != nil {
			return err
		}
	}

	rng := rngFor(r.seed, int64(60000+cycle))
	var lat samples
	for i := 0; i < embeddedReads; i++ {
		first := committed.first[rng.Intn(len(committed.first))]
		id := first + int64(rng.Intn(txnKeys))
		s := time.Now()
		v, err := d.ix.FetchVisible(d.rel, u64Key(id))
		lat.add(time.Since(s))
		checkEmbeddedRead(r, id, v, err)
	}
	r.read = append(r.read, lat...)

	want := make(map[int64]bool, nKeys)
	for _, first := range committed.first {
		for k := int64(0); k < txnKeys; k++ {
			want[first+k] = true
		}
	}
	entries, err := verifyEntries(r, d.rel, d.ix, want)
	if err != nil {
		return err
	}
	r.entriesPerKey = append(r.entriesPerKey, float64(entries)/float64(nKeys))
	return d.db.Close()
}

// embeddedRestart reopens an ingest-append store: restart_ms runs from
// core.Open to the first answered read, recover_ms is the index's
// recovery sweep.
func embeddedRestart(r *run, store core.Storage, rec *obs.Recorder) (*ingestDB, error) {
	recBefore := recCounters(rec)
	req := r.newReq()
	t0 := time.Now()
	d, err := openIngest(store, rec)
	if err != nil {
		return nil, err
	}
	v, err := d.ix.FetchVisible(d.rel, u64Key(0))
	t1 := time.Now()
	r.tr.add(r.tr.id(), 0, req, "restart", t0, t1)
	r.restart.add(t1.Sub(t0))
	checkEmbeddedRead(r, 0, v, err)
	if _, err := d.ix.Tree().RecoverAvailable(); err != nil {
		return nil, err
	}
	t2 := time.Now()
	r.recov.add(t2.Sub(t1))
	r.tr.add(r.tr.id(), 0, req, "recover", t1, t2)
	r.rec.addDelta(recBefore, recCounters(rec))
	r.height = treeHeight(d.db)
	return d, nil
}

// checkEmbeddedRead checks a point read of committed key id.
func checkEmbeddedRead(r *run, id int64, v []byte, err error) {
	r.attempt(1)
	if err != nil {
		r.wrongf("read of committed key %d: %v", id, err)
		return
	}
	if tag, ok := parseValue(string(v)); !ok || tag.key != id {
		r.wrongf("read of key %d returned %q", id, v)
	}
}

// verifyEntries walks the whole index: every committed key must resolve
// to its own value exactly once, and no other entry may be visible. It
// returns the number of index entries.
func verifyEntries(r *run, rel *core.Relation, ix core.KVIndex, committed map[int64]bool) (int, error) {
	seen := make(map[int64]bool, len(committed))
	entries := 0
	err := ix.Scan(nil, nil, func(k []byte, tid heap.TID) bool {
		entries++
		id := keyID(k)
		// Any fetch error of an uncommitted entry is its invisibility;
		// one of a committed entry is reported as a lost key below.
		data, err := rel.Fetch(tid)
		visible := err == nil
		switch {
		case !committed[id] && visible:
			r.wrongf("uncommitted key %d is visible", id)
		case committed[id] && visible:
			if tag, ok := parseValue(string(data)); !ok || tag.key != id {
				r.wrongf("key %d holds %q", id, data)
			}
			if seen[id] {
				r.wrongf("key %d is visible twice", id)
			}
			seen[id] = true
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	r.attempt(int64(len(committed)))
	for id := range committed {
		if !seen[id] {
			r.wrongf("committed key %d is lost", id)
		}
	}
	return entries, nil
}

func ingestExtra(r *run) []metric {
	commit := r.write
	return []metric{
		{"ingest_keys_per_s", samples(r.rates).median(), "1/s", len(r.rates)},
		{"commit_p50_us", commit.median(), "us", len(commit)},
		{"commit_p99_us", commit.tail(0.99), "us", len(commit)},
		{"space_amp", samples(r.amp).median(), "ratio", len(r.amp)},
	}
}
