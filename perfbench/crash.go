package main

import (
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// crash-restart: one client, no flush daemon, a two-shard shadow index
// whose data fits in the pool. Each cycle commits a base set, leaves one
// transaction of uncommitted inserts among the committed keys (its splits
// move committed entries), writes every dirty page to the OS cache and
// crashes so that a seeded random half of the unsynced pages survives. It
// then restarts, runs the recovery sweep, checks every key, and reads a
// sample of keys on a cold pool.

const (
	crashShards      = 2
	crashBaseTxns    = 128 // committed keys have even ids 0, 2, ..., 2*8191
	crashUncommitted = 8192
	crashWriter      = 5 // writer id of committed values
	crashLoser       = 6 // writer id of uncommitted values
)

type crashDB struct {
	db  *core.DB
	rel *core.Relation
	ix  *core.ShardedIndex
}

func openCrash(store core.Storage, rec *obs.Recorder) (*crashDB, error) {
	db, err := core.Open(store, embeddedConfig(rec))
	if err != nil {
		return nil, err
	}
	rel, err := db.CreateRelation("crash")
	if err != nil {
		return nil, err
	}
	ix, err := db.CreateShardedIndex("crash_pk", core.Shadow, crashShards)
	if err != nil {
		return nil, err
	}
	return &crashDB{db: db, rel: rel, ix: ix}, nil
}

// crashBase commits the base set, one transaction per txnKeys keys, and
// returns each commit's latency.
func crashBase(r *run, d *crashDB) (samples, error) {
	var lat samples
	ids := make([]int64, txnKeys)
	for t := 0; t < crashBaseTxns; t++ {
		for i := range ids {
			ids[i] = int64(2 * (t*txnKeys + i))
		}
		commit, err := commitRows(r, d.db, d.rel, d.ix, ids, crashWriter)
		if err != nil {
			return nil, err
		}
		lat.add(commit)
	}
	return lat, nil
}

func crashCycle(r *run, cycle int) error {
	rec := obs.New(obs.DefaultRingCap)
	req := r.newReq()
	t0 := time.Now()
	store := core.Memory()
	d, err := openCrash(store, rec)
	if err != nil {
		return err
	}
	cycBefore := snapshot(d.db, store)
	commits, err := crashBase(r, d)
	if err != nil {
		return err
	}
	r.setup.add(time.Since(t0))
	r.tr.add(r.tr.id(), 0, req, "setup", t0, time.Now())
	r.write = append(r.write, commits...)
	nKeys := crashBaseTxns * txnKeys

	// The losing transaction: inserts at odd ids spread among the
	// committed keys, never committed.
	rng := rngFor(r.seed, int64(70000+cycle))
	tx := d.db.Begin()
	for _, i := range rng.Perm(nKeys)[:crashUncommitted] {
		id := int64(2*i + 1)
		tid, err := d.rel.Insert(tx, []byte(makeValue(id, crashLoser, id)))
		if err != nil {
			return err
		}
		if err := d.ix.InsertTID(tx, u64Key(id), tid); err != nil {
			return err
		}
	}
	r.cyc.addDelta(cycBefore, snapshot(d.db, store))
	r.freePages = countFreePages(d.db)
	if err := flushAndCrash(d.db, store, r.seed, cycle); err != nil {
		return err
	}
	runtime.GC() // the set-up's garbage is not the restart's cost

	recBefore := recCounters(rec)
	t0 = time.Now()
	d, err = openCrash(store, rec)
	if err != nil {
		return err
	}
	v, err := d.ix.FetchVisible(d.rel, u64Key(0))
	t1 := time.Now()
	r.tr.add(r.tr.id(), 0, req, "restart", t0, t1)
	r.restart.add(t1.Sub(t0))
	checkEmbeddedRead(r, 0, v, err)
	start := time.Now()
	st, _, err := d.ix.Recover(true)
	if err != nil {
		return err
	}
	r.recov.add(time.Since(start))
	r.tr.add(r.tr.id(), 0, req, "recover", start, time.Now())
	r.rec.addDelta(recBefore, recCounters(rec))
	r.shardWall.add(st.Wall)
	lo, hi := st.PerShard[0], st.PerShard[0]
	for _, p := range st.PerShard {
		lo, hi = min(lo, p), max(hi, p)
	}
	r.shardSkew = append(r.shardSkew, ratio(float64(hi), float64(lo)))
	r.height = treeHeight(d.db)

	want := make(map[int64]bool, nKeys)
	for i := 0; i < nKeys; i++ {
		want[int64(2*i)] = true
	}
	entries, err := verifyEntries(r, d.rel, d.ix, want)
	if err != nil {
		return err
	}
	r.entriesPerKey = append(r.entriesPerKey, float64(entries)/float64(nKeys))
	if err := d.db.Close(); err != nil {
		return err
	}
	r.pages = filePages(store)
	r.amp = append(r.amp, spaceAmp(store, nKeys*(8+valueLen)))

	// The read pass runs on a freshly opened DB, so every pool is cold.
	d, err = openCrash(store, rec)
	if err != nil {
		return err
	}
	winBefore := snapshot(d.db, store)
	var lat samples
	start = time.Now()
	for i := 0; i < embeddedReads; i++ {
		id := int64(2 * rng.Intn(nKeys))
		s := time.Now()
		v, err := d.ix.FetchVisible(d.rel, u64Key(id))
		lat.add(time.Since(s))
		checkEmbeddedRead(r, id, v, err)
	}
	elapsed := time.Since(start)
	r.measured(embeddedReads, elapsed)
	r.rate(embeddedReads / elapsed.Seconds())
	r.win.addDelta(winBefore, snapshot(d.db, store))
	r.read = append(r.read, lat...)
	return d.db.Close()
}

func crashExtra(r *run) []metric {
	return []metric{
		{"restart_ms", r.restart.median() / 1e3, "ms", len(r.restart)},
		{"recover_ms", r.recov.median() / 1e3, "ms", len(r.recov)},
		{"post_restart_ops_per_s", samples(r.rates).median(), "1/s", len(r.rates)},
	}
}
