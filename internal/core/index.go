package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/shard"
	"repro/internal/vacuum"
)

// Index is a crash-recoverable index over N >= 1 B-link trees behind an
// internal/shard router. Each tree owns its own page file, buffer-pool
// stripe set, sync counter (= sync domain), split lock, and quarantine
// registry. Point operations route lock-free by key hash; range scans
// merge the per-tree streams in key order; and post-crash repair — the
// paper's repair-on-first-use (§3.3/§3.4) — runs per tree in parallel,
// because no tree needs anything from another to heal. With one tree
// every call goes straight to it.
type Index struct {
	db    *DB
	name  string
	trees []*btree.Tree
	r     *shard.Router
}

// ShardedIndex is the older name of a multi-tree Index, kept so existing
// callers compile. Every operation is the embedded Index's.
type ShardedIndex struct{ *Index }

// Tree exposes tree i (stats, checks, tools).
func (s *ShardedIndex) Tree(i int) *btree.Tree { return s.trees[i] }

// ErrShardMismatch is returned when an index is opened with a different
// tree count than it was created with: the key->tree hash would route
// lookups to the wrong trees.
var ErrShardMismatch = errors.New("core: index opened with wrong shard count")

// KVIndex is the index surface the serving layer and tools route through.
type KVIndex interface {
	Name() string
	Shards() int
	ShardStats() []ShardStat
	InsertTID(t *Txn, key []byte, tid heap.TID) error
	InsertTIDBatch(t *Txn, keys [][]byte, tids []heap.TID) error
	LookupTID(key []byte) (heap.TID, error)
	FetchVisible(rel *Relation, key []byte) ([]byte, error)
	Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error
	ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error)
	BulkLoad(keys [][]byte, tids []heap.TID) error
	Rebuild(rel *Relation, keyOf vacuum.KeyOf) (RebuildStats, error)
}

var _ KVIndex = (*Index)(nil)

// shardMetaMagic marks page 0 of the shard-count meta file.
const shardMetaMagic = uint32(0x53484152) // "SHAR"

// CreateIndex opens (creating if absent) a one-tree index of the given
// variant.
func (db *DB) CreateIndex(name string, v Variant) (*Index, error) {
	return db.OpenIndex(name, v, 1)
}

// CreateShardedIndex is OpenIndex returning the older ShardedIndex name.
func (db *DB) CreateShardedIndex(name string, v Variant, nShards int) (*ShardedIndex, error) {
	ix, err := db.OpenIndex(name, v, nShards)
	if err != nil {
		return nil, err
	}
	return &ShardedIndex{ix}, nil
}

// OpenIndex opens (creating if absent) an index of the given variant over
// nTrees trees; nTrees <= 0 means one. One tree lives in idx_<name>; N > 1
// trees live in idx_<name>.s<i> beside idx_<name>.shards, which persists
// N. A name means one index: opening it again with the same count returns
// the open index, and with a different count — open or on disk, in either
// order — fails with ErrShardMismatch rather than silently misrouting keys.
func (db *DB) OpenIndex(name string, v Variant, nTrees int) (*Index, error) {
	nTrees = max(nTrees, 1)
	db.mu.Lock()
	defer db.mu.Unlock()
	if ix, ok := db.indexes[name]; ok {
		if len(ix.trees) != nTrees {
			return nil, fmt.Errorf("%w: %q is open with %d shards, requested %d",
				ErrShardMismatch, name, len(ix.trees), nTrees)
		}
		return ix, nil
	}
	if err := db.checkShardMeta(name, nTrees); err != nil {
		return nil, err
	}
	ix := &Index{db: db, name: name, trees: make([]*btree.Tree, nTrees)}
	legs := make([]shard.Tree, nTrees)
	for i := range ix.trees {
		d, err := db.store.open(ix.file(i))
		if err != nil {
			return nil, err
		}
		opts := db.cfg.IndexOptions
		if opts.PoolSize == 0 {
			opts.PoolSize = db.cfg.PoolSize
		}
		if opts.Obs == nil {
			opts.Obs = db.cfg.Obs
		}
		t, err := btree.Open(d, v, opts)
		if err != nil {
			return nil, err
		}
		db.attachPool(t.Pool())
		ix.trees[i], legs[i] = t, t
	}
	r, err := shard.New(legs)
	if err != nil {
		return nil, err
	}
	ix.r = r
	db.indexes[name] = ix
	return ix, nil
}

// file names tree i's page file.
func (ix *Index) file(i int) string {
	if len(ix.trees) == 1 {
		return "idx_" + ix.name
	}
	return fmt.Sprintf("idx_%s.s%d", ix.name, i)
}

// checkShardMeta verifies that the files already stored under name hold
// nTrees trees, and on the first open of a multi-tree index persists the
// count in a one-page meta file. The count is what makes the key->tree
// hash stable across restarts; a mismatch is a configuration error, not
// something to paper over. Called with db.mu held.
func (db *DB) checkShardMeta(name string, nTrees int) error {
	metaName := "idx_" + name + ".shards"
	stored := 0
	if db.store.exists(metaName) {
		n, err := db.readShardMeta(name, metaName)
		if err != nil {
			return err
		}
		if n == 1 {
			return fmt.Errorf("%w: %q holds one tree in the older idx_%s.s0 layout", ErrShardMismatch, name, name)
		}
		stored = n
	}
	if stored == 0 && db.store.exists("idx_"+name) {
		stored = 1
	}
	if stored != 0 && stored != nTrees {
		return fmt.Errorf("%w: %q was created with %d shards, requested %d",
			ErrShardMismatch, name, stored, nTrees)
	}
	if stored != 0 || nTrees == 1 {
		return nil
	}
	d, err := db.store.open(metaName)
	if err != nil {
		return err
	}
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	buf.Init(page.TypeMeta, 0)
	base := page.HeaderSize
	binary.BigEndian.PutUint32(buf[base:], shardMetaMagic)
	binary.BigEndian.PutUint32(buf[base+4:], uint32(nTrees))
	if err := d.WritePage(0, buf); err != nil {
		return err
	}
	return d.Sync()
}

// readShardMeta returns the tree count a meta file records, or 0 if the
// file holds no meta page yet.
func (db *DB) readShardMeta(name, metaName string) (int, error) {
	d, err := db.store.open(metaName)
	if err != nil || d.NumPages() == 0 {
		return 0, err
	}
	buf := page.GetScratch()
	defer page.PutScratch(buf)
	if err := d.ReadPage(0, buf); err != nil || buf.IsZeroed() {
		return 0, err
	}
	base := page.HeaderSize
	if binary.BigEndian.Uint32(buf[base:]) != shardMetaMagic {
		return 0, fmt.Errorf("core: %q shard meta page is not a shard meta page", name)
	}
	return int(binary.BigEndian.Uint32(buf[base+4:])), nil
}

// Name returns the index name.
func (ix *Index) Name() string { return ix.name }

// Shards returns the tree count.
func (ix *Index) Shards() int { return len(ix.trees) }

// Tree exposes the first underlying B-link tree — a one-tree index's only
// one (stats, checks, experiments).
func (ix *Index) Tree() *btree.Tree { return ix.trees[0] }

// tree returns the tree that owns key.
func (ix *Index) tree(key []byte) *btree.Tree { return ix.trees[ix.r.Pick(key)] }

// InsertTID adds key -> tid within the transaction. Duplicate key values
// must be made unique by the caller (POSTGRES appends the object ID, §2);
// MakeUnique does that. Only the key's tree joins the transaction's force
// set: a commit whose writes all landed in one tree syncs one domain, and
// a batch spanning trees still ends in ONE status append (internal/txn
// fans the per-domain forces out in parallel).
func (ix *Index) InsertTID(t *Txn, key []byte, tid heap.TID) error {
	if err := ix.db.writable(); err != nil {
		return err
	}
	tr := ix.tree(key)
	t.tx.Touch(tr)
	return tr.Insert(key, tid.Bytes())
}

// InsertTIDBatch adds every key -> tid pair within the transaction through
// the trees' batched insert path: one descent and one leaf latch per
// same-leaf run instead of per key. A one-tree index takes the batch
// whole; over several trees, keys are grouped by tree and the sub-batches
// apply in parallel. Every touched tree joins the transaction's force set
// before any insert runs. Semantics match a loop
// over InsertTID (duplicates must already be uniquified), except that on
// error a sorted prefix of the batch may have been applied — acceptable
// inside a transaction, whose commit/abort is what gives the batch its
// atomicity.
func (ix *Index) InsertTIDBatch(t *Txn, keys [][]byte, tids []heap.TID) error {
	if len(keys) != len(tids) {
		return fmt.Errorf("core: batch of %d keys with %d tids", len(keys), len(tids))
	}
	if err := ix.db.writable(); err != nil {
		return err
	}
	if len(keys) == 0 {
		return nil
	}
	values := make([][]byte, len(tids))
	for i := range tids {
		values[i] = tids[i].Bytes()
	}
	if len(ix.trees) == 1 {
		t.tx.Touch(ix.trees[0])
		return ix.trees[0].InsertBatch(keys, values)
	}
	subKeys := make([][][]byte, len(ix.trees))
	subVals := make([][][]byte, len(ix.trees))
	for i, k := range keys {
		s := ix.r.Pick(k)
		subKeys[s] = append(subKeys[s], k)
		subVals[s] = append(subVals[s], values[i])
	}
	for s := range subKeys {
		if len(subKeys[s]) > 0 {
			t.tx.Touch(ix.trees[s])
		}
	}
	return shard.Each(len(ix.trees), func(s int) error {
		if len(subKeys[s]) == 0 {
			return nil
		}
		return ix.trees[s].InsertBatch(subKeys[s], subVals[s])
	})
}

// LookupTID resolves a key to the TID it indexes. While degraded, a key
// inside a quarantined range fails with an error unwrapping to
// ErrQuarantined rather than a wrong answer; quarantine is per tree, so
// only keys routed to the damaged tree are affected.
func (ix *Index) LookupTID(key []byte) (heap.TID, error) {
	if err := ix.db.readable(); err != nil {
		return heap.TID{}, err
	}
	v, err := ix.tree(key).Lookup(key)
	if err != nil {
		return heap.TID{}, err
	}
	return heap.ParseTID(v)
}

// FetchVisible resolves key through the index and the relation, applying
// tuple visibility: a key left behind by a dead transaction is detected and
// ignored (§2), surfacing as ErrKeyNotFound.
func (ix *Index) FetchVisible(rel *Relation, key []byte) ([]byte, error) {
	tid, err := ix.LookupTID(key)
	if err != nil {
		return nil, err
	}
	data, err := rel.Fetch(tid)
	if errors.Is(err, heap.ErrNoSuchTuple) {
		return nil, fmt.Errorf("%w: %q (index key points at an invalid tuple)", ErrKeyNotFound, key)
	}
	return data, err
}

// Scan visits index entries in [start, end) in key order: over several
// trees, a k-way merge of the per-tree streams (keys are disjoint across
// trees).
func (ix *Index) Scan(start, end []byte, fn func(key []byte, tid heap.TID) bool) error {
	_, err := ix.scan(start, end, false, fn)
	return err
}

// ScanDegraded visits index entries in [start, end) like Scan, but steps
// over quarantined subtrees instead of failing, reporting each skipped key
// range: every entry it does emit is correct (skip-and-report, never
// wrong-and-silent), and a damaged tree never suppresses another tree's
// keys in its range.
func (ix *Index) ScanDegraded(start, end []byte, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error) {
	return ix.scan(start, end, true, fn)
}

func (ix *Index) scan(start, end []byte, degraded bool, fn func(key []byte, tid heap.TID) bool) (btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return btree.ScanReport{}, err
	}
	visit := tidVisitor(fn)
	if len(ix.trees) == 1 {
		// One tree is already in order: no merge cursor, no per-entry
		// copy, no goroutine, and a direct call keeps visit off the heap.
		if degraded {
			return ix.trees[0].ScanDegraded(start, end, visit)
		}
		return btree.ScanReport{}, ix.trees[0].Scan(start, end, visit)
	}
	ix.db.cfg.Obs.Count(obs.ShardScan)
	if degraded {
		return ix.r.ScanDegraded(start, end, visit)
	}
	return btree.ScanReport{}, ix.r.Scan(start, end, visit)
}

// tidVisitor adapts a key/TID visitor to the trees' key/value scans; an
// entry whose value is not a TID stops the scan.
func tidVisitor(fn func(key []byte, tid heap.TID) bool) func(k, v []byte) bool {
	return func(k, v []byte) bool {
		tid, err := heap.ParseTID(v)
		if err != nil {
			return false
		}
		return fn(k, tid)
	}
}

// Sync forces every tree (parallel fan-out across the sync domains).
func (ix *Index) Sync() error { return ix.r.Sync() }

// Recover runs the repair-on-first-use sweep over every tree — in
// parallel goroutines when parallel is set — returning per-tree and wall
// timings plus the merged skip report. This is the post-crash heal: after
// a restart it brings every pending §3.3/§3.4 repair forward instead of
// leaving it to first use, at 1/N of the sequential time.
func (ix *Index) Recover(parallel bool) (shard.RecoveryStats, btree.ScanReport, error) {
	if err := ix.db.readable(); err != nil {
		return shard.RecoveryStats{}, btree.ScanReport{}, err
	}
	return ix.r.Recover(parallel, ix.db.cfg.Obs)
}

// ShardStat is one tree's slice of the index's cache and quarantine
// state, the per-shard breakdown STATS serves at the wire level.
type ShardStat struct {
	Shard       int   `json:"shard"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Quarantined int   `json:"quarantined"`
}

// ShardStats snapshots every tree's buffer-cache counters and quarantine
// registry size.
func (ix *Index) ShardStats() []ShardStat {
	out := make([]ShardStat, len(ix.trees))
	for i, t := range ix.trees {
		h, m := t.Pool().Stats()
		out[i] = ShardStat{
			Shard: i, Hits: h, Misses: m,
			Quarantined: t.Pool().Quarantine().Len(),
		}
	}
	return out
}

// Indexes lists the open one-tree indexes, sorted by name.
func (db *DB) Indexes() []*Index {
	return db.listIndexes(func(ix *Index) bool { return len(ix.trees) == 1 })
}

// ShardedIndexes lists the open multi-tree indexes, sorted by name.
func (db *DB) ShardedIndexes() []*ShardedIndex {
	var out []*ShardedIndex
	for _, ix := range db.listIndexes(func(ix *Index) bool { return len(ix.trees) > 1 }) {
		out = append(out, &ShardedIndex{ix})
	}
	return out
}

func (db *DB) listIndexes(keep func(*Index) bool) []*Index {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []*Index
	for _, ix := range db.indexes {
		if keep(ix) {
			out = append(out, ix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
