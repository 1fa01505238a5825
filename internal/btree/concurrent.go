package btree

// This file is the spec of the paper's §3.6 descent and implements its
// shared mode. Lookups, scans, AND inserts all run under the tree's shared
// lock; page access is ordered by per-frame latches (Lehman-Yao "locks"),
// splits serialize on the split lock (splitMu), and a structure-version
// seqlock tells readers when a split was in flight during their descent.
//
// One descent, two modes. Every root-to-leaf walk in the package is one of
// two functions, and both run the same page checks on every page they
// reach:
//
//   - The page checks (below): rootLinkOK and childLinkOK are the §3.3.1
//     link checks of a page against the meta page or its parent's range,
//     peerLinkOK the §3.5.1 check of a right-peer hop, and pageSettled the
//     §3.3.2 torn-line-table (lineTableTorn) and §3.4 pending-backup
//     (backupsPending) checks. They only read the page.
//   - The shared descent, descendShared, verifies and never repairs: a
//     failed check becomes classify(v) — a retry when a split in flight
//     explains it, otherwise errNeedsExclusive. It keeps only the leaf
//     pinned, or, for the splitMu holder, the whole path.
//   - The exclusive descent, descendPath (search.go), runs under the
//     exclusive tree lock and repairs what fails: repairRoot/repairChild
//     for a broken link, fixIntraPage for a torn line table,
//     mergeBackupsInto/resolveBackups for pending backups. predecessorLeaf
//     is the same descent choosing, at each level, the entry below the key.
//
// On top of the two descents sit one leaf update (insertShared, with
// insertSplitShared when the leaf is full or needs the §3.4 case (1)
// blocked sync), one right-peer hop (hopRight), one leaf reader (readLeaf),
// and one range walk per mode (scanShared; walkLocked in scan.go, which
// also serves degraded scans and recovery passes).
//
// Protocol summary:
//
//   - Descents hold at most one frame latch at a time, pinning the child
//     before releasing the parent (pin-before-unlatch, §3.6). Because no
//     reader ever waits for a latch while holding one, and the single
//     splitMu holder is the only thread that holds several latches at
//     once, latch acquisition is deadlock-free.
//   - structVer is incremented to odd before the first page of a
//     structural change (split, root growth) is modified and back to even
//     after the last — always under splitMu. A shared operation snapshots
//     the version first; any *negative* result (key not found, a failed
//     page check) is authoritative only if the version is still the same
//     even value. Positive results need no validation: deletes are
//     exclusive, so a found key was definitely present at some instant of
//     the operation. Under splitMu the version is even and cannot move, so
//     every failed check there is genuine.
//   - When validation fails the operation retries; after maxSharedRetries
//     (or on genuine damage: a failed check with a stable version) it
//     falls back to the exclusive path, which owns repairs. Repairs stay
//     exclusive exactly as the paper allows — recovery code may assume a
//     quiescent tree. A scan falls back at the cursor its shared walk
//     reached, so no pair is emitted twice.
//   - A lookup racing a split may land on a page whose keys just moved
//     right; it chases trusted right-peer links (§3.5.1 token-checked, the
//     B-link "move right" of Lehman-Yao) before giving up and retrying.
//
// Latch ordering: tree lock → splitMu → frame latch → pool partition
// mutex. The splitMu holder must never block on splitMu (trivially true)
// and no thread acquires splitMu while holding a frame latch; syncs
// (which flush under shared frame latches) run latch-free.

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

var (
	// errRetryShared reports a transient inconsistency caused by a
	// concurrent structural change: retry the shared path.
	errRetryShared = errors.New("btree: concurrent structural change, retry")
	// errNeedsExclusive reports that the operation must re-run under the
	// exclusive tree lock (repairs, empty-tree initialization, blocked
	// syncs discovered while holding a frame latch).
	errNeedsExclusive = errors.New("btree: operation requires exclusive mode")
)

const (
	// maxSharedRetries bounds optimistic retries before an operation
	// falls back to the exclusive lock.
	maxSharedRetries = 16
	// maxChaseHops bounds the §3.6 right-link chase of a lookup racing a
	// split.
	maxChaseHops = 4
	// maxSharedDepth bounds a shared descent; a deeper "tree" is a cycle
	// left by damage and is handed to the exclusive path.
	maxSharedDepth = 64
)

// retryBackoff pauses between optimistic shared-mode retries. Early
// attempts just yield; later ones sleep briefly with a growing bound — a
// split holds the structure version odd across real page I/O, so a pure
// spin exhausts its retry budget (and convoys every operation into the
// exclusive lock) long before the split can possibly finish.
func retryBackoff(attempt int) {
	if attempt < 4 {
		runtime.Gosched()
		return
	}
	time.Sleep(time.Duration(attempt-3) * 20 * time.Microsecond)
}

// beginStruct and endStruct bracket a structural change made in shared
// mode. Both are called with splitMu held, so the version is odd exactly
// while a split is reorganizing pages.
func (t *Tree) beginStruct() { t.structVer.Add(1) }
func (t *Tree) endStruct()   { t.structVer.Add(1) }

// structStable reports whether v is an even (no split in flight) version
// that still matches the current one: any negative result observed under
// it is authoritative.
func (t *Tree) structStable(v uint64) bool {
	return v%2 == 0 && t.structVer.Load() == v
}

// classify converts a failed shared-mode validation into the right
// sentinel: a stable version means the inconsistency is genuine (crash
// damage) and needs the exclusive repair path; otherwise a concurrent
// split explains it and a retry suffices.
func (t *Tree) classify(v uint64) error {
	if t.structStable(v) {
		return errNeedsExclusive
	}
	return errRetryShared
}

// The page checks. What a failed one means is up to the mode: see the
// spec at the top of this file.

// linkChecked reports whether this tree runs the §3.3.1 link checks.
func (t *Tree) linkChecked() bool { return t.protected() && !t.opts.DisableRangeCheck }

// rootLinkOK is the §3.3.1 check of the root: it must be an initialized
// page carrying the sync token the meta page recorded for it.
func (t *Tree) rootLinkOK(p page.Page, rootTok uint64) bool {
	if !t.linkChecked() {
		return true
	}
	t.Stats.RangeChecks.Add(1)
	return !p.IsZeroed() && p.Valid() && p.SyncToken() == rootTok
}

// childLinkOK is the §3.3.1 inter-page check of a page reached from its
// parent at the given level with the parent's range [lo, hi).
func (t *Tree) childLinkOK(p page.Page, level uint8, lo, hi []byte) bool {
	if !t.linkChecked() {
		return true
	}
	t.Stats.RangeChecks.Add(1)
	return childConsistent(p, level, lo, hi)
}

// peerLinkOK is the §3.5.1 check of a right-peer hop from leaf fromNo,
// whose right-peer token was fromTok: a link is trusted only while the
// tokens on its two ends agree, and only into a settled leaf.
func (t *Tree) peerLinkOK(p page.Page, fromNo uint32, fromTok uint64) bool {
	if !p.Valid() || p.Type() != page.TypeLeaf {
		return false
	}
	if !(t.opts.DisablePeerCheck && t.protected()) &&
		(p.LeftPeer() != fromNo || p.LeftPeerToken() != fromTok) {
		return false
	}
	return t.pageSettled(p)
}

// pageSettled reports that neither an interrupted line-table update
// (§3.3.2) nor pre-crash backup keys (§3.4) are pending on the page.
func (t *Tree) pageSettled(p page.Page) bool {
	return !t.lineTableTorn(p) && !t.backupsPending(p)
}

// lineTableTorn is the §3.3.2 intra-page check: an insert or delete
// interrupted by the crash left two line-table slots naming one item. A
// page whose line-clean flag is set was never snapshotted mid-update, so
// the O(n) duplicate scan runs only on first use of a page.
func (t *Tree) lineTableTorn(p page.Page) bool {
	return t.protected() && !p.HasFlag(page.FlagLineClean) && p.FindDuplicateSlot() >= 0
}

// backupsPending is the §3.4 check: the page still carries backup keys
// from a split made before the most recent crash, so its live key set may
// be only half the story until the backups are resolved.
func (t *Tree) backupsPending(p page.Page) bool {
	return t.protected() && p.PrevNKeys() != 0 && p.SyncToken() < t.counter.LastCrash()
}

// descendShared is the one shared-mode descent. It walks root-to-leaf
// holding one latch at a time, runs the page checks on every page, and
// returns the pinned (unlatched) leaf covering key with its range bounds;
// empty reports an empty tree. The bounds are staged in sc and alias its
// buffers: they are valid until the caller releases the scratch, and must
// be cloned to outlive it. A failed check is classified against version v;
// an odd v (a split in flight) is an immediate retry.
//
// With path non-nil every page on the way stays pinned and is appended to
// *path with cloned bounds and the entry index followed — the split lock
// holder needs the parents to link the halves in. On an error the descent
// releases the path itself and sets *path to nil.
func (t *Tree) descendShared(key []byte, v uint64, sc *descentScratch, path *[]pathEntry) (leaf *buffer.Frame, lo, hi []byte, empty bool, err error) {
	if v%2 != 0 {
		return nil, nil, nil, false, errRetryShared
	}
	mf, err := t.pool.Get(0)
	if err != nil {
		return nil, nil, nil, false, err
	}
	mf.RLatch()
	m := metaPage{mf.Data}
	no, rootTok := m.root(), m.rootToken()
	var f *buffer.Frame
	if no != 0 {
		f, err = t.pool.Get(no) // pin the child before releasing the parent's latch
	}
	mf.RUnlatch()
	mf.Unpin()
	if no == 0 || err != nil {
		return nil, nil, nil, no == 0, err
	}
	if path != nil {
		*path = append(*path, pathEntry{no: no, frame: f, idx: -1})
	}
	var level uint8
	for depth := 0; depth < maxSharedDepth; depth++ {
		f.RLatch()
		p := f.Data
		var linked bool
		if depth == 0 {
			linked = t.rootLinkOK(p, rootTok)
		} else {
			linked = t.childLinkOK(p, level, lo, hi)
		}
		// Shape is checked even where links are not: a stale pointer can
		// reach a freed or recycled page mid-split.
		if !linked || !p.Valid() || !t.pageSettled(p) {
			f.RUnlatch()
			break
		}
		if p.Type() == page.TypeLeaf {
			f.RUnlatch()
			return f, lo, hi, false, nil
		}
		if p.Type() != page.TypeInternal {
			f.RUnlatch()
			break
		}
		idx, serr := internalSearch(p, key)
		if serr != nil || idx < 0 {
			f.RUnlatch()
			break
		}
		it, cLo, cHi, serr := childLink(p, idx, lo, hi)
		if serr != nil {
			f.RUnlatch()
			break
		}
		// childLink returns slices into the latched page (or the bounds
		// staged at the previous level): stage into the scratch's other
		// buffer pair before the latch drops.
		lo, hi = sc.stage(cLo, cHi)
		level = p.Level() - 1
		var child *buffer.Frame
		child, err = t.pool.Get(it.child) // pin-before-unlatch
		f.RUnlatch()
		if err != nil {
			break
		}
		if path == nil {
			f.Unpin()
		} else {
			(*path)[len(*path)-1].idx = idx
			*path = append(*path, pathEntry{no: it.child, frame: child, lo: cloneBytes(lo), hi: cloneBytes(hi), idx: -1})
		}
		f = child
	}
	// A check failed, the child could not be read, or the depth bound
	// caught a cycle left by damage.
	if path == nil {
		f.Unpin()
	} else {
		releasePath(*path)
		*path = nil
	}
	if err == nil {
		err = t.classify(v)
	}
	return nil, nil, nil, false, err
}

// hopRight follows the right-peer link (rp, rtok) out of leaf fromNo and
// returns the pinned target when the link is trusted (peerLinkOK). A nil
// frame means the link is in doubt — missing, quarantined, or failing the
// check — and the caller goes back to a root-to-leaf descent, which has the
// range context to repair or report what it finds.
func (t *Tree) hopRight(fromNo, rp uint32, rtok uint64) (*buffer.Frame, error) {
	if rp == 0 {
		return nil, nil
	}
	f, err := t.pool.Get(rp)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			return nil, nil
		}
		return nil, err
	}
	f.RLatch()
	ok := t.peerLinkOK(f.Data, fromNo, rtok)
	f.RUnlatch()
	if !ok {
		f.Unpin()
		return nil, nil
	}
	t.obs.Count(obs.ChaseHop)
	return f, nil
}

// lookupShared is the shared-mode lookup body: one latched descent, a
// latched leaf search, and — when a concurrent split may have moved the
// key right — a bounded trusted-peer chase before retrying. On a hit the
// value is appended to dst (which may be nil), so a caller recycling its
// buffer pays no allocation.
func (t *Tree) lookupShared(key, dst []byte, v uint64) ([]byte, error) {
	sc := getDescent()
	defer putDescent(sc)
	f, _, _, empty, err := t.descendShared(key, v, sc, nil)
	if err != nil {
		return nil, err
	}
	if empty {
		if t.structStable(v) {
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		return nil, errRetryShared
	}
	for hop := 0; ; hop++ {
		f.RLatch()
		p := f.Data
		pos, found, serr := leafSearch(p, key)
		if serr != nil {
			f.RUnlatch()
			f.Unpin()
			return nil, t.classify(v)
		}
		if found {
			_, val, derr := decodeLeafItem(p.Item(pos))
			if derr != nil {
				f.RUnlatch()
				f.Unpin()
				return nil, t.classify(v)
			}
			out := append(dst, val...)
			f.RUnlatch()
			f.Unpin()
			return out, nil // positive results are authoritative
		}
		if t.structStable(v) {
			f.RUnlatch()
			f.Unpin()
			return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
		}
		// The structure moved under us. If the key sorts past this
		// page's largest key a split may have carried it right: chase
		// the peer link while the §3.5.1 tokens vouch for it.
		if hop >= maxChaseHops || p.NKeys() == 0 || pos < p.NKeys() {
			f.RUnlatch()
			f.Unpin()
			return nil, errRetryShared
		}
		rp, rtok := p.RightPeer(), p.RightPeerToken()
		f.RUnlatch()
		next, herr := t.hopRight(f.PageNo(), rp, rtok)
		f.Unpin()
		if herr != nil {
			return nil, herr
		}
		if next == nil {
			return nil, errRetryShared
		}
		f = next
	}
}

// errSplitNeeded reports that the leaf cannot take the first key of an
// insert run as it stands: it is full, or its backup keys need the §3.4
// case (1) blocked sync, which must not run under a frame latch.
// insertSplitShared handles both.
var errSplitNeeded = errors.New("btree: leaf needs a split or a blocked sync")

// insertShared is the one shared-mode leaf update: a latched descent to
// the leaf covering the first key, then — under that leaf's write latch —
// every leading key that belongs to the leaf and fits in it. The keys are
// keys[order[0]], keys[order[1]], ... in ascending order, each with the
// value at the same index; Insert passes one, InsertBatch the rest of its
// sorted batch. It returns how many leading keys were applied. A zero
// count with a sentinel means the update could not start; a duplicate key
// ends the run with ErrDuplicateKey after the keys before it. Counting the
// applied keys is the caller's job.
func (t *Tree) insertShared(keys, values [][]byte, order []int, v uint64) (int, error) {
	first := keys[order[0]]
	sc := getDescent()
	defer putDescent(sc)
	f, _, hi, empty, err := t.descendShared(first, v, sc, nil)
	if err != nil {
		return 0, err
	}
	if empty {
		return 0, errNeedsExclusive // createRootLeaf initializes meta state
	}
	f.WLatch()
	defer f.Unpin()
	defer f.WUnlatch()
	if !t.structStable(v) {
		// The leaf's identity came from a descent the structure has since
		// outrun; re-descend rather than reason about stale bounds.
		return 0, errRetryShared
	}
	// From here the leaf cannot change under us: leaf inserts need this
	// write latch, splits latch the leaf before reading it, and deletes
	// are exclusive.
	p := f.Data
	if t.needsPeerVerify(p) {
		return 0, errNeedsExclusive // §3.5.1 verification repairs peer links
	}
	if p.PrevNKeys() != 0 {
		// Reclaiming backups is an update: answer a duplicate first.
		if _, found, serr := leafSearch(p, first); serr != nil {
			return 0, t.classify(v)
		} else if found {
			return 0, fmt.Errorf("%w: %q", ErrDuplicateKey, first)
		}
		if t.protected() && p.SyncToken() == t.counter.Current() {
			// §3.4 reclaim case (1). insertSplitShared runs the blocked
			// sync under splitMu with the tree lock still shared, so
			// operations on other leaves keep flowing — going exclusive
			// here would convoy every shared op behind a full pool flush
			// each time a freshly split leaf is touched again.
			return 0, errSplitNeeded
		}
		reclaimBackups(p)
		f.MarkDirty()
		if t.protected() {
			t.Stats.BackupReclaims.Add(1)
			t.obs.Count(obs.BackupReclaim)
		}
	}
	applied := 0
	for _, i := range order {
		k, val := keys[i], values[i]
		if applied > 0 && hi != nil && bytes.Compare(k, hi) >= 0 {
			break // the next key belongs to a leaf further right
		}
		if !p.CanFit(leafItemLen(k, val)) {
			break
		}
		if err = insertLeaf(p, k, val); err != nil {
			if !errors.Is(err, ErrDuplicateKey) {
				err = t.classify(v)
			}
			break
		}
		applied++
	}
	if applied > 0 {
		f.MarkDirty()
	} else if err == nil {
		err = errSplitNeeded
	}
	return applied, err
}

// insertSplitShared performs a shared-mode insert whose leaf is full (or
// needs the §3.4 case (1) blocked sync): it takes the split lock,
// re-descends keeping the whole path pinned, re-validates the leaf under
// its write latch, and runs the split with the structure version held odd
// so concurrent negative results are retried.
func (t *Tree) insertSplitShared(key, value []byte) error {
	t.splitMu.Lock()
	defer t.splitMu.Unlock()

	// Under splitMu no split is in flight, so the version is even and
	// stable: a failed check classifies as errNeedsExclusive.
	sc := getDescent()
	defer putDescent(sc)
	path := newPath()
	_, _, _, empty, err := t.descendShared(key, t.structVer.Load(), sc, &path)
	defer releasePath(path)
	if err != nil {
		return err
	}
	if empty {
		return errNeedsExclusive
	}
	leafDepth := len(path) - 1
	leaf := &path[leafDepth]
	lf := leaf.frame
	lf.WLatch()
	if t.needsPeerVerify(lf.Data) {
		lf.WUnlatch()
		return errNeedsExclusive
	}
	if _, found, serr := leafSearch(lf.Data, key); serr != nil {
		lf.WUnlatch()
		return errNeedsExclusive
	} else if found {
		lf.WUnlatch()
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	// §3.4 reclaim. The blocked sync of case (1) runs with the latch
	// dropped — syncs flush pages under their shared latches.
	if t.protected() && lf.Data.PrevNKeys() != 0 && lf.Data.SyncToken() == t.counter.Current() {
		lf.WUnlatch()
		t.Stats.BlockedSyncs.Add(1)
		t.obs.Eventf(obs.BlockedSync, leaf.no, "reclaim case 1: backups not yet durable; forcing sync")
		if err := t.syncLocked(); err != nil {
			return err
		}
		lf.WLatch()
	}
	if lf.Data.PrevNKeys() != 0 {
		reclaimBackups(lf.Data)
		lf.MarkDirty()
		if t.protected() {
			t.Stats.BackupReclaims.Add(1)
			t.obs.Count(obs.BackupReclaim)
		}
	}
	if lf.Data.CanFit(leafItemLen(key, value)) {
		// Reclaiming backups (or a racing delete — impossible, they are
		// exclusive — or simply a stale fullness observation) made room.
		ierr := insertLeaf(lf.Data, key, value)
		if ierr == nil {
			lf.MarkDirty()
		}
		lf.WUnlatch()
		if ierr != nil {
			return errNeedsExclusive
		}
		return nil
	}
	lf.WUnlatch()

	// Structural change begins: hold the version odd until the new halves
	// are linked into the parent.
	t.beginStruct()
	defer t.endStruct()

	promo, err := t.splitPage(path, leafDepth, key)
	if err != nil {
		return err
	}
	targetNo := promo.lowNo
	if bytes.Compare(key, promo.sep) >= 0 {
		targetNo = promo.highNo
	}
	tf, err := t.pool.Get(targetNo)
	if err != nil {
		return err
	}
	tf.WLatch()
	// Re-check for a duplicate: a same-key insert with a smaller value
	// can slip into the half through the fast path between our latch
	// windows.
	_, found, serr := leafSearch(tf.Data, key)
	if serr != nil {
		tf.WUnlatch()
		tf.Unpin()
		return errNeedsExclusive
	}
	if found {
		tf.WUnlatch()
		tf.Unpin()
		return fmt.Errorf("%w: %q", ErrDuplicateKey, key)
	}
	ierr := insertLeaf(tf.Data, key, value)
	if ierr == nil {
		tf.MarkDirty()
	}
	tf.WUnlatch()
	tf.Unpin()
	if ierr != nil {
		return ierr
	}
	return nil
}

// scanShared is the shared-mode scan body: each leaf's pairs are collected
// under its latch, validated against the structure version, and only then
// emitted — so fn never sees data from a half-split state. It returns the
// cursor at which the exclusive walk should resume when err is one of the
// fallback sentinels.
func (t *Tree) scanShared(start, end []byte, fn func(key, value []byte) bool) ([]byte, error) {
	cur := start
	if cur == nil {
		cur = []byte{}
	}
	type pair struct{ k, v []byte }
	var buf []pair
	stash := func(k, v []byte) bool {
		buf = append(buf, pair{k: cloneBytes(k), v: cloneBytes(v)})
		return true
	}

	retries := 0
	retry := func() error {
		retries++
		t.obs.Count(obs.LatchRetry)
		if retries > maxSharedRetries {
			return errNeedsExclusive
		}
		retryBackoff(retries)
		return nil
	}

	for {
		v := t.structVer.Load()
		sc := getDescent()
		leaf, _, hi, empty, err := t.descendShared(cur, v, sc, nil)
		// The cursor advance below persists hi past this iteration's
		// descent, so detach it from the scratch before recycling.
		hi = cloneBytes(hi)
		putDescent(sc)
		if err == nil && empty {
			if t.structStable(v) {
				return cur, nil
			}
			err = errRetryShared
		}
		if errors.Is(err, errRetryShared) {
			if rerr := retry(); rerr != nil {
				return cur, rerr
			}
			continue
		}
		if err != nil {
			return cur, err
		}

		frame := leaf
		for fromDescent := true; ; fromDescent = false {
			frame.RLatch()
			buf = buf[:0]
			done, _, rerr := readLeaf(frame.Data, cur, end, stash)
			rp, rtok := frame.Data.RightPeer(), frame.Data.RightPeerToken()
			frame.RUnlatch()
			if rerr != nil || !t.structStable(v) {
				// Discard unvalidated pairs and re-descend at cur.
				frame.Unpin()
				if rerr := retry(); rerr != nil {
					return cur, rerr
				}
				break
			}
			retries = 0
			for _, pr := range buf {
				if !fn(pr.k, pr.v) {
					frame.Unpin()
					return cur, nil
				}
			}
			if done {
				frame.Unpin()
				return cur, nil
			}
			if len(buf) > 0 {
				cur = keySuccessor(buf[len(buf)-1].k)
			}
			if fromDescent {
				// The descent's upper bound is authoritative: the
				// cursor always moves past this leaf's range, so a
				// stale peer chain can cost extra descents but never a
				// livelock.
				if hi == nil {
					frame.Unpin()
					return cur, nil
				}
				cur = maxKeyBytes(cur, hi)
			} else if len(buf) == 0 {
				// A peer hop that yields nothing is suspicious (an
				// emptied or stale leaf): let the root path decide
				// where the scan really stands.
				frame.Unpin()
				break
			}
			next, herr := t.hopRight(frame.PageNo(), rp, rtok)
			frame.Unpin()
			if herr != nil {
				return cur, herr
			}
			if next == nil {
				break
			}
			frame = next
		}
	}
}
