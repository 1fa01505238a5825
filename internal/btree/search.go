package btree

import (
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// pathEntry records one level of a root-to-leaf descent.
type pathEntry struct {
	no     uint32
	frame  *buffer.Frame // pinned for the lifetime of the path
	lo, hi []byte        // expected key range (nil = unbounded)
	idx    int           // entry index followed to the child below (-1 at the leaf)
}

// releasePath unpins every frame on the path and recycles the slice; the
// caller must not touch the path afterwards. Entry bounds that must
// outlive the release are cloned by their takers (they are independent
// heap bytes, so value copies of an entry stay valid).
func releasePath(path []pathEntry) {
	for _, e := range path {
		e.frame.Unpin()
	}
	putPath(path)
}

// protected reports whether this variant performs crash detection at all.
func (t *Tree) protected() bool { return t.variant != Normal }

// getRoot pins and returns the meta frame and the verified root frame,
// repairing what the page checks find on the root. rootNo is 0 for an
// empty tree (rootFrame nil; metaFrame still pinned).
func (t *Tree) getRoot() (metaFrame *buffer.Frame, rootFrame *buffer.Frame, rootNo uint32, err error) {
	metaFrame, err = t.pool.Get(0)
	if err != nil {
		return nil, nil, 0, err
	}
	m := metaPage{metaFrame.Data}
	rootNo = m.root()
	if rootNo == 0 {
		return metaFrame, nil, 0, nil
	}
	rootFrame, err = t.pool.Get(rootNo)
	if err != nil {
		metaFrame.Unpin()
		if errors.Is(err, buffer.ErrQuarantined) {
			// The root covers the whole key space; surface that range.
			return nil, nil, 0, asRangeError(rootNo, nil, nil, err)
		}
		return nil, nil, 0, err
	}
	if !t.rootLinkOK(rootFrame.Data, m.rootToken()) {
		if err := t.repairRoot(metaFrame, rootFrame); err != nil {
			rootFrame.Unpin()
			metaFrame.Unpin()
			if errors.Is(err, ErrUnrecoverable) || errors.Is(err, buffer.ErrQuarantined) {
				// A root with no durable source takes the whole key
				// space down with it: quarantine as critical so the
				// health-state machine forces ReadOnly.
				return nil, nil, 0, t.quarantineSubtree(rootNo, nil, nil, true, err)
			}
			return nil, nil, 0, err
		}
	}
	t.fixIntraPage(rootFrame)
	// A root still carrying backup keys from before the last crash is
	// the pre-split page of an uncommitted root split: its range is the
	// whole key space, so the backups fold straight back in (§3.4 cases
	// (a)/(b) at the top of the tree).
	if t.backupsPending(rootFrame.Data) {
		caseMetric := t.reorgCaseAB(rootFrame.Data)
		if err := t.mergeBackupsInto(rootFrame); err != nil {
			rootFrame.Unpin()
			metaFrame.Unpin()
			return nil, nil, 0, err
		}
		t.Stats.RepairsInterPage.Add(1)
		t.obs.Eventf(caseMetric, rootNo, "uncommitted root split; backups folded back")
		metaPage{metaFrame.Data}.setRootToken(rootFrame.Data.SyncToken())
		metaFrame.MarkDirty()
	}
	return metaFrame, rootFrame, rootNo, nil
}

// fixIntraPage repairs duplicate line-table offsets left by an interrupted
// insert (§3.3.1–3.3.2), and flags a page found clean so later accesses
// skip the duplicate scan.
func (t *Tree) fixIntraPage(f *buffer.Frame) {
	p := f.Data
	if !t.protected() || p.IsZeroed() || p.HasFlag(page.FlagLineClean) {
		return
	}
	if t.lineTableTorn(p) {
		n := p.RepairDuplicates()
		t.Stats.RepairsIntraPage.Add(uint64(n))
		t.obs.Eventf(obs.RepairIntraPage, uint32(f.PageNo()), "%d duplicate line-table entries removed", n)
	}
	p.AddFlag(page.FlagLineClean)
	f.MarkDirty()
}

// descendPath is the one exclusive-mode descent: it walks from the root to
// the leaf whose range contains key, running the page checks on every page
// and repairing what fails (§3.3/§3.4). Every frame on the returned path is
// pinned (the paper's §3.6 pin-before-release discipline, held for the
// whole operation because writers are exclusive here).
//
// A nil path with nil error means the tree is empty.
func (t *Tree) descendPath(key []byte) ([]pathEntry, error) { return t.descend(key, false) }

// predecessorLeaf descends to the leaf holding the largest keys strictly
// below bound: the left neighbor of the leaf whose range starts at bound.
// It returns nil when no such leaf exists; otherwise only the returned
// leaf is pinned and the caller must unpin it.
func (t *Tree) predecessorLeaf(bound []byte) (*pathEntry, error) {
	path, err := t.descend(bound, true)
	if err != nil || path == nil {
		return nil, err
	}
	leaf := leafOf(path)
	return &leaf, nil
}

// descend is the body of both exclusive descents. pred selects, at every
// internal level, the entry below key (internalSearchPred) instead of the
// entry covering it; a pred descent that finds every key of a subtree at or
// above key returns a nil path.
func (t *Tree) descend(key []byte, pred bool) ([]pathEntry, error) {
	metaFrame, rootFrame, rootNo, err := t.getRoot()
	if err != nil {
		return nil, err
	}
	metaFrame.Unpin()
	if rootNo == 0 {
		return nil, nil
	}
	search := internalSearch
	if pred {
		search = internalSearchPred
	}
	path := append(newPath(), pathEntry{no: rootNo, frame: rootFrame, idx: -1})
	for {
		cur := &path[len(path)-1]
		p := cur.frame.Data
		if p.Type() == page.TypeLeaf {
			return path, nil
		}
		if p.Type() != page.TypeInternal {
			releasePath(path)
			return nil, fmt.Errorf("%w: page %d has type %v on the descent path",
				ErrUnrecoverable, cur.no, p.Type())
		}
		for attempt := 0; ; attempt++ {
			idx, err := search(p, key)
			if err != nil {
				releasePath(path)
				return nil, err
			}
			if idx < 0 {
				releasePath(path)
				if pred {
					return nil, nil // everything in this subtree is >= key
				}
				return nil, fmt.Errorf("%w: internal page %d is empty", ErrUnrecoverable, cur.no)
			}
			cur.idx = idx
			child, err := t.loadChild(cur, idx)
			if errors.Is(err, errEntryDropped) && attempt < 8 {
				// The repair removed the entry we were following;
				// re-select on the updated parent.
				continue
			}
			if err != nil {
				releasePath(path)
				return nil, err
			}
			path = append(path, child)
			break
		}
	}
}

// leafOf keeps only the leaf of path pinned and recycles the rest. The
// leaf's bounds are cloned: they point into parent pages, which may be
// evicted or repaired once unpinned.
func leafOf(path []pathEntry) pathEntry {
	leaf := path[len(path)-1]
	leaf.lo, leaf.hi = cloneBytes(leaf.lo), cloneBytes(leaf.hi)
	for _, e := range path[:len(path)-1] {
		e.frame.Unpin()
	}
	putPath(path)
	return leaf
}

// loadChild reads the child at entry idx of the internal page held by
// parent, runs the page checks on it and repairs what fails. It returns
// the child's path entry with its frame pinned.
func (t *Tree) loadChild(parent *pathEntry, idx int) (pathEntry, error) {
	p := parent.frame.Data
	it, cLo, cHi, err := childLink(p, idx, parent.lo, parent.hi)
	if err != nil {
		return pathEntry{}, err
	}
	childNo := it.child
	childFrame, err := t.pool.Get(childNo)
	if err != nil {
		if errors.Is(err, buffer.ErrQuarantined) {
			// Attach the prescribed subtree range to the pool-level error
			// (and record it in the registry for scans and the supervisor).
			t.pool.Quarantine().SetRange(childNo, cLo, cHi)
			return pathEntry{}, asRangeError(childNo, cLo, cHi, err)
		}
		return pathEntry{}, err
	}
	if !t.childLinkOK(childFrame.Data, p.Level()-1, cLo, cHi) {
		if err := t.repairChild(parent, idx, it, childFrame, cLo, cHi); err != nil {
			childFrame.Unpin()
			if errors.Is(err, ErrUnrecoverable) || errors.Is(err, buffer.ErrQuarantined) {
				// Repair has no durable source (or its source is itself
				// quarantined): withdraw the subtree instead of failing
				// the DB, and degrade gracefully.
				return pathEntry{}, t.quarantineSubtree(childNo, cLo, cHi, false, err)
			}
			return pathEntry{}, err
		}
	}
	t.fixIntraPage(childFrame)
	// Reorg: a page still carrying backup keys from before the most
	// recent crash must resolve them before it can be used (§3.4,
	// free-space reclaim case 3) — and before a lookup can trust its live
	// key set.
	if t.backupsPending(childFrame.Data) {
		if err := t.resolveBackups(parent, idx, childFrame, cLo, cHi); err != nil {
			childFrame.Unpin()
			return pathEntry{}, err
		}
	}
	return pathEntry{no: childNo, frame: childFrame, lo: cLo, hi: cHi, idx: -1}, nil
}

// childConsistent implements the inter-page check of §3.3.1: the child must
// be an initialized page of the right type and level whose smallest and
// largest keys fall inside the range the parent prescribes. A page of all
// zeros — never written before the crash — is inconsistent by definition.
func childConsistent(child page.Page, level uint8, lo, hi []byte) bool {
	if child.IsZeroed() || !child.Valid() {
		return false
	}
	wantType := page.TypeLeaf
	if level > 0 {
		wantType = page.TypeInternal
	}
	if child.Type() != wantType || child.Level() != level {
		return false
	}
	minKey, maxKey, ok, err := minMaxKeys(child)
	if err != nil {
		// Structurally unreadable items: treat as inconsistent and let
		// repair rebuild the page rather than failing the operation.
		return false
	}
	// An empty page cannot be range-checked; pages produced by splits are
	// never empty, so this is a page legitimately emptied by deletions.
	return !ok || keyInRange(minKey, lo, hi) && keyInRange(maxKey, lo, hi)
}

// Lookup returns the value stored under key. Concurrent lookups run in
// parallel; if a crash left damage on the path, the lookup upgrades to the
// exclusive lock, repairs, and retries — recovery on first use.
func (t *Tree) Lookup(key []byte) ([]byte, error) {
	return t.LookupInto(key, nil)
}

// LookupInto is Lookup with caller-owned result storage: the value is
// appended to dst (which may be nil) and the extended slice returned. A
// caller that recycles dst across calls makes a warm hit allocation-free;
// Lookup itself is LookupInto with a nil dst.
func (t *Tree) LookupInto(key, dst []byte) ([]byte, error) {
	if err := validateKey(key); err != nil {
		return nil, err
	}
	t.Stats.Lookups.Add(1)
	for attempt := 0; attempt < maxSharedRetries; attempt++ {
		t.mu.RLock()
		val, err := t.lookupShared(key, dst, t.structVer.Load())
		t.mu.RUnlock()
		if errors.Is(err, errRetryShared) {
			t.obs.Count(obs.LatchRetry)
			retryBackoff(attempt)
			continue
		}
		if errors.Is(err, errNeedsExclusive) || errors.Is(err, buffer.ErrQuarantined) {
			// Quarantine errors fall through too: the exclusive descent
			// attaches the prescribed key range to the typed error.
			break
		}
		return val, err
	}
	// Fall back to the exclusive path, which may repair.
	t.obs.Count(obs.ExclusiveFallback)
	t.mu.Lock()
	defer t.mu.Unlock()
	val, err := t.lookupLocked(key)
	if err != nil || dst == nil {
		return val, err
	}
	return append(dst, val...), nil
}

func (t *Tree) lookupLocked(key []byte) ([]byte, error) {
	path, err := t.descendPath(key)
	if err != nil {
		return nil, err
	}
	if path == nil {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	defer releasePath(path)
	leaf := path[len(path)-1].frame.Data
	pos, found, err := leafSearch(leaf, key)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	_, v, err := decodeLeafItem(leaf.Item(pos))
	if err != nil {
		return nil, err
	}
	return cloneBytes(v), nil
}

// Contains reports whether key is present.
func (t *Tree) Contains(key []byte) (bool, error) {
	_, err := t.Lookup(key)
	if errors.Is(err, ErrKeyNotFound) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

func validateKey(key []byte) error {
	if len(key) == 0 {
		return ErrEmptyKey
	}
	if len(key) > MaxKeySize {
		return fmt.Errorf("%w: key of %d bytes", ErrKeyTooLarge, len(key))
	}
	return nil
}

func validateValue(value []byte) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("%w: value of %d bytes", ErrKeyTooLarge, len(value))
	}
	return nil
}
