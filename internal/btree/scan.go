package btree

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/buffer"
	"repro/internal/obs"
	"repro/internal/page"
)

// Scan visits keys in [start, end) in order, calling fn for each; fn
// returns false to stop early. A nil start begins at the smallest key; a
// nil end runs to the largest.
//
// Scans use the leaf peer-pointer chain of the B-link tree, verifying each
// hop with the peer sync tokens of §3.5.1: a link is trusted only while the
// tokens on its two ends agree. On any doubt — a token mismatch, a missing
// pointer, or a leaf that still carries pre-crash backup keys — the scan
// falls back to a root-to-leaf descent for the next key, which is where the
// repair machinery lives.
func (t *Tree) Scan(start, end []byte, fn func(key, value []byte) bool) error {
	t.Stats.Scans.Add(1)
	t.mu.RLock()
	resume, err := t.scanShared(start, end, fn)
	t.mu.RUnlock()
	if err == nil {
		return nil
	}
	if !errors.Is(err, errNeedsExclusive) && !errors.Is(err, errRetryShared) &&
		!errors.Is(err, buffer.ErrQuarantined) {
		return err
	}
	// Fall back to the exclusive (repairing) walk, resuming at the cursor
	// the shared scan reached so no pair is emitted twice.
	t.obs.Count(obs.ExclusiveFallback)
	t.mu.Lock()
	defer t.mu.Unlock()
	_, err = t.walkLocked(resume, end, false, fn)
	return err
}

// walkLocked is the one exclusive-mode range walk, behind the Scan
// fallback, ScanDegraded, RecoverAvailable and RecoverAll. It covers
// [start, end) leaf by leaf through root-to-leaf descents, which is where
// repair lives.
//
// With fn set it is a scan: each leaf's keys in range go to fn, and the
// walk moves on along trusted right-peer links until one is in doubt, then
// descends again. With fn nil it is the recovery pass: every leaf is
// reached by its own descent, so every pending repair on every path fires,
// and is verified into the peer chain (§3.5.1).
//
// skip is the quarantine policy. With skip set, a quarantined subtree the
// descent runs into is recorded in the report and stepped over, and a peer
// verification that runs into one is let be (its range is reported when
// descended). Without it, the first quarantined range ends the walk with
// its *QuarantinedRangeError.
func (t *Tree) walkLocked(start, end []byte, skip bool, fn func(key, value []byte) bool) (ScanReport, error) {
	var rep ScanReport
	cur := start
	if cur == nil {
		cur = []byte{}
	}
	for end == nil || bytes.Compare(cur, end) < 0 {
		path, err := t.descendPath(cur)
		var qe *QuarantinedRangeError
		if skip && errors.As(err, &qe) {
			rep.Skipped = append(rep.Skipped, SkippedRange(*qe))
			t.obs.Eventf(obs.ScanSkip, qe.PageNo, "walk skipped quarantined range")
			if qe.Hi == nil {
				// Unbounded above: nothing past the quarantined subtree
				// is reachable from here.
				return rep, nil
			}
			// The failing descent was headed for a key inside
			// [qe.Lo, qe.Hi), so qe.Hi strictly advances the cursor;
			// guard anyway so a registry inconsistency cannot livelock
			// the walk.
			if bytes.Compare(qe.Hi, cur) <= 0 {
				return rep, fmt.Errorf("%w: quarantined range did not advance the walk cursor", ErrUnrecoverable)
			}
			cur = qe.Hi
			continue
		}
		if err != nil || path == nil {
			return rep, err // a nil path is an empty tree
		}
		leaf := leafOf(path)
		if fn == nil {
			p := leaf.frame.Data
			if t.protected() && (!t.peerVerified(p) || p.HasFlag(page.FlagPeerSuspect)) {
				err = t.verifyPeerPath(&leaf)
			}
			leaf.frame.Unpin()
			if err != nil && !(skip && errors.Is(err, buffer.ErrQuarantined)) {
				return rep, err
			}
			if leaf.hi == nil {
				return rep, nil
			}
			cur = leaf.hi
			continue
		}
		frame := leaf.frame
		for fromDescent := true; ; fromDescent = false {
			done, last, err := readLeaf(frame.Data, cur, end, fn)
			if err != nil || done {
				frame.Unpin()
				return rep, err
			}
			if last != nil {
				cur = keySuccessor(last)
			}
			if fromDescent {
				// The descent placed this leaf at the right edge of the
				// key space: nothing exists beyond it, whatever stale
				// peer pointers may claim. Otherwise its upper bound is
				// authoritative, so the cursor always moves past this
				// leaf's range before the next descent — a stale peer
				// chain can cost extra descents but never a livelock.
				if leaf.hi == nil {
					frame.Unpin()
					return rep, nil
				}
				cur = maxKeyBytes(cur, leaf.hi)
			} else if last == nil {
				// A hop that yields nothing is suspicious (a stale page
				// or an emptied leaf): let the root path decide where
				// the walk really stands.
				frame.Unpin()
				break
			}
			next, err := t.hopRight(frame.PageNo(), frame.Data.RightPeer(), frame.Data.RightPeerToken())
			frame.Unpin()
			if err != nil {
				return rep, err
			}
			if next == nil {
				break // re-descend at cur
			}
			frame = next
		}
	}
	return rep, nil
}

// readLeaf is the one leaf reader: it passes the keys of leaf page p in
// [cur, end) to emit, in order. done reports the end of the range (end was
// reached or emit returned false); last is the largest key passed, and
// aliases the page like the pairs emit sees.
func readLeaf(p page.Page, cur, end []byte, emit func(key, value []byte) bool) (done bool, last []byte, err error) {
	pos, _, err := leafSearch(p, cur)
	if err != nil {
		return false, nil, err
	}
	for ; pos < p.NKeys(); pos++ {
		k, v, err := decodeLeafItem(p.Item(pos))
		if err != nil {
			return false, nil, err
		}
		if end != nil && bytes.Compare(k, end) >= 0 {
			return true, last, nil
		}
		last = k
		if !emit(k, v) {
			return true, last, nil
		}
	}
	return false, last, nil
}

// maxKeyBytes returns the larger of two scan cursors.
func maxKeyBytes(a, b []byte) []byte {
	if bytes.Compare(a, b) >= 0 {
		return a
	}
	return b
}

// Count returns the number of keys in the index (a full scan).
func (t *Tree) Count() (int, error) {
	n := 0
	err := t.Scan(nil, nil, func(_, _ []byte) bool {
		n++
		return true
	})
	return n, err
}

// Height returns the number of levels in the tree (0 for an empty tree).
func (t *Tree) Height() (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.heightLocked()
}

// RecoverAll eagerly walks every leaf range through root-to-leaf descents,
// triggering and completing every pending repair. The paper's design
// repairs lazily on first use; this exists for tests, the vacuum, and
// operators who want a bounded recovery pass. It is RecoverAvailable with
// the first quarantined range, if any, returned as its error.
func (t *Tree) RecoverAll() error {
	rep, err := t.RecoverAvailable()
	if err != nil || rep.Complete() {
		return err
	}
	qe := QuarantinedRangeError(rep.Skipped[0])
	return &qe
}
