package btree

import (
	"bytes"

	"repro/internal/obs"
	"repro/internal/page"
)

// §3.5.1: B-link trees have two paths to every leaf — root-to-leaf and the
// peer-pointer chain — and a crash can leave them disagreeing (Figure 3:
// the root path reaches the post-split page while the old peer path still
// threads through the pre-split duplicate). The duplicate is harmless until
// a key is added to or deleted from one of the copies, so before the first
// update of a leaf written before the most recent crash, the DBMS verifies
// the leaf is linked into the current peer-pointer path, repairing links by
// following the root-to-leaf path to the true neighbors. Once verified the
// page is flagged so subsequent updates skip the check.

// verifyPeerPath re-links the leaf at the bottom of path into the current
// peer chain. The true neighbors are found by fresh root-to-leaf descents
// on the leaf's range boundaries — the authoritative path — and every
// adjusted link gets a fresh shared sync token.
func (t *Tree) verifyPeerPath(leaf *pathEntry) error {
	p := leaf.frame.Data
	tok := t.counter.Current()
	changed := false

	// Clear the suspect bit up front so the cascade below cannot revisit
	// this page.
	p.AddFlag(page.FlagPeerVerified)
	p.SetVerifiedEpoch(uint32(t.counter.LastCrash()))
	p.ClearFlag(page.FlagPeerSuspect)
	leaf.frame.MarkDirty()

	// A rebuilt neighbor may itself need verification before the chain
	// into this pair is sound — the paper walks the peer path in both
	// directions until a page with a different sync token appears; the
	// cascade below is that walk, driven by the suspect flag.
	var cascade []pathEntry

	// Left side: the true left neighbor holds the keys just below our
	// lower bound.
	if len(leaf.lo) == 0 {
		if p.LeftPeer() != 0 {
			p.SetLeftPeer(0)
			changed = true
		}
	} else {
		ln, err := t.predecessorLeaf(leaf.lo)
		if err != nil {
			return err
		}
		if ln != nil {
			if ln.frame.Data.RightPeer() != leaf.no || p.LeftPeer() != ln.no ||
				ln.frame.Data.RightPeerToken() != p.LeftPeerToken() {
				ln.frame.Data.SetRightPeer(leaf.no)
				ln.frame.Data.SetRightPeerToken(tok)
				p.SetLeftPeer(ln.no)
				p.SetLeftPeerToken(tok)
				ln.frame.MarkDirty()
				changed = true
			}
			if ln.frame.Data.HasFlag(page.FlagPeerSuspect) {
				cascade = append(cascade, *ln)
			} else {
				ln.frame.Unpin()
			}
		}
	}

	// Right side: the true right neighbor covers our upper bound.
	if leaf.hi == nil {
		if p.RightPeer() != 0 {
			p.SetRightPeer(0)
			changed = true
		}
	} else {
		rPath, err := t.descendPath(leaf.hi)
		if err != nil {
			return err
		}
		if rPath != nil {
			rn := rPath[len(rPath)-1]
			if rn.no != leaf.no {
				rf := rn.frame
				if rf.Data.LeftPeer() != leaf.no || p.RightPeer() != rn.no ||
					rf.Data.LeftPeerToken() != p.RightPeerToken() {
					rf.Data.SetLeftPeer(leaf.no)
					rf.Data.SetLeftPeerToken(tok)
					p.SetRightPeer(rn.no)
					p.SetRightPeerToken(tok)
					rf.MarkDirty()
					changed = true
				}
				if rf.Data.HasFlag(page.FlagPeerSuspect) {
					rf.Pin()
					cascade = append(cascade, pathEntry{
						no: rn.no, frame: rf,
						lo: cloneBytes(rn.lo), hi: cloneBytes(rn.hi),
					})
				}
			}
			releasePath(rPath)
		}
	}

	if changed {
		t.Stats.RepairsPeer.Add(1)
		t.obs.Eventf(obs.RepairPeer, leaf.no, "peer chain re-linked via root-to-leaf descent (§3.5.1)")
	}
	for i := range cascade {
		err := t.verifyPeerPath(&cascade[i])
		cascade[i].frame.Unpin()
		if err != nil {
			return err
		}
	}
	return nil
}

// needsPeerVerify reports whether the §3.5.1 peer-path verification must
// run before updating this leaf: it was last written before the most recent
// crash, or it was rebuilt by crash recovery (which restores peer links
// from a pre-split image), and has not been verified since.
func (t *Tree) needsPeerVerify(p page.Page) bool {
	if !t.protected() || p.Type() != page.TypeLeaf {
		return false
	}
	if p.HasFlag(page.FlagPeerSuspect) {
		return true
	}
	return p.SyncToken() < t.counter.LastCrash() && !t.peerVerified(p)
}

// peerVerified reports whether the leaf's peer path was verified since the
// most recent crash. The flag alone does not say so: it reaches the disk
// with the page and outlives later crashes, any of which can lose a
// neighbor's split and leave this leaf's links pointing past the new page.
func (t *Tree) peerVerified(p page.Page) bool {
	return p.HasFlag(page.FlagPeerVerified) && p.VerifiedEpoch() == uint32(t.counter.LastCrash())
}

// internalSearchPred returns the largest entry whose separator is strictly
// below bound, or -1 if none.
func internalSearchPred(p page.Page, bound []byte) (int, error) {
	n := p.NKeys()
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		sep, err := itemKey(p.Item(mid))
		if err != nil {
			return 0, err
		}
		if bytes.Compare(sep, bound) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}

// keySuccessor returns the smallest key greater than k.
func keySuccessor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}
