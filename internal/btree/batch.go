package btree

import (
	"bytes"
	"errors"
	"fmt"
	"slices"

	"repro/internal/obs"
)

// Batched inserts. A single Insert pays one root-to-leaf descent and one
// leaf latch acquisition per key; when a caller has many keys in hand
// (server MPUT, bulk maintenance), most of that traffic is redundant —
// consecutive sorted keys usually land on the same leaf. InsertBatch sorts
// the batch, descends once per leaf run, and applies every key that
// belongs to (and fits in) the latched leaf under a single write latch.
//
// Latch protocol: a run holds exactly the latches a single shared-mode
// insert holds — the descent's one-latch-at-a-time walk, then the leaf's
// write latch — just for several keys instead of one. No additional locks
// are taken, so batches interleave with concurrent point ops under the
// same §3.6 rules, and a batch can never deadlock with one.

// InsertBatch inserts all key/value pairs. Keys are applied in sorted
// order; runs of keys that fall on the same leaf are applied under one
// leaf write latch after a single descent. Keys that cannot join a run
// (leaf full, structure moved, repair needed, empty tree) fall back to the
// ordinary Insert path, which handles splits and recovery. On error —
// including a duplicate key — a sorted-order prefix of the batch may
// already have been applied; callers needing atomicity must not use this
// (the server's MPUT keys are uniquified, so duplicates cannot occur
// there).
func (t *Tree) InsertBatch(keys, values [][]byte) error {
	if len(keys) != len(values) {
		return fmt.Errorf("btree: batch of %d keys with %d values", len(keys), len(values))
	}
	for i := range keys {
		if err := validateKey(keys[i]); err != nil {
			return err
		}
		if err := validateValue(values[i]); err != nil {
			return err
		}
	}
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })

	for len(order) > 0 {
		t.mu.RLock()
		applied, err := t.insertShared(keys, values, order, t.structVer.Load())
		t.mu.RUnlock()
		if applied > 0 {
			order = order[applied:]
			t.Stats.Inserts.Add(uint64(applied))
			t.obs.CountN(obs.BatchPut, uint64(applied))
			t.obs.Count(obs.BatchLeafRun)
			if err == nil {
				continue
			}
		}
		if err != nil && !errors.Is(err, errRetryShared) && !errors.Is(err, errNeedsExclusive) &&
			!errors.Is(err, errSplitNeeded) {
			return err
		}
		if len(order) == 0 {
			break
		}
		// The run could not start (or stalled before this key): push one
		// key through the full insert path — splits, repairs, retries,
		// root creation — then try to batch again from the next key.
		if err := t.Insert(keys[order[0]], values[order[0]]); err != nil {
			return err
		}
		order = order[1:]
	}
	return nil
}
