package btree

import "sync"

// Per-descent scratch state. The shared-mode point paths (Lookup, Insert,
// InsertBatch) are the hot paths of the whole system, and profiling showed
// their only steady-state allocations were bookkeeping buffers: the cloned
// child-range bounds taken at every internal level, and the path slice on
// the exclusive/split descents. Both now come from sync.Pools, so a warm
// point op allocates nothing.
//
// Ownership rules:
//
//   - A descentScratch is borrowed for the duration of ONE shared descent
//     (descendShared) plus whatever the caller does with the returned
//     bounds; the lo/hi slices it returns alias the scratch and die with
//     putDescent. Callers that persist a bound past the release (the scan
//     cursor does) must clone it first. A path-mode descent clones every
//     entry's bounds as it appends the entry, so the path outlives the
//     scratch.
//   - The bounds are double-buffered: childRange may return the parent's
//     own bounds unchanged, so each level stages into the buffer pair the
//     previous level is NOT using, then flips.
//   - Path slices from newPath are returned with putPath, which clears the
//     entries (they hold frame pointers) before pooling. releasePath both
//     unpins and pools, and leafOf pools all but the leaf; callers must not
//     touch the slice afterwards. A path-mode descendShared that fails has
//     already released the path and set it to nil.
//   - Exclusive-descent bounds point into the parent pages: they are valid
//     while the path is pinned. leafOf clones the leaf's bounds because it
//     unpins the parents.

// descentScratch carries the staged child-range bounds for one shared
// root-to-leaf descent.
type descentScratch struct {
	lo   [2][]byte
	hi   [2][]byte
	flip int
}

var descentPool = sync.Pool{New: func() any { return new(descentScratch) }}

func getDescent() *descentScratch {
	s := descentPool.Get().(*descentScratch)
	s.flip = 0
	return s
}

func putDescent(s *descentScratch) { descentPool.Put(s) }

// stage copies the child bounds out of the latched parent page (or out of
// the scratch buffers the parent level staged into) before the latch
// drops. nil bounds stay nil: downstream range checks distinguish
// "unbounded" by nil-ness.
func (s *descentScratch) stage(cLo, cHi []byte) (lo, hi []byte) {
	i := s.flip & 1
	s.flip++
	if cLo != nil {
		s.lo[i] = append(s.lo[i][:0], cLo...)
		lo = s.lo[i]
	}
	if cHi != nil {
		s.hi[i] = append(s.hi[i][:0], cHi...)
		hi = s.hi[i]
	}
	return lo, hi
}

// Path-slice pool for the exclusive descent and path-mode shared
// descents. maxSharedDepth bounds every descent loop, so a pooled slice
// never regrows.
var pathPool = sync.Pool{New: func() any {
	s := make([]pathEntry, 0, maxSharedDepth)
	return &s
}}

func newPath() []pathEntry { return (*pathPool.Get().(*[]pathEntry))[:0] }

// putPath recycles a path slice WITHOUT unpinning anything; the caller has
// already transferred or released the pins. Entries are cleared so pooled
// slices do not retain frame references.
func putPath(path []pathEntry) {
	if cap(path) < maxSharedDepth {
		return // not from the pool (or grew oddly); let the GC have it
	}
	path = path[:cap(path)]
	for i := range path {
		path[i] = pathEntry{}
	}
	path = path[:0]
	pathPool.Put(&path)
}
