package btree

import (
	"fmt"

	"repro/internal/freelist"
	"repro/internal/page"
)

// Page 0 of every index file is the meta page. Besides identifying the
// variant it holds the root pointer, and — because the root has no parent
// whose key ranges could vouch for it — a previous-root pointer and the
// root's expected sync token, playing the role the <childPtr, prevPtr>
// pairs play for internal keys (§3.3: "Like internal page keys, the root
// pointer must contain a previous and current page pointer").
//
// The meta page also persists the sync-counter state and, on clean
// shutdown, the next-page mark (both through synctoken.PageStore, which
// owns body bytes 20–44 and the header's special word) and the freelist
// with its key ranges (§3.3.3).

// Variant selects the index algorithm.
type Variant uint8

// Index variants.
const (
	// Normal is the ordinary B-link tree with no crash protection.
	Normal Variant = iota
	// Shadow is Technique One: shadow-page indexes (§3.3).
	Shadow
	// Reorg is Technique Two: page-reorganization indexes (§3.4).
	Reorg
	// Hybrid uses shadowing at the leaf level, where splits are common,
	// and page reorganization above it — the combination §1 suggests to
	// get shadow's split speed with reorg's fanout near the root.
	Hybrid
)

func (v Variant) String() string {
	switch v {
	case Normal:
		return "normal"
	case Shadow:
		return "shadow"
	case Reorg:
		return "reorg"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("variant(%d)", uint8(v))
	}
}

// Meta page body layout (relative to page.HeaderSize):
const (
	mOffVariant   = 0  // uint8
	mOffRoot      = 4  // uint32
	mOffPrevRoot  = 8  // uint32
	mOffRootToken = 12 // uint64
	// 20–44: sync-counter state (synctoken.PageStore)
	mOffFreeCount = 46 // uint16 persisted freelist entries
	mOffFreeData  = 48 // entries: [pageNo u32][loLen u16][lo][hiLen u16][hi]... hiLen 0xFFFF = nil
)

const metaBase = page.HeaderSize

type metaPage struct{ p page.Page }

func (m metaPage) variant() Variant     { return Variant(m.p[metaBase+mOffVariant]) }
func (m metaPage) setVariant(v Variant) { m.p[metaBase+mOffVariant] = uint8(v) }

func (m metaPage) root() uint32      { return u32At(m.p, metaBase+mOffRoot) }
func (m metaPage) setRoot(no uint32) { putU32(m.p[metaBase+mOffRoot:], no) }

func (m metaPage) prevRoot() uint32      { return u32At(m.p, metaBase+mOffPrevRoot) }
func (m metaPage) setPrevRoot(no uint32) { putU32(m.p[metaBase+mOffPrevRoot:], no) }

func (m metaPage) rootToken() uint64 { return u64At(m.p, metaBase+mOffRootToken) }
func (m metaPage) setRootToken(t uint64) {
	putU64(m.p[metaBase+mOffRootToken:], t)
}

func u64At(b []byte, i int) uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(b[i+k]) << (8 * k)
	}
	return v
}

func putU64(b []byte, v uint64) {
	for k := 0; k < 8; k++ {
		b[k] = byte(v >> (8 * k))
	}
}

// saveFreelist serializes the freelist (with key ranges, §3.3.3) into the
// meta page on clean shutdown. Entries that do not fit are dropped: a
// leaked free page is safe and will be recovered by the garbage collector.
func (m metaPage) saveFreelist(entries []freelist.Entry) int {
	avail := page.Size - (metaBase + mOffFreeData)
	buf := m.p[metaBase+mOffFreeData:]
	n := 0
	off := 0
	for _, e := range entries {
		need := 4 + 2 + len(e.Lo) + 2 + len(e.Hi)
		if off+need > avail || n == 0xFFFF {
			break
		}
		putU32(buf[off:], e.PageNo)
		off += 4
		putU16(buf[off:], len(e.Lo))
		off += 2
		copy(buf[off:], e.Lo)
		off += len(e.Lo)
		if e.Hi == nil {
			putU16(buf[off:], 0xFFFF)
			off += 2
		} else {
			putU16(buf[off:], len(e.Hi))
			off += 2
			copy(buf[off:], e.Hi)
			off += len(e.Hi)
		}
		n++
	}
	putU16(m.p[metaBase+mOffFreeCount:], n)
	return n
}

// loadFreelist deserializes the persisted freelist.
func (m metaPage) loadFreelist() []freelist.Entry {
	n := getU16(m.p[metaBase+mOffFreeCount:])
	buf := m.p[metaBase+mOffFreeData:]
	off := 0
	out := make([]freelist.Entry, 0, n)
	for i := 0; i < n; i++ {
		if off+6 > len(buf) {
			break
		}
		var e freelist.Entry
		e.PageNo = u32At(buf, off)
		off += 4
		loLen := getU16(buf[off:])
		off += 2
		if off+loLen > len(buf) {
			break
		}
		e.Lo = cloneBytes(buf[off : off+loLen])
		off += loLen
		if off+2 > len(buf) {
			break
		}
		hiLen := getU16(buf[off:])
		off += 2
		if hiLen == 0xFFFF {
			e.Hi = nil
		} else {
			if off+hiLen > len(buf) {
				break
			}
			e.Hi = cloneBytes(buf[off : off+hiLen])
			off += hiLen
		}
		out = append(out, e)
	}
	return out
}

// clearFreelist removes the persisted freelist. Per §3.3.3 this must be
// made durable before any listed page is reallocated, or a later crash
// would resurrect the list and double-allocate its pages.
func (m metaPage) clearFreelist() {
	putU16(m.p[metaBase+mOffFreeCount:], 0)
}
