package synctoken

import (
	"encoding/binary"

	"repro/internal/buffer"
	"repro/internal/page"
)

// PageStore keeps the state in page 0 of an index file, read and written
// through the file's buffer pool. Every index kind (B-tree, R-tree,
// extensible hash) uses it, so the layout is shared:
//
//	body bytes 20–27  Max
//	body bytes 28–35  Global (valid when clean)
//	body bytes 36–43  LastCrash (valid when clean)
//	body byte  44     flags: bit0 saved, bit1 clean, bit2 next-page mark
//	header special    NextPage (valid when flag bit2 is set)
//
// The meta page has no other use for the header's variant-specific word.
// Every save rewrites the flags byte whole, so a save that clears the clean
// flag clears the mark's bit with it.
type PageStore struct {
	Pool *buffer.Pool
	// Format, when non-nil, stamps index-specific identity (such as the
	// B-tree variant) into a meta page that has to be initialized first.
	Format func(page.Page)
}

const (
	offState = page.HeaderSize + 20

	flagSaved    = 1
	flagClean    = 2
	flagNextPage = 4
)

// Load implements Store.
func (s PageStore) Load() (State, bool, error) {
	f, err := s.Pool.Get(0)
	if err != nil {
		return State{}, false, err
	}
	defer f.Unpin()
	b := f.Data[offState:]
	flags := b[24]
	st := State{
		Max:       binary.LittleEndian.Uint64(b[0:]),
		Global:    binary.LittleEndian.Uint64(b[8:]),
		LastCrash: binary.LittleEndian.Uint64(b[16:]),
		Clean:     flags&flagClean != 0,
	}
	if flags&flagNextPage != 0 {
		st.NextPage = f.Data.Special()
	}
	return st, flags&flagSaved != 0, nil
}

// Save implements Store. The meta page is written through to the disk and
// synced immediately: the maximum sync counter must be durable before any
// token below it is stamped into a page (§3.2). The write-through also
// carries every other dirty page, which is always safe under the paper's
// model (a sync can happen at any time).
func (s PageStore) Save(st State) error {
	f, err := s.Pool.Get(0)
	if err != nil {
		return err
	}
	defer f.Unpin()
	// Shared-mode descents read the meta page under its read latch.
	f.WLatch()
	if f.Data.IsZeroed() {
		f.Data.Init(page.TypeMeta, 0)
		if s.Format != nil {
			s.Format(f.Data)
		}
	}
	b := f.Data[offState:]
	binary.LittleEndian.PutUint64(b[0:], st.Max)
	binary.LittleEndian.PutUint64(b[8:], st.Global)
	binary.LittleEndian.PutUint64(b[16:], st.LastCrash)
	flags := byte(flagSaved)
	if st.Clean {
		flags |= flagClean
		if st.NextPage != 0 {
			flags |= flagNextPage
			f.Data.SetSpecial(st.NextPage)
		}
	}
	b[24] = flags
	f.MarkDirty()
	f.WUnlatch()
	return s.Pool.SyncAll()
}
