// Package synctoken implements the global sync counter of the paper's §3.2.
//
// The DBMS keeps one global counter in memory and stamps its current value
// (a "sync token") into every page (re)initialized by a split or a repair.
// After every sync operation the counter is incremented, so two pages carry
// the same token only if they were initialized between the same pair of
// syncs. A *maximum sync counter*, guaranteed to exceed the in-memory
// counter, lives on stable storage; after a crash it reinitializes the
// counter, and that reinitialization value is remembered as the *last crash
// sync token*. Comparing a page token against the last crash token tells
// recovery whether the page was written before or after the most recent
// failure.
package synctoken

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Store persists the small amount of counter state that must survive
// restarts. Implementations typically keep it in an index meta page or a
// database control file.
type Store interface {
	// Load returns the persisted state. ok is false when no state has
	// ever been saved (fresh database). clean reports whether the last
	// shutdown was clean, in which case global and lastCrash are valid.
	Load() (st State, ok bool, err error)
	// Save persists the state. It must be durable when it returns
	// (implementations sync).
	Save(st State) error
}

// State is the durable counter state.
type State struct {
	Max       uint64 // maximum sync counter: always > every token handed out
	Global    uint64 // valid only when Clean
	LastCrash uint64 // valid only when Clean
	Clean     bool   // set by a clean shutdown, cleared on startup
	// NextPage is the index's next fresh page number at the clean
	// shutdown; valid only when Clean, 0 when none was recorded.
	NextPage uint32
}

// MaxStep is the amount by which the stable maximum is advanced each time
// the in-memory counter approaches it. Larger steps mean fewer stable-store
// writes but a larger token-range gap after a crash (which is harmless).
const MaxStep = 1024

// Counter is the in-memory global sync counter. Reads are lock-free: the
// current token is consulted on every descent step of every index
// operation, so it must cost no more than an atomic load.
type Counter struct {
	mu        sync.Mutex // serializes Advance/CloseClean and store writes
	global    atomic.Uint64
	max       uint64 // guarded by mu
	lastCrash atomic.Uint64
	nextPage  uint32 // the clean shutdown's next-page mark; 0 after a crash
	store     Store
}

// Open initializes the counter from stable storage. A fresh store starts at
// token 1 (token 0 is reserved to mean "never stamped"). An unclean prior
// shutdown reinitializes the counter from the stable maximum and records it
// as the last crash sync token, exactly as §3.2 prescribes.
func Open(store Store) (*Counter, error) {
	c := &Counter{store: store}
	st, ok, err := store.Load()
	if err != nil {
		return nil, fmt.Errorf("synctoken: load: %w", err)
	}
	switch {
	case !ok:
		// Fresh database.
		c.global.Store(1)
		c.lastCrash.Store(1)
		c.max = MaxStep
	case st.Clean:
		c.global.Store(st.Global)
		c.lastCrash.Store(st.LastCrash)
		c.max = st.Max
		c.nextPage = st.NextPage
	default:
		// Crash recovery: the maximum is guaranteed to be larger than
		// any token stamped before the failure.
		c.global.Store(st.Max)
		c.lastCrash.Store(st.Max)
		c.max = st.Max + MaxStep
	}
	// Persist the new maximum with the clean flag cleared, so that a
	// crash from this point on reinitializes above every token we may
	// hand out. The save drops the next-page mark with the flag: after a
	// crash the index must find its bound by walking.
	if err := store.Save(State{Max: c.max}); err != nil {
		return nil, fmt.Errorf("synctoken: save max: %w", err)
	}
	return c, nil
}

// Current returns the global sync counter value — the sync token to stamp
// into pages initialized now.
func (c *Counter) Current() uint64 { return c.global.Load() }

// LastCrash returns the last crash sync token: the value the counter was
// reinitialized to when the DBMS recovered from the most recent failure.
// Pages whose token is below it were written before that failure.
func (c *Counter) LastCrash() uint64 { return c.lastCrash.Load() }

// Advance increments the counter after a completed sync operation. When the
// counter approaches the stable maximum, a new maximum is chosen and made
// durable before Advance returns, preserving the invariant max > global.
func (c *Counter) Advance() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.global.Add(1)
	if g+1 >= c.max {
		c.max += MaxStep
		if err := c.store.Save(State{Max: c.max}); err != nil {
			return fmt.Errorf("synctoken: save max: %w", err)
		}
	}
	return nil
}

// NextFreshPage returns the first page number an index opened over a file
// of numPages pages may hand out fresh. It must exceed every page number
// the durable structure references, not just the file size: a crash can
// lose a file extension while keeping a parent that points into it. After
// a clean shutdown the mark the index recorded is that bound; any other
// open (a crash, a fresh file, a file closed without a mark) calls
// maxReferenced, which walks the structure for its largest page pointer.
func (c *Counter) NextFreshPage(numPages uint32, maxReferenced func() (uint32, error)) (uint32, error) {
	next := max(numPages, 1)
	if c.nextPage != 0 {
		return max(next, c.nextPage), nil
	}
	maxRef, err := maxReferenced()
	if err != nil {
		return 0, err
	}
	return max(next, maxRef+1), nil
}

// CloseClean persists the full state with the clean flag, so the next Open
// resumes the counter without treating the restart as a crash. nextPage is
// the index's next fresh page number, handed back by the next Open's
// NextFreshPage.
func (c *Counter) CloseClean(nextPage uint32) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.store.Save(State{
		Max:       c.max,
		Global:    c.global.Load(),
		LastCrash: c.lastCrash.Load(),
		Clean:     true,
		NextPage:  nextPage,
	})
}

// MemStore is an in-memory Store for tests. Its contents survive simulated
// crashes (it models a tiny, separately-synced control area) unless the
// test explicitly resets it.
type MemStore struct {
	mu    sync.Mutex
	st    State
	saved bool
}

// Load implements Store.
func (m *MemStore) Load() (State, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.st, m.saved, nil
}

// Save implements Store.
func (m *MemStore) Save(st State) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.st = st
	m.saved = true
	return nil
}
