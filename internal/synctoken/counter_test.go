package synctoken

import (
	"errors"
	"testing"
)

func TestFreshCounterStartsAtOne(t *testing.T) {
	c, err := Open(&MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Current() != 1 {
		t.Fatalf("Current = %d, want 1", c.Current())
	}
	if c.LastCrash() != 1 {
		t.Fatalf("LastCrash = %d, want 1", c.LastCrash())
	}
}

func TestAdvanceIncrements(t *testing.T) {
	c, err := Open(&MemStore{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	if c.Current() != 6 {
		t.Fatalf("Current = %d, want 6", c.Current())
	}
	if c.LastCrash() != 1 {
		t.Fatal("Advance must not move the last crash token")
	}
}

func TestMaxAlwaysExceedsGlobal(t *testing.T) {
	st := &MemStore{}
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	// Push the counter across several MaxStep boundaries.
	for i := 0; i < 3*MaxStep; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
		saved, _, _ := st.Load()
		if saved.Max <= c.Current() {
			t.Fatalf("stable max %d not above global %d", saved.Max, c.Current())
		}
	}
}

func TestCrashReinitializesAboveAllTokens(t *testing.T) {
	st := &MemStore{}
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	highest := c.Current()
	// No CloseClean: simulate a crash by reopening from the same store.
	c2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Current() <= highest {
		t.Fatalf("post-crash counter %d not above pre-crash %d", c2.Current(), highest)
	}
	if c2.LastCrash() != c2.Current() {
		t.Fatalf("last crash token %d must equal the reinitialization value %d",
			c2.LastCrash(), c2.Current())
	}
}

func TestCleanShutdownResumesExactly(t *testing.T) {
	st := &MemStore{}
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Advance(); err != nil {
			t.Fatal(err)
		}
	}
	wantGlobal, wantCrash := c.Current(), c.LastCrash()
	if err := c.CloseClean(0); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Current() != wantGlobal {
		t.Fatalf("Current after clean restart = %d, want %d", c2.Current(), wantGlobal)
	}
	if c2.LastCrash() != wantCrash {
		t.Fatalf("LastCrash after clean restart = %d, want %d", c2.LastCrash(), wantCrash)
	}
}

func TestOpenClearsCleanFlag(t *testing.T) {
	st := &MemStore{}
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CloseClean(0); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(st); err != nil {
		t.Fatal(err)
	}
	// A crash NOW must be treated as a crash, not a clean shutdown.
	saved, _, _ := st.Load()
	if saved.Clean {
		t.Fatal("Open must clear the clean flag so a later crash is detected")
	}
}

type failingStore struct{ MemStore }

func (f *failingStore) Save(State) error { return errors.New("disk full") }

func TestOpenPropagatesStoreErrors(t *testing.T) {
	if _, err := Open(&failingStore{}); err == nil {
		t.Fatal("Open must report store save failure")
	}
}

// TestTokenEpochOrdering verifies the core property recovery depends on:
// tokens stamped between the same pair of syncs are equal, tokens stamped
// across a sync differ, and every pre-crash token is below the post-crash
// last crash token.
func TestTokenEpochOrdering(t *testing.T) {
	st := &MemStore{}
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	tok1 := c.Current()
	tok2 := c.Current()
	if tok1 != tok2 {
		t.Fatal("tokens within an epoch must be equal")
	}
	if err := c.Advance(); err != nil {
		t.Fatal(err)
	}
	tok3 := c.Current()
	if tok3 <= tok1 {
		t.Fatal("token after sync must be larger")
	}
	c2, err := Open(st) // crash
	if err != nil {
		t.Fatal(err)
	}
	if tok3 >= c2.LastCrash() {
		t.Fatalf("pre-crash token %d must be below last crash token %d", tok3, c2.LastCrash())
	}
}

// TestNextFreshPage: only an open after a clean shutdown that recorded a
// mark skips the walk; the open's own save invalidates the mark, so a
// crash after it walks again.
func TestNextFreshPage(t *testing.T) {
	st := &MemStore{}
	walks := 0
	walk := func() (uint32, error) { walks++; return 40, nil }
	next := func(numPages uint32) uint32 {
		t.Helper()
		c, err := Open(st)
		if err != nil {
			t.Fatal(err)
		}
		n, err := c.NextFreshPage(numPages, walk)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CloseClean(77); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := next(10); n != 41 || walks != 1 {
		t.Fatalf("fresh open: next %d after %d walks, want 41 after 1", n, walks)
	}
	if n := next(10); n != 77 || walks != 1 {
		t.Fatalf("clean open: next %d after %d walks, want 77 after 1", n, walks)
	}
	if n := next(90); n != 90 || walks != 1 {
		t.Fatalf("clean open of a longer file: next %d, want 90", n)
	}
	if _, err := Open(st); err != nil {
		t.Fatal(err)
	}
	// Crash: the open above cleared the clean flag and the mark with it.
	c, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := c.NextFreshPage(10, walk); n != 41 || walks != 2 {
		t.Fatalf("crash open: next %d after %d walks, want 41 after 2", n, walks)
	}
}
