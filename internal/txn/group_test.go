package txn

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
)

// --- group-commit batching ----------------------------------------------

// gateSyncer blocks its first Sync until released, so a test can pile
// concurrent committers into one batch deterministically.
type gateSyncer struct {
	mu    sync.Mutex
	n     int
	gate  chan struct{}
	gated bool
}

func (g *gateSyncer) Sync() error {
	g.mu.Lock()
	first := !g.gated
	g.gated = true
	g.n++
	g.mu.Unlock()
	if first && g.gate != nil {
		<-g.gate
	}
	return nil
}

func (g *gateSyncer) count() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// TestGroupCommitCoalesces proves that concurrent committers of the same
// storage share one force and one status append: while the first commit's
// force is blocked, the rest enqueue; when released, the followers ride a
// batch instead of syncing individually.
func TestGroupCommitCoalesces(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(64)
	m.SetObs(rec)

	const n = 8
	shared := &gateSyncer{gate: make(chan struct{})}

	txns := make([]*Txn, n)
	for i := range txns {
		txns[i] = m.Begin()
		txns[i].Touch(shared)
	}

	_, syncsBefore, _ := d.Stats()

	var wg sync.WaitGroup
	errs := make([]error, n)
	started := make(chan struct{}, n)
	for i := range txns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			errs[i] = txns[i].Commit()
		}(i)
	}
	for i := 0; i < n; i++ {
		<-started
	}
	// All committers are running; the leader is stuck in shared.Sync.
	// Everyone else is queued behind it. Release the gate.
	close(shared.gate)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
	for _, tx := range txns {
		if !m.Committed(tx.XID()) {
			t.Fatalf("xid %d not committed", tx.XID())
		}
	}
	// The leader forced the shared syncer once for its batch. The txns
	// that were queued while the gate was closed shared later batches'
	// forces; with 8 committers there must be strictly fewer forces than
	// transactions, and at least one explicit coalesce must be counted.
	if forces := shared.count(); forces >= n {
		t.Fatalf("no coalescing: %d forces for %d txns", forces, n)
	}
	if batches := rec.Get(obs.CommitBatch); batches >= n {
		t.Fatalf("no batching: %d status appends for %d txns", batches, n)
	}
	if rec.Get(obs.CommitTxn) != n {
		t.Fatalf("commit.txn = %d, want %d", rec.Get(obs.CommitTxn), n)
	}
	if rec.Get(obs.CommitSyncSkip) == 0 {
		t.Fatal("commit.sync.skipped never counted")
	}
	// Status durability is one tail sync + one page-0 sync per batch at
	// most; with batching it must undercut the 2-syncs-per-txn worst case.
	_, syncsAfter, _ := d.Stats()
	if syncsAfter-syncsBefore >= 2*n {
		t.Fatalf("%d status syncs for %d txns: not batched", syncsAfter-syncsBefore, n)
	}
}

// TestBatchingDisabledStillCommits covers the per-txn-sync baseline mode.
func TestBatchingDisabledStillCommits(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	m.SetBatching(false)

	const n = 4
	var wg sync.WaitGroup
	txns := make([]*Txn, n)
	for i := range txns {
		txns[i] = m.Begin()
	}
	for i := range txns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := txns[i].Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	m2, err := OpenManager(d.CloneStable())
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range txns {
		if !m2.Committed(tx.XID()) {
			t.Fatalf("xid %d lost in baseline mode", tx.XID())
		}
	}
}

// --- commit-failure semantics (no limbo) --------------------------------

type failingSyncer struct{ err error }

func (f *failingSyncer) Sync() error { return f.err }

// TestCommitForceFailureAborts: a force failure must abort the
// transaction (no limbo), leave the status table untouched, and surface a
// typed, retryable error.
func TestCommitForceFailureAborts(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	devErr := errors.New("device on fire")
	tx := m.Begin()
	tx.Touch(&failingSyncer{err: devErr})

	err = tx.Commit()
	if err == nil {
		t.Fatal("commit of a failing syncer succeeded")
	}
	if !errors.Is(err, ErrCommitFailed) {
		t.Fatalf("error %v does not unwrap to ErrCommitFailed", err)
	}
	if !errors.Is(err, devErr) {
		t.Fatalf("error %v does not unwrap to the device error", err)
	}
	var ce *CommitError
	if !errors.As(err, &ce) || ce.Stage != "force" || ce.XID != tx.XID() {
		t.Fatalf("CommitError = %+v", ce)
	}

	// No limbo: the transaction is finished — both Commit and Abort now
	// report ErrTxnFinished.
	if err := tx.Commit(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("re-commit after failed commit: %v", err)
	}
	if err := tx.Abort(); !errors.Is(err, ErrTxnFinished) {
		t.Fatalf("abort after failed commit: %v", err)
	}

	// The status table never recorded it, in memory or on disk.
	if m.Committed(tx.XID()) {
		t.Fatal("failed commit is visible in memory")
	}
	m2, err := OpenManager(d.CloneStable())
	if err != nil {
		t.Fatal(err)
	}
	if m2.Committed(tx.XID()) {
		t.Fatal("failed commit reached the durable status table")
	}
}

// TestBatchForceFailureIsPerTransaction: in one batch, a member whose
// storage fails aborts, but members that never touched the failing device
// commit normally.
func TestBatchForceFailureIsPerTransaction(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	devErr := errors.New("bad device")
	bad := &failingSyncer{err: devErr}
	good := &countingSyncer{}

	// Build the batch by hand through the coordinator: gate a leader so
	// the good and bad committers queue into one batch.
	gate := &gateSyncer{gate: make(chan struct{})}
	leader := m.Begin()
	leader.Touch(gate)
	txBad := m.Begin()
	txBad.Touch(bad)
	txGood := m.Begin()
	txGood.Touch(good)

	var wg sync.WaitGroup
	var leaderErr, badErr, goodErr error
	wg.Add(1)
	go func() { defer wg.Done(); leaderErr = leader.Commit() }()
	for gate.count() == 0 { // leader inside its force
		runtime.Gosched()
	}
	wg.Add(2)
	go func() { defer wg.Done(); badErr = txBad.Commit() }()
	go func() { defer wg.Done(); goodErr = txGood.Commit() }()
	for len(m.gc.queuedXIDs()) < 2 { // both followers queued
		runtime.Gosched()
	}
	close(gate.gate)
	wg.Wait()

	if leaderErr != nil {
		t.Fatalf("leader commit: %v", leaderErr)
	}
	if goodErr != nil {
		t.Fatalf("good member commit: %v", goodErr)
	}
	if !errors.Is(badErr, ErrCommitFailed) || !errors.Is(badErr, devErr) {
		t.Fatalf("bad member error: %v", badErr)
	}
	if !m.Committed(txGood.XID()) || m.Committed(txBad.XID()) {
		t.Fatalf("visibility wrong: good=%v bad=%v",
			m.Committed(txGood.XID()), m.Committed(txBad.XID()))
	}
}

// queuedXIDs snapshots the XIDs waiting in the commit queue (test helper).
func (g *groupCommitter) queuedXIDs() []heap.XID {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]heap.XID, 0, len(g.queue))
	for _, r := range g.queue {
		out = append(out, r.t.xid)
	}
	return out
}

// --- crash between the batched force and the status write ----------------

// TestBatchCrashBeforeStatusWriteAllInvisible is the no-partial-batch
// guarantee: a crash after the batch's unordered device sync but before
// the status-table write must leave EVERY member of the batch invisible.
// Run with -race and concurrent committers: the crash is modeled by
// cloning the control disk's durable state at the hook, while the live
// commit keeps running.
func TestBatchCrashBeforeStatusWriteAllInvisible(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}

	const n = 8
	var (
		once      sync.Once
		crashed   *storage.MemDisk
		caughtMu  sync.Mutex
		caughtXID []heap.XID
	)
	m.hookAfterForce = func(batch []heap.XID) {
		if len(batch) == 0 {
			return
		}
		once.Do(func() {
			caughtMu.Lock()
			caughtXID = append(caughtXID, batch...)
			caughtMu.Unlock()
			crashed = d.CloneStable()
		})
	}

	shared := &countingSyncer{}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := m.Begin()
			tx.Touch(shared)
			if err := tx.Commit(); err != nil {
				t.Errorf("commit: %v", err)
			}
		}()
	}
	wg.Wait()

	if crashed == nil || len(caughtXID) == 0 {
		t.Fatal("hook never captured a batch")
	}
	m2, err := OpenManager(crashed)
	if err != nil {
		t.Fatalf("reopen after simulated crash: %v", err)
	}
	for _, x := range caughtXID {
		if m2.Committed(x) {
			t.Fatalf("xid %d visible after crash before the status write (batch %v)", x, caughtXID)
		}
	}
	// And the live manager, which did not crash, committed everything.
	for _, x := range caughtXID {
		if !m.Committed(x) {
			t.Fatalf("xid %d lost on the machine that did not crash", x)
		}
	}
}

// TestSpillCrashBetweenTailAndFirstPage drives the two-phase status write:
// a crash after the continuation-page sync but before page 0 must reload
// as the OLD commit set — the new tail entries are durable but uncovered.
func TestSpillCrashBetweenTailAndFirstPage(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	// Fill past the first page so appends dirty a continuation page.
	committedBefore := fillStatusTable(t, m, xidsPerFirstPage+10)

	var crashed *storage.MemDisk
	m.hookAfterTailSync = func() {
		if crashed == nil {
			crashed = d.CloneStable()
		}
	}
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if crashed == nil {
		t.Fatal("tail-sync hook never fired (append did not spill?)")
	}
	m2, err := OpenManager(crashed)
	if err != nil {
		t.Fatalf("reopen mid-status-write crash: %v", err)
	}
	if m2.Committed(tx.XID()) {
		t.Fatalf("xid %d visible though page 0 never covered it", tx.XID())
	}
	for _, x := range committedBefore {
		if !m2.Committed(x) {
			t.Fatalf("previously committed xid %d lost in torn status write", x)
		}
	}
}

// fillStatusTable commits transactions until the table holds exactly
// total entries (including the bootstrap XID), returning their XIDs.
func fillStatusTable(t *testing.T, m *Manager, total int) []heap.XID {
	t.Helper()
	var xids []heap.XID
	for {
		m.mu.Lock()
		n := len(m.order)
		m.mu.Unlock()
		if n >= total {
			return xids
		}
		tx := m.Begin()
		if err := tx.Commit(); err != nil {
			t.Fatalf("fill commit %d: %v", n, err)
		}
		xids = append(xids, tx.XID())
	}
}

// --- spill-page boundary math -------------------------------------------

// TestSpillBoundariesSurviveCrash commits exactly enough XIDs to land the
// status table on every interesting page boundary — one short of filling
// page 0, exactly full, one entry onto page 1, page 1 exactly full, one
// entry onto page 2 — and at each boundary crashes (clones durable state)
// and verifies OpenManager reloads every committed XID and resurrects
// nothing.
func TestSpillBoundariesSurviveCrash(t *testing.T) {
	boundaries := []int{
		xidsPerFirstPage - 1,
		xidsPerFirstPage,
		xidsPerFirstPage + 1,
		xidsPerFirstPage + xidsPerPage,
		xidsPerFirstPage + xidsPerPage + 1,
	}
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	var all []heap.XID
	for _, total := range boundaries {
		t.Run(fmt.Sprintf("entries=%d", total), func(t *testing.T) {
			all = append(all, fillStatusTable(t, m, total)...)
			// Leave one transaction in flight across the crash.
			inFlight := m.Begin()

			m2, err := OpenManager(d.CloneStable())
			if err != nil {
				t.Fatalf("reopen at %d entries: %v", total, err)
			}
			if !m2.Committed(1) {
				t.Fatal("bootstrap XID lost")
			}
			for _, x := range all {
				if !m2.Committed(x) {
					t.Fatalf("xid %d lost at boundary %d", x, total)
				}
			}
			if m2.Committed(inFlight.XID()) {
				t.Fatalf("in-flight xid %d resurrected at boundary %d", inFlight.XID(), total)
			}
			// XID allocation must resume past everything handed out
			// before the last durable commit.
			if next := m2.Begin().XID(); next <= all[len(all)-1] {
				t.Fatalf("XID %d reused after crash (high-water %d)", next, all[len(all)-1])
			}
			if err := inFlight.Abort(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// --- visibility is published only after the durable commit point ---------

// TestVisibilityOnlyAfterDurableStatusWrite pins the fix for a dirty-read
// window: Committed() — the visibility oracle every reader consults — must
// not report a batch member committed until its status-table write is
// durable. The buggy version updated the in-memory map before the device
// sync, so a concurrent reader could observe (and act on) a commit that a
// crash or a status-write failure would then erase. Both leader-side hooks
// bracket the window: after the batched force, and after the tail sync
// inside writeStatus (before the page-0 commit point).
func TestVisibilityOnlyAfterDurableStatusWrite(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}

	var (
		hookMu  sync.Mutex
		pending []heap.XID // the batch currently between force and commit point
		leaked  []heap.XID // members visible inside that window
	)
	check := func(batch []heap.XID) {
		for _, x := range batch {
			if m.Committed(x) {
				leaked = append(leaked, x)
			}
		}
	}
	m.hookAfterForce = func(batch []heap.XID) {
		hookMu.Lock()
		defer hookMu.Unlock()
		pending = append(pending[:0], batch...)
		check(batch)
	}
	m.hookAfterTailSync = func() {
		hookMu.Lock()
		defer hookMu.Unlock()
		check(pending)
	}

	const n = 8
	shared := &countingSyncer{}
	txns := make([]*Txn, n)
	for i := range txns {
		txns[i] = m.Begin()
		txns[i].Touch(shared)
	}
	var wg sync.WaitGroup
	for i := range txns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := txns[i].Commit(); err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	hookMu.Lock()
	defer hookMu.Unlock()
	if len(leaked) > 0 {
		t.Fatalf("xids %v were visible before their commit record was durable", leaked)
	}
	for _, tx := range txns {
		if !m.Committed(tx.XID()) {
			t.Fatalf("xid %d not visible after Commit returned", tx.XID())
		}
	}
}

// syncFailDisk wraps a Disk so the test can arm a Sync failure after the
// manager has bootstrapped.
type syncFailDisk struct {
	storage.Disk
	mu   sync.Mutex
	fail error
}

func (d *syncFailDisk) arm(err error) {
	d.mu.Lock()
	d.fail = err
	d.mu.Unlock()
}

func (d *syncFailDisk) Sync() error {
	d.mu.Lock()
	err := d.fail
	d.mu.Unlock()
	if err != nil {
		return err
	}
	return d.Disk.Sync()
}

// TestCommitStatusFailureNeverVisible: when the status-table write itself
// fails, the transaction aborts with a stage-"status" error and must never
// have been visible — there is no publish-then-retract, because visibility
// is only published after the durable write succeeds.
func TestCommitStatusFailureNeverVisible(t *testing.T) {
	d := &syncFailDisk{Disk: storage.NewMemDisk()}
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	devErr := errors.New("status device on fire")
	d.arm(devErr)

	tx := m.Begin()
	err = tx.Commit()
	if !errors.Is(err, ErrCommitFailed) || !errors.Is(err, devErr) {
		t.Fatalf("commit error = %v", err)
	}
	var ce *CommitError
	if !errors.As(err, &ce) || ce.Stage != "status" {
		t.Fatalf("CommitError = %+v", ce)
	}
	if m.Committed(tx.XID()) {
		t.Fatal("status-stage failure left the transaction visible")
	}

	// The manager stays consistent: heal the device and the next commit
	// goes through, with the failed XID still absent after a reload.
	d.arm(nil)
	tx2 := m.Begin()
	if err := tx2.Commit(); err != nil {
		t.Fatalf("commit after healed device: %v", err)
	}
	if !m.Committed(tx2.XID()) || m.Committed(tx.XID()) {
		t.Fatalf("visibility wrong after heal: ok=%v failed=%v",
			m.Committed(tx2.XID()), m.Committed(tx.XID()))
	}
	m2, err := OpenManager(d.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Committed(tx2.XID()) || m2.Committed(tx.XID()) {
		t.Fatalf("durable visibility wrong: ok=%v failed=%v",
			m2.Committed(tx2.XID()), m2.Committed(tx.XID()))
	}
}

// TestStatusAppendDoesNotRewritePrefix pins the append-only property the
// crash atomicity of writeStatus depends on: committing one transaction
// into a multi-page table rewrites only page 0 and the tail page, never
// the full-but-untouched middle pages.
func TestStatusAppendDoesNotRewritePrefix(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	fillStatusTable(t, m, xidsPerFirstPage+xidsPerPage+5) // pages 0..2 in use
	writesBefore, _, _ := d.Stats()
	tx := m.Begin()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	writesAfter, _, _ := d.Stats()
	if got := writesAfter - writesBefore; got > 2 {
		t.Fatalf("append wrote %d pages, want <= 2 (page 0 + tail)", got)
	}
}

// --- parallel force fan-out ----------------------------------------------

// rendezvousSyncer blocks inside Sync until every sibling syncer is also
// inside Sync. A commit whose batch touches N of these can only finish if
// the leader forces all N concurrently — a sequential force deadlocks.
type rendezvousSyncer struct {
	entered *sync.WaitGroup
	release chan struct{}
}

func (r *rendezvousSyncer) Sync() error {
	r.entered.Done()
	<-r.release
	return nil
}

// TestBatchForceFansOut proves the Step-1 force of a batch spanning
// several sync domains (distinct Syncers — with a sharded index, the
// shards a transaction's writes hashed to) overlaps the domains' device
// syncs instead of serializing them, counts commit.fanout, and still ends
// in one ordinary status append.
func TestBatchForceFansOut(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(64)
	m.SetObs(rec)

	const domains = 4
	var entered sync.WaitGroup
	entered.Add(domains)
	release := make(chan struct{})
	go func() {
		entered.Wait()
		close(release)
	}()

	tx := m.Begin()
	for i := 0; i < domains; i++ {
		tx.Touch(&rendezvousSyncer{entered: &entered, release: release})
	}
	done := make(chan error, 1)
	go func() { done <- tx.Commit() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("commit stuck — batch forces did not overlap across sync domains")
	}
	if rec.Get(obs.CommitFanout) == 0 {
		t.Fatal("commit.fanout not counted for a multi-domain batch")
	}
	if !m.Committed(tx.XID()) {
		t.Fatal("transaction not visible after fanned-out commit")
	}
	// Durability: the status append covered the XID.
	m2, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Committed(tx.XID()) {
		t.Fatal("commit record not durable")
	}
}

// TestBatchForceFanoutFailureIsolated: when one domain's force fails mid
// fan-out, only transactions that touched that domain abort; the rest of
// the batch commits — same isolation contract as the sequential force.
func TestBatchForceFanoutFailureIsolated(t *testing.T) {
	d := storage.NewMemDisk()
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New(64)
	m.SetObs(rec)

	good := &gateSyncer{}
	bad := &failSyncer{err: errDeviceGone}

	txGood := m.Begin()
	txGood.Touch(good)
	txBad := m.Begin()
	txBad.Touch(good)
	txBad.Touch(bad)

	// Pile both into one batch: block the leader's queue drain by holding
	// leadership with a gated commit first.
	gate := &gateSyncer{gate: make(chan struct{})}
	txGate := m.Begin()
	txGate.Touch(gate)
	var wg sync.WaitGroup
	errsCh := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); errsCh[0] = txGate.Commit() }()
	for gate.count() == 0 {
		runtime.Gosched()
	}
	wg.Add(2)
	go func() { defer wg.Done(); errsCh[1] = txGood.Commit() }()
	go func() { defer wg.Done(); errsCh[2] = txBad.Commit() }()
	for {
		m.gc.mu.Lock()
		n := len(m.gc.queue)
		m.gc.mu.Unlock()
		if n == 2 {
			break
		}
		runtime.Gosched()
	}
	close(gate.gate)
	wg.Wait()

	if errsCh[0] != nil || errsCh[1] != nil {
		t.Fatalf("clean transactions failed: %v, %v", errsCh[0], errsCh[1])
	}
	if !errors.Is(errsCh[2], ErrCommitFailed) {
		t.Fatalf("transaction on the failed domain: %v, want ErrCommitFailed", errsCh[2])
	}
	if !m.Committed(txGood.XID()) || m.Committed(txBad.XID()) {
		t.Fatalf("visibility wrong: good=%v bad=%v",
			m.Committed(txGood.XID()), m.Committed(txBad.XID()))
	}
}

// failSyncer always fails with the given error.
type failSyncer struct{ err error }

func (f *failSyncer) Sync() error { return f.err }

var errDeviceGone = errors.New("txn_test: device gone")

// TestStatusAppendMatchesOrder: status appends encode only their new
// entries into kept page images, so after every successful commit the
// table on disk must decode to exactly the commit order — across the
// page-0 spill boundary, after failed status writes whose entries linger
// in the images past the count (among them the appends that open a new
// continuation page), and after reopens that load the images back from
// disk.
func TestStatusAppendMatchesOrder(t *testing.T) {
	d := &syncFailDisk{Disk: storage.NewMemDisk()}
	m, err := OpenManager(d)
	if err != nil {
		t.Fatal(err)
	}
	want := []heap.XID{1}
	devErr := errors.New("status device unavailable")
	for i := 0; i < xidsPerFirstPage+xidsPerPage+50; i++ {
		if no, off := xidPos(len(want)); i%97 == 13 || (no != 0 && off == statusBase) {
			d.arm(devErr)
			if err := m.Begin().Commit(); !errors.Is(err, devErr) {
				t.Fatalf("commit %d over a failing device: %v", i, err)
			}
			d.arm(nil)
		}
		if i%400 == 399 {
			if m, err = OpenManager(d); err != nil {
				t.Fatal(err)
			}
		}
		tx := m.Begin()
		if err := tx.Commit(); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		want = append(want, tx.XID())
		got, err := OpenManager(d.Disk)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.order, want) {
			t.Fatalf("after commit %d the table decodes to %d entries, want %d (last %v, want %v)",
				i, len(got.order), len(want), got.order[len(got.order)-1], want[len(want)-1])
		}
	}
}
