// Package txn implements the POSTGRES-style transaction manager the
// paper's storage system assumes (§2): there is no write-ahead log; a
// transaction commits by forcing every page it touched to stable storage
// and then durably recording its XID as committed. After a crash the
// status table simply lacks the XIDs of in-flight transactions, so their
// tuples are invisible — recovery is instantaneous.
//
// Commits are group committed. Because the §2 force is an *unordered*
// sync, the forces of concurrently committing transactions may legally be
// coalesced into one device sync, and their commit records into one
// status-table write: a leader drains the queue of waiting committers,
// forces each distinct storage object once, appends every XID in the
// batch with a single status append, and wakes the followers with the
// shared result. A crash before the status append leaves every member of
// the batch invisible; a crash after leaves them all committed — there is
// no partial-batch durability.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
)

// ErrTxnFinished is returned when using a committed or aborted transaction.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// ErrCommitFailed marks a commit that could not complete. The transaction
// has been aborted: its tuples remain physically present but will never be
// visible. The failure is safe to retry as a NEW transaction (re-run the
// work and commit again); servers surface it as a retryable error.
var ErrCommitFailed = errors.New("txn: commit failed; transaction aborted")

// CommitError reports why a commit failed and at which stage. It unwraps
// to both ErrCommitFailed and the underlying device error.
//
// Stage "force" means a touched storage object's Sync failed before any
// commit record was written: the status table is untouched and the
// transaction is simply invisible, exactly as if it had crashed.
//
// Stage "status" means the status-table write itself failed. The
// transaction is aborted in this process, but durability of the commit
// record is indeterminate: a subsequent restart may find it committed
// (its data pages were already forced, so that outcome is consistent too).
type CommitError struct {
	XID   heap.XID
	Stage string // "force" or "status"
	Err   error
}

func (e *CommitError) Error() string {
	return fmt.Sprintf("txn: commit of xid %d failed at %s stage: %v (transaction aborted)", e.XID, e.Stage, e.Err)
}

// Unwrap lets errors.Is see both the sentinel and the device error.
func (e *CommitError) Unwrap() []error { return []error{ErrCommitFailed, e.Err} }

// Syncer is anything whose dirty pages must be forced before a commit:
// heap relations, indexes, or whole databases.
type Syncer interface {
	Sync() error
}

// Manager allocates XIDs and maintains the durable commit status table.
// The table lives in its own page file: page 0 holds the next-XID high
// water mark and the count of committed XIDs, followed by the XIDs in
// commit order (spilling onto subsequent pages as needed).
type Manager struct {
	disk storage.Disk
	obs  *obs.Recorder // nil-safe; set once before concurrent use

	mu      sync.Mutex
	nextXID heap.XID
	// committed maps each committed XID to its commit sequence: the value
	// of commits right after it became visible, 0 for commits loaded at
	// open.
	committed map[heap.XID]uint64
	order     []heap.XID // committed XIDs in on-disk (commit) order
	active    map[heap.XID]*Txn
	// commits counts the transactions made visible since open. It moves
	// in the same m.mu section that updates committed (see Commits).
	commits atomic.Uint64

	gc groupCommitter

	// head is the image of status page 0 and tail that of continuation
	// page tailNo, the last one holding entries (nil before the table
	// spills), kept in step with order so an append encodes only its new
	// entries. An append writes only into these two and into pages past
	// tailNo, which start from fresh images; earlier pages hold immutable
	// entries and are never rewritten, so their images are not kept. They
	// belong to the commit leader (one at a time, handed over under gc.mu)
	// and to single-threaded bootstrap.
	head   page.Page
	tail   page.Page
	tailNo storage.PageNo

	// Test hooks, fired by the commit leader. Set before concurrent use.
	hookAfterForce    func(batch []heap.XID) // between batched force and status write
	hookAfterTailSync func()                 // between continuation-page sync and page-0 write
}

// statusLayout: page 0 header is a normal page header; body is
//
//	nextXID u64 | count u64 | xid u64 ...
//
// continued on pages 1..n with raw u64 arrays. XIDs are stored in commit
// order, never rewritten: entry i's location is a pure function of i, and
// a persisted entry is immutable. That append-only discipline is what
// makes the two-phase status write below crash-atomic (see writeStatus).
const (
	statusBase       = page.HeaderSize
	xidsPerFirstPage = (page.Size - statusBase - 16) / 8
	xidsPerPage      = (page.Size - statusBase) / 8
)

// xidPos maps status-table entry index i to its page and byte offset.
func xidPos(i int) (storage.PageNo, int) {
	if i < xidsPerFirstPage {
		return 0, statusBase + 16 + 8*i
	}
	j := i - xidsPerFirstPage
	return storage.PageNo(1 + j/xidsPerPage), statusBase + 8*(j%xidsPerPage)
}

// OpenManager loads (or initializes) the status table from disk.
func OpenManager(disk storage.Disk) (*Manager, error) {
	m := &Manager{
		disk:      disk,
		nextXID:   2, // XID 1 is the bootstrap transaction
		committed: map[heap.XID]uint64{1: 0},
		order:     []heap.XID{1},
		active:    make(map[heap.XID]*Txn),
		head:      newStatusImage(),
	}
	m.gc.cond = sync.NewCond(&m.gc.mu)
	m.gc.batching = true
	if disk.NumPages() == 0 {
		return m, m.persistAll()
	}
	img := page.New()
	if err := disk.ReadPage(0, img); err != nil {
		return nil, err
	}
	if img.IsZeroed() {
		return m, m.persistAll()
	}
	m.head = img
	next := getU64(img[statusBase:])
	count := getU64(img[statusBase+8:])
	if next > uint64(m.nextXID) {
		m.nextXID = heap.XID(next)
	}
	m.committed = make(map[heap.XID]uint64, count+1)
	m.committed[1] = 0
	m.order = m.order[:0]
	read := uint64(0)
	off := statusBase + 16
	pageNo := storage.PageNo(0)
	for read < count {
		if off+8 > page.Size {
			pageNo++
			if pageNo >= disk.NumPages() {
				return nil, fmt.Errorf("txn: status table truncated at %d/%d xids", read, count)
			}
			if m.tail == nil {
				m.tail = page.New()
			}
			img = m.tail
			if err := disk.ReadPage(pageNo, img); err != nil {
				return nil, err
			}
			m.tailNo = pageNo
			off = statusBase
		}
		x := heap.XID(getU64(img[off:]))
		m.committed[x] = 0
		m.order = append(m.order, x)
		off += 8
		read++
	}
	return m, nil
}

// SetObs attaches a recovery-event recorder to the commit path (batch and
// coalescing counters, commit-latency and status-write histograms). Call
// before concurrent use; a nil recorder is the disabled state.
func (m *Manager) SetObs(r *obs.Recorder) { m.obs = r }

// SetBatching enables or disables group commit. With batching off every
// committer runs its own force and its own status write, serialized —
// the per-transaction-sync baseline the benchmarks compare against.
// Call before concurrent use.
func (m *Manager) SetBatching(on bool) {
	m.gc.mu.Lock()
	m.gc.batching = on
	m.gc.mu.Unlock()
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	x := m.nextXID
	m.nextXID++
	t := &Txn{mgr: m, xid: x}
	m.active[x] = t
	return t
}

// Committed implements heap.StatusChecker.
func (m *Manager) Committed(x heap.XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.committed[x]
	return ok
}

// Active implements heap.TxnStatus: x has begun and has not finished. A
// committing transaction leaves the running set only after it is marked
// committed (runBatch), as heap.TxnStatus requires.
func (m *Manager) Active(x heap.XID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active[x] != nil
}

// Commits returns how many transactions have become visible since the
// manager opened. With CommittedAfter it tells a reader which commits
// landed after a point in its read: the count moves in the same m.mu
// section that publishes each commit, and Committed takes m.mu.
func (m *Manager) Commits() uint64 { return m.commits.Load() }

// CommittedAfter reports whether x committed after Commits returned n.
func (m *Manager) CommittedAfter(x heap.XID, n uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	seq, ok := m.committed[x]
	return ok && seq > n
}

// HighestCommitted returns the largest committed XID (for as-of snapshots).
func (m *Manager) HighestCommitted() heap.XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hi heap.XID
	for x := range m.committed {
		if x > hi {
			hi = x
		}
	}
	return hi
}

// --- group commit --------------------------------------------------------

// groupCommitter is the commit coordinator: a queue of waiting committers
// and a single leader. The first committer to find the queue headless
// becomes leader, drains the whole queue, and performs one batched force
// plus one status append for every member; later arrivals park on the
// condition variable and leave with the shared result. Leadership is
// handed to the next queue head after every batch, so no committer is
// starved into serving other transactions' batches.
type groupCommitter struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []*commitReq
	leading  bool
	batching bool
}

// commitReq is one transaction waiting to commit. err and done are written
// by the leader and read by the owner, both under gc.mu.
type commitReq struct {
	t    *Txn
	err  error
	done bool
}

// groupCommit enqueues req and blocks until a leader (possibly the caller)
// has committed or failed it.
func (m *Manager) groupCommit(req *commitReq) error {
	g := &m.gc
	g.mu.Lock()
	g.queue = append(g.queue, req)
	for !req.done && (g.leading || g.queue[0] != req) {
		g.cond.Wait()
	}
	if req.done {
		err := req.err
		g.mu.Unlock()
		return err
	}
	// Queue head with no leader running: lead this batch.
	g.leading = true
	var batch []*commitReq
	if g.batching {
		batch = g.queue
		g.queue = nil
	} else {
		batch = []*commitReq{req}
		g.queue = g.queue[1:]
	}
	g.mu.Unlock()

	m.runBatch(batch)

	g.mu.Lock()
	g.leading = false
	for _, r := range batch {
		r.done = true
	}
	err := req.err
	g.cond.Broadcast()
	g.mu.Unlock()
	return err
}

// runBatch performs the two-step commit of §2 for a whole batch: force
// every distinct storage object the batch touched (one unordered sync
// each, shared by all members that touched it), then append every
// surviving XID to the status table in one write. Members whose force
// failed are dropped from the status append and aborted with a typed
// error; the rest commit normally — a device failure on one relation does
// not poison transactions that never touched it.
func (m *Manager) runBatch(batch []*commitReq) {
	m.obs.Count(obs.CommitBatch)
	m.obs.CountN(obs.CommitTxn, uint64(len(batch)))

	// Step 1: the batched force. Each Syncer is forced once no matter how
	// many batch members touched it — legal because the §2 sync is
	// unordered and covers every dirty page regardless of owner. Nothing
	// orders one object's unordered sync against another's, so with
	// several distinct Syncers (a heap and its index, or the independent
	// sync domains of a sharded index) the leader forces the first itself
	// and fans the others out to goroutines whose device flushes overlap
	// its own; a batch with one Syncer never leaves the leader.
	forced := make(map[Syncer]error)
	var distinct []Syncer
	for _, r := range batch {
		for _, s := range r.t.touched {
			if _, done := forced[s]; done {
				m.obs.Count(obs.CommitSyncSkip)
				continue
			}
			forced[s] = nil
			distinct = append(distinct, s)
		}
	}
	if len(distinct) > 0 {
		errs := make([]error, len(distinct))
		var wg sync.WaitGroup
		if len(distinct) > 1 {
			m.obs.Count(obs.CommitFanout)
		}
		for i := 1; i < len(distinct); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = distinct[i].Sync()
			}(i)
		}
		errs[0] = distinct[0].Sync()
		wg.Wait()
		for i, s := range distinct {
			forced[s] = errs[i]
		}
	}

	var commitSet []*commitReq
	var xids []heap.XID
	for _, r := range batch {
		var failErr error
		for _, s := range r.t.touched {
			if err := forced[s]; err != nil {
				failErr = err
				break
			}
		}
		if failErr != nil {
			r.err = &CommitError{XID: r.t.xid, Stage: "force", Err: failErr}
			m.obs.Count(obs.CommitFail)
			continue
		}
		commitSet = append(commitSet, r)
		xids = append(xids, r.t.xid)
	}

	if m.hookAfterForce != nil {
		m.hookAfterForce(xids)
	}

	// Step 2: one status append covering every survivor. The encode runs
	// under m.mu (it reads the order slice and the XID high-water mark);
	// the device writes and syncs run outside it, so readers calling
	// Committed are never blocked behind an fsync. Crucially the batch is
	// staged only in m.order here — m.committed, the visibility oracle, is
	// updated strictly AFTER writeStatus returns, so no reader can observe
	// a transaction as committed before its commit record is durable (and
	// a status-write failure never has to retract visibility a reader may
	// already have acted on).
	if len(xids) > 0 {
		m.mu.Lock()
		m.order = append(m.order, xids...)
		tail := m.encodeLocked(len(xids))
		m.mu.Unlock()

		if err := m.writeStatus(tail); err != nil {
			m.mu.Lock()
			m.order = m.order[:len(m.order)-len(xids)]
			m.mu.Unlock()
			for _, r := range commitSet {
				r.err = &CommitError{XID: r.t.xid, Stage: "status", Err: err}
				m.obs.Count(obs.CommitFail)
			}
		} else {
			m.mu.Lock()
			for _, x := range xids {
				m.committed[x] = m.commits.Add(1)
			}
			m.mu.Unlock()
		}
	}

	// Every batch member is finished now — committed or aborted.
	m.mu.Lock()
	for _, r := range batch {
		delete(m.active, r.t.xid)
	}
	m.mu.Unlock()
}

// statusPage is a continuation page of the status table and the image an
// append wrote into it.
type statusPage struct {
	no  storage.PageNo
	img page.Page
}

// encodeLocked stages an append of the last nNew entries of m.order in the
// status images: it writes only the new XIDs at their fixed positions and
// page 0's header (XID high-water mark and count), and returns the
// continuation pages the append touched, ascending (nNew == len(order)
// encodes the whole table). Called with m.mu held; does no I/O. An image
// may hold entries past the count after a failed status write rolled the
// order back; the count decides what is read, and the next append
// overwrites them.
func (m *Manager) encodeLocked(nNew int) []statusPage {
	total := len(m.order)
	var tail []statusPage
	for i := total - nNew; i < total; i++ {
		no, off := xidPos(i)
		img := m.head
		if no != 0 {
			if len(tail) == 0 || tail[len(tail)-1].no != no {
				tail = append(tail, statusPage{no, m.tailImage(no)})
			}
			img = tail[len(tail)-1].img
		}
		putU64(img[off:], uint64(m.order[i]))
	}
	putU64(m.head[statusBase:], uint64(m.nextXID))
	putU64(m.head[statusBase+8:], uint64(total))
	return tail
}

// tailImage returns the image to append into on continuation page no: the
// kept tail image if no is the tail page, else a fresh one (no is past
// the tail: its entries are all new).
func (m *Manager) tailImage(no storage.PageNo) page.Page {
	if no == m.tailNo && m.tail != nil {
		return m.tail
	}
	return newStatusImage()
}

// newStatusImage formats an empty status page.
func newStatusImage() page.Page {
	img := page.New()
	img.Init(page.TypeMeta, 0)
	return img
}

// writeStatus makes an encoded status append durable. The write is
// crash-atomic without any page being written twice:
//
//  1. Continuation pages (if the append spilled past page 0) are written
//     and synced first. A crash here leaves page 0's old count in place;
//     the new tail entries are durable but uncovered, hence invisible.
//     Because entries are append-only, every entry the old count DOES
//     cover is byte-identical in the old and new images — a torn mix of
//     old page 0 and new tail pages reads back exactly the old commit set.
//  2. Page 0 — count, XID high-water mark, and the first-page entries —
//     is written and synced. This single-page write is the commit point
//     for the whole batch: atomic by the §2 single-page-write assumption.
//
// A batch that fits on page 0 (the common case early in a file's life)
// costs one page write and one sync.
func (m *Manager) writeStatus(tail []statusPage) error {
	start := time.Now()
	for _, sp := range tail {
		if err := m.disk.WritePage(sp.no, sp.img); err != nil {
			return err
		}
	}
	if len(tail) > 0 {
		if err := m.disk.Sync(); err != nil {
			return err
		}
	}
	if m.hookAfterTailSync != nil {
		m.hookAfterTailSync()
	}
	if err := m.disk.WritePage(0, m.head); err != nil {
		return err
	}
	if err := m.disk.Sync(); err != nil {
		return err
	}
	if n := len(tail); n > 0 {
		m.tail, m.tailNo = tail[n-1].img, tail[n-1].no
	}
	m.obs.Observe(obs.TStatusWrite, time.Since(start))
	return nil
}

// persistAll writes the whole status table. Used during single-threaded
// bootstrap (OpenManager on a fresh or zeroed file).
func (m *Manager) persistAll() error {
	m.mu.Lock()
	tail := m.encodeLocked(len(m.order))
	m.mu.Unlock()
	return m.writeStatus(tail)
}

// Txn is one transaction. It records the storage it touched so commit can
// force exactly the right pages (in this reproduction, whole files).
type Txn struct {
	mgr      *Manager
	xid      heap.XID
	touched  []Syncer
	finished bool
}

// XID returns the transaction's identifier.
func (t *Txn) XID() heap.XID { return t.xid }

// Touch registers storage whose dirty pages must be forced at commit.
func (t *Txn) Touch(s Syncer) {
	for _, have := range t.touched {
		if have == s {
			return
		}
	}
	t.touched = append(t.touched, s)
}

// Commit implements the two-step force of §2, batched with any other
// transactions committing concurrently: first every page the batch touched
// is written and synced (in an order the DBMS does not control), then the
// commit records — the XIDs' entries in the status table — are made
// durable together. A crash between the two steps leaves every member of
// the batch uncommitted and all their tuples invisible; a crash after
// both leaves them fully committed. There is no window in which a
// committed transaction's data can be missing, and no window in which
// part of a batch is durable without the rest.
//
// On failure the transaction is aborted — never left in limbo — and the
// returned error unwraps to ErrCommitFailed plus the device error. The
// caller may retry the work under a new transaction.
func (t *Txn) Commit() error {
	if t.finished {
		return ErrTxnFinished
	}
	var start time.Time
	if t.mgr.obs != nil {
		start = time.Now()
	}
	err := t.mgr.groupCommit(&commitReq{t: t})
	if t.mgr.obs != nil {
		t.mgr.obs.Observe(obs.TCommit, time.Since(start))
	}
	t.finished = true // committed or aborted; either way it is over
	return err
}

// Abort abandons the transaction. Nothing is undone: the tuples it wrote
// remain physically present but invisible forever (until the vacuum
// reclaims them), exactly the no-overwrite discipline.
func (t *Txn) Abort() error {
	if t.finished {
		return ErrTxnFinished
	}
	m := t.mgr
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.active, t.xid)
	t.finished = true
	return nil
}

func putU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}
