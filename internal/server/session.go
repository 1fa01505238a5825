package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/txn"
)

const (
	maxLine     = 1 << 20 // longest accepted request line
	defaultScan = 100     // SCAN row cap when the client gives none
	maxScan     = 100000
)

// session is one connection's state: at most one open transaction.
type session struct {
	srv *Server
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	tx  *core.Txn
}

func newSession(s *Server, c net.Conn) *session {
	return &session{
		srv: s,
		c:   c,
		r:   bufio.NewReaderSize(c, 64<<10),
		w:   bufio.NewWriterSize(c, 64<<10),
	}
}

// run is the session loop: read a line, execute, reply, until the client
// quits, the connection drops, or the server drains.
func (ss *session) run() {
	defer func() {
		// A connection that drops mid-transaction aborts it — exactly a
		// client crash in the §2 model: nothing to undo, the tuples are
		// simply never committed.
		if ss.tx != nil {
			_ = ss.tx.Abort()
			ss.tx = nil
		}
	}()
	for {
		if ss.srv.draining() {
			ss.reply("ERR shutdown server is draining")
			ss.w.Flush()
			return
		}
		line, err := ss.readLine()
		if err != nil {
			if errors.Is(err, errLineTooLong) {
				ss.reply("ERR usage line too long")
				ss.w.Flush()
				return
			}
			// A final unterminated line is served only on a clean EOF — the
			// client wrote it whole and closed. On any other error (read
			// deadline during drain, reset peer) the line may be a TRUNCATED
			// prefix of a command still in flight; executing it could
			// durably autocommit a corrupted write, so drop it and close.
			if !errors.Is(err, io.EOF) || len(line) == 0 {
				return
			}
		}
		line = strings.TrimRight(line, "\r\n")
		if line == "" {
			continue
		}
		if !ss.dispatch(line) {
			ss.w.Flush()
			return
		}
		if err := ss.w.Flush(); err != nil {
			return
		}
	}
}

// errLineTooLong rejects a request line that exceeded maxLine before a
// newline arrived.
var errLineTooLong = errors.New("server: request line too long")

// readLine reads one newline-terminated request line, enforcing maxLine
// incrementally: the line is rejected as soon as the cap is crossed, never
// buffered whole first, so a client streaming an endless unterminated line
// cannot grow server memory past maxLine plus one bufio buffer.
func (ss *session) readLine() (string, error) {
	var buf []byte
	for {
		frag, err := ss.r.ReadSlice('\n')
		if len(buf)+len(frag) > maxLine {
			return "", errLineTooLong
		}
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			continue // long line spans bufio buffers; keep accumulating
		}
		return string(buf), err
	}
}

// dispatch executes one request line; false means close the session.
func (ss *session) dispatch(line string) bool {
	verb := line
	rest := ""
	if i := strings.IndexByte(line, ' '); i >= 0 {
		verb, rest = line[:i], line[i+1:]
	}
	switch strings.ToUpper(verb) {
	case "BEGIN":
		ss.cmdBegin()
	case "PUT":
		ss.cmdPut(rest)
	case "MPUT":
		ss.cmdMput(rest)
	case "GET":
		ss.cmdGet(rest)
	case "DEL":
		ss.cmdDel(rest)
	case "SCAN":
		ss.cmdScan(rest)
	case "COMMIT":
		ss.cmdCommit()
	case "ABORT":
		ss.cmdAbort()
	case "STATS":
		ss.cmdStats()
	case "QUIT":
		ss.reply("OK bye")
		return false
	default:
		ss.reply("ERR usage unknown verb %q", verb)
	}
	return true
}

func (ss *session) reply(format string, args ...any) {
	fmt.Fprintf(ss.w, format+"\n", args...)
}

// fail maps engine errors onto protocol error codes.
func (ss *session) fail(err error) {
	switch {
	case errors.Is(err, txn.ErrCommitFailed):
		ss.reply("ERR retry %v", err)
	case errors.Is(err, core.ErrReadOnly):
		ss.reply("ERR readonly %v", err)
	case errors.Is(err, core.ErrFailed):
		ss.reply("ERR failed %v", err)
	case errors.Is(err, core.ErrQuarantined):
		ss.reply("ERR quarantined %v", err)
	case errors.Is(err, heap.ErrConflict):
		ss.reply("ERR conflict %v", err)
	default:
		ss.reply("ERR server %v", err)
	}
}

func (ss *session) cmdBegin() {
	if ss.tx != nil {
		ss.reply("ERR txn transaction %d already open", ss.tx.XID())
		return
	}
	ss.tx = ss.srv.db.Begin()
	ss.reply("OK %d", ss.tx.XID())
}

func (ss *session) cmdCommit() {
	if ss.tx == nil {
		ss.reply("ERR notxn no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil // committed or aborted either way — never limbo
	if err := tx.Commit(); err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %d", tx.XID())
}

func (ss *session) cmdAbort() {
	if ss.tx == nil {
		ss.reply("ERR notxn no transaction open")
		return
	}
	tx := ss.tx
	ss.tx = nil
	if err := tx.Abort(); err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %d", tx.XID())
}

// withTxn runs fn under the session transaction, or under a fresh
// autocommit transaction that commits (or aborts on error) around it.
func (ss *session) withTxn(fn func(tx *core.Txn) error) error {
	if ss.tx != nil {
		return fn(ss.tx)
	}
	tx := ss.srv.db.Begin()
	if err := fn(tx); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

func (ss *session) cmdPut(rest string) {
	i := strings.IndexByte(rest, ' ')
	if rest == "" || i <= 0 || i == len(rest)-1 {
		ss.reply("ERR usage PUT <key> <value>")
		return
	}
	key, value := []byte(rest[:i]), []byte(rest[i+1:])
	err := ss.withTxn(func(tx *core.Txn) error { return ss.srv.put(tx, key, value) })
	if err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK")
}

// cmdMput writes several pairs in one round trip. Unlike PUT, values are
// single tokens (the line is split on spaces). All pairs go through one
// transaction and one batched index insert, so a big MPUT pays one descent
// per leaf run and — outside BEGIN — one commit sync, not one per pair.
func (ss *session) cmdMput(rest string) {
	fields := strings.Fields(rest)
	if len(fields) == 0 || len(fields)%2 != 0 {
		ss.reply("ERR usage MPUT <key> <value> [<key> <value> ...]")
		return
	}
	n := len(fields) / 2
	keys := make([][]byte, n)
	values := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fields[2*i])
		values[i] = []byte(fields[2*i+1])
	}
	err := ss.withTxn(func(tx *core.Txn) error { return ss.srv.putBatch(tx, keys, values) })
	if err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %d", n)
}

func (ss *session) cmdGet(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.reply("ERR usage GET <key>")
		return
	}
	_, val, ok, err := ss.srv.lookupVisible([]byte(rest))
	if err != nil {
		ss.fail(err)
		return
	}
	if !ok {
		ss.reply("NOTFOUND")
		return
	}
	ss.reply("OK %s", val)
}

func (ss *session) cmdDel(rest string) {
	if rest == "" || strings.ContainsRune(rest, ' ') {
		ss.reply("ERR usage DEL <key>")
		return
	}
	found := false
	err := ss.withTxn(func(tx *core.Txn) error {
		var err error
		found, err = ss.srv.del(tx, []byte(rest))
		return err
	})
	if err != nil {
		ss.fail(err)
		return
	}
	if !found {
		ss.reply("NOTFOUND")
		return
	}
	ss.reply("OK")
}

func (ss *session) cmdScan(rest string) {
	fields := strings.Fields(rest)
	if len(fields) < 2 || len(fields) > 3 {
		ss.reply("ERR usage SCAN <lo> <hi> [limit]  (\"-\" = open bound)")
		return
	}
	var lo, hi []byte
	if fields[0] != "-" {
		lo = []byte(fields[0])
	}
	if fields[1] != "-" {
		hi = []byte(fields[1])
	}
	limit := defaultScan
	if len(fields) == 3 {
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 || n > maxScan {
			ss.reply("ERR usage bad limit %q (1..%d)", fields[2], maxScan)
			return
		}
		limit = n
	}
	rows, err := ss.srv.scanVisible(lo, hi, limit)
	if err != nil {
		ss.fail(err)
		return
	}
	for _, r := range rows {
		ss.reply("ROW %s %s", r.key, r.val)
	}
	ss.reply("OK %d", len(rows))
}

func (ss *session) cmdStats() {
	snap := ss.srv.db.Metrics()
	cache := ss.srv.db.CacheStats()
	stats := map[string]any{
		"health":              ss.srv.db.Health().String(),
		"commit_txns":         snap.Counters["commit.txn"],
		"commit_batches":      snap.Counters["commit.batch"],
		"commit_fails":        snap.Counters["commit.fail"],
		"commit_sync_skipped": snap.Counters["commit.sync.skipped"],
		"flush_passes":        snap.Counters["flush.daemon"],
		"cache_hits":          cache.Hits,
		"cache_misses":        cache.Misses,
		"evict_promotions":    snap.Counters["pool.evict.promote"],
		"batch_puts":          snap.Counters["batch.put"],
		"batch_leaf_runs":     snap.Counters["batch.leafrun"],
		"open_walk_pages":     snap.Counters["open.walk.page"],
		"freelist_drops":      snap.Counters["freelist.drop"],
	}
	if n := ss.srv.idx.Shards(); n > 1 {
		stats["shards"] = n
		stats["shard_stats"] = ss.srv.idx.ShardStats()
	}
	b, err := json.Marshal(stats)
	if err != nil {
		ss.fail(err)
		return
	}
	ss.reply("OK %s", b)
}

// --- KV semantics over the heap + index ----------------------------------
//
// Every tuple version of user key k has one index entry. The tuple
// identifier makes it unique, POSTGRES-style (§2), and the layout gives k
// one exact run, newest version first:
//
//	esc(k) 0x00 ^TID
//
// esc writes 0x00 as 0x01 0x01 and 0x01 as 0x01 0x02 and keeps every other
// byte. That keeps byte order and leaves no 0x00 inside the key, so the
// 0x00 terminator ends it: k's entries are exactly the index range
// [esc(k) 0x00, esc(k) 0x01), and the entries of a key that extends k sort
// wholly after them. ^TID is the TID big-endian with every bit inverted,
// so a run is ordered by descending TID, the latest heap placement first.
// Readers take the first visible entry of a run. Dead entries (aborted
// writers, superseded versions) stay behind for the vacuum; nothing removes
// them transactionally.
//
// Writers follow the heap's xmax rule. A write replaces the version its
// transaction sees as current (its own latest write of the key, else the
// newest committed version) by stamping that version's xmax. A version
// already stamped by another running transaction is a conflict (ERR
// conflict); a stamp left by a dead one is taken over. Two inserts of a
// key that had no visible version do not conflict; if both commit, the
// higher TID, first in the run, wins.

// tidLen is the length of the ^TID suffix of an index entry.
const tidLen = 6

// layoutMarker is the first entry of every KV index New creates. It is
// shorter than any real entry, so no user key encodes to it, and it sorts
// before all of them: only the empty key, which the protocol cannot send,
// would share its range.
var layoutMarker = []byte{0x00}

// ErrOldLayout refuses a KV index whose entries are not in the run layout.
var ErrOldLayout = errors.New("server: KV index was written in the older key‖TID layout")

// ensureLayout writes the layout marker into an empty index, and refuses an
// index whose first entry is something else: its entries would be misread.
func ensureLayout(db *core.DB, idx core.KVIndex) error {
	var first []byte
	if err := idx.Scan(nil, nil, func(k []byte, _ heap.TID) bool {
		first = bytes.Clone(k)
		return false
	}); err != nil {
		return err
	}
	if first != nil {
		if !bytes.Equal(first, layoutMarker) {
			return fmt.Errorf("%w: index %q starts with entry %q, not the layout marker", ErrOldLayout, idx.Name(), first)
		}
		return nil
	}
	tx := db.Begin()
	if err := idx.InsertTID(tx, layoutMarker, heap.TID{}); err != nil {
		_ = tx.Abort()
		return err
	}
	return tx.Commit()
}

// appendRun appends esc(k) 0x00, the first key of k's run, to dst.
func appendRun(dst, k []byte) []byte {
	if bytes.IndexByte(k, 0x00) < 0 && bytes.IndexByte(k, 0x01) < 0 {
		return append(append(dst, k...), 0x00) // nothing to escape
	}
	for _, c := range k {
		switch c {
		case 0x00, 0x01:
			dst = append(dst, 0x01, c+1)
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00)
}

// entryKey is k's index entry for the version at tid.
func entryKey(k []byte, tid heap.TID) []byte {
	e := appendRun(make([]byte, 0, len(k)+1+tidLen), k)
	p, sl := tid.PageNo, tid.Slot
	return append(e, ^byte(p>>24), ^byte(p>>16), ^byte(p>>8), ^byte(p), ^byte(sl>>8), ^byte(sl))
}

// userKey decodes the user key of a run prefix esc(k) 0x00.
func userKey(run []byte) []byte {
	k := make([]byte, 0, len(run)-1)
	for i := 0; i < len(run)-1; i++ {
		c := run[i]
		if c == 0x01 {
			i++
			c = run[i] - 1
		}
		k = append(k, c)
	}
	return k
}

// fetch reads the tuple at tid. ok is false for an invisible version; err
// is set only when the store itself fails.
func (s *Server) fetch(tid heap.TID) (data []byte, ok bool, err error) {
	data, err = s.rel.Fetch(tid)
	if errors.Is(err, heap.ErrNoSuchTuple) {
		return nil, false, nil
	}
	return data, err == nil, err
}

// firstVisible returns the first entry of key's run that visible accepts.
//
// A read that finds nothing may have raced a committing writer: the
// writer's new version was skipped while its creator still ran (or entered
// the index behind the scan), the creator committed, and the version it
// replaced was dead by the time it was checked. So a miss is trusted only
// if no skipped version was deleted by a transaction that committed during
// the read; otherwise the run is read again. Commits of other keys never
// force a re-read.
func (s *Server) firstVisible(key []byte, visible func(heap.TID) (bool, error)) (heap.TID, bool, error) {
	// lo and hi share one allocation.
	n := len(key) + 1 + bytes.Count(key, []byte{0x00}) + bytes.Count(key, []byte{0x01})
	buf := appendRun(make([]byte, 0, 2*n), key)
	buf = append(buf, buf...)
	lo, hi := buf[:n], buf[n:]
	hi[n-1] = 0x01
	var r struct { // one allocation for everything the scan callback sets
		tid     heap.TID
		found   bool
		skipped []heap.TID
		err     error
	}
	for {
		epoch := s.db.Manager().Commits()
		r.found, r.skipped, r.err = false, r.skipped[:0], nil
		err := s.idx.Scan(lo, hi, func(_ []byte, t heap.TID) bool {
			r.found, r.err = visible(t)
			if r.found {
				r.tid = t
			} else if r.err == nil {
				r.skipped = append(r.skipped, t)
			}
			return !r.found && r.err == nil
		})
		if err == nil {
			err = r.err
		}
		if err != nil || r.found || !s.deletedSince(r.skipped, epoch) {
			return r.tid, r.found, err
		}
	}
}

// deletedSince reports whether a transaction that committed after
// Commits returned epoch deleted one of the versions at tids.
func (s *Server) deletedSince(tids []heap.TID, epoch uint64) bool {
	mgr := s.db.Manager()
	if len(tids) == 0 || mgr.Commits() == epoch {
		return false
	}
	for _, t := range tids {
		if _, xmax, err := s.rel.Heap().Header(t); err == nil && mgr.CommittedAfter(xmax, epoch) {
			return true
		}
	}
	return false
}

// lookupVisible resolves key to its newest committed version and value.
func (s *Server) lookupVisible(key []byte) (heap.TID, []byte, bool, error) {
	var val []byte
	tid, found, err := s.firstVisible(key, func(t heap.TID) (ok bool, err error) {
		val, ok, err = s.fetch(t)
		return ok, err
	})
	return tid, val, found, err
}

// current finds the version of key that tx replaces: its own latest write
// of key, or else the newest committed version it has not deleted itself.
func (s *Server) current(tx *core.Txn, key []byte) (heap.TID, bool, error) {
	me := tx.XID()
	return s.firstVisible(key, func(t heap.TID) (bool, error) {
		xmin, xmax, err := s.rel.Heap().Header(t)
		if errors.Is(err, heap.ErrNoSuchTuple) {
			return false, nil
		}
		mgr := s.db.Manager()
		created := xmin == me || mgr.Committed(xmin)
		deleted := xmax != 0 && (xmax == me || mgr.Committed(xmax))
		return err == nil && created && !deleted, err
	})
}

// write places value as key's new heap version under tx: an update of the
// version tx sees as current if there is one, an insert otherwise. The old
// version's index entry stays behind, pointing at a dead tuple, as the
// no-overwrite discipline requires.
func (s *Server) write(tx *core.Txn, key, value []byte) (heap.TID, error) {
	old, exists, err := s.current(tx, key)
	if err != nil {
		return heap.TID{}, err
	}
	if exists {
		return s.rel.Update(tx, old, value)
	}
	return s.rel.Insert(tx, value)
}

// put writes key=value under tx and indexes the new version.
func (s *Server) put(tx *core.Txn, key, value []byte) error {
	tid, err := s.write(tx, key, value)
	if err != nil {
		return err
	}
	return s.idx.InsertTID(tx, entryKey(key, tid), tid)
}

// putBatch is put over many pairs: each pair writes its heap version
// individually, then every index entry lands in one InsertTIDBatch. A key
// repeated in the batch is written once, with its last value: the index
// entries of the batch are not in the run yet, so an earlier occurrence's
// version could not be found and superseded.
func (s *Server) putBatch(tx *core.Txn, keys, values [][]byte) error {
	// Sort positions by key, stably, so each repeat follows the occurrence
	// it overrides.
	order := make([]int, len(keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return bytes.Compare(keys[a], keys[b]) })
	overridden := make([]bool, len(keys))
	for i := 1; i < len(order); i++ {
		overridden[order[i-1]] = bytes.Equal(keys[order[i-1]], keys[order[i]])
	}
	ikeys := make([][]byte, 0, len(keys))
	tids := make([]heap.TID, 0, len(keys))
	for i, k := range keys {
		if overridden[i] {
			continue
		}
		tid, err := s.write(tx, k, values[i])
		if err != nil {
			return err
		}
		ikeys = append(ikeys, entryKey(k, tid))
		tids = append(tids, tid)
	}
	return s.idx.InsertTIDBatch(tx, ikeys, tids)
}

// del stamps the version tx sees as current dead. The index entry
// remains; visibility filtering hides the version once tx commits.
func (s *Server) del(tx *core.Txn, key []byte) (bool, error) {
	tid, exists, err := s.current(tx, key)
	if err != nil || !exists {
		return false, err
	}
	return true, s.rel.Delete(tx, tid)
}

type kvRow struct{ key, val []byte }

// scanVisible walks user keys in [lo, hi) (nil = open bound) in key order
// and returns up to limit rows, each key's newest visible version. A run
// costs one fetch per version up to its first visible one; the rest of the
// run is stepped over by comparing keys, without fetching.
func (s *Server) scanVisible(lo, hi []byte, limit int) ([]kvRow, error) {
	var end []byte
	if hi != nil {
		end = appendRun(nil, hi)
	}
	var (
		rows []kvRow
		done []byte // run whose visible version is already in rows
		ferr error
	)
	err := s.idx.Scan(appendRun(nil, lo), end, func(e []byte, tid heap.TID) bool {
		if len(e) <= tidLen {
			return true // the layout marker
		}
		run := e[:len(e)-tidLen]
		if bytes.Equal(run, done) {
			return true
		}
		data, ok, err := s.fetch(tid)
		if !ok {
			ferr = err
			return err == nil
		}
		rows = append(rows, kvRow{key: userKey(run), val: data})
		done = append(done[:0], run...)
		return len(rows) < limit
	})
	if err == nil {
		err = ferr
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}
