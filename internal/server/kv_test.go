package server

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/obs"
	"repro/internal/storage"
)

// TestRunLayoutOrder: the run layout keeps user-key order, gives every key
// one contiguous run ordered by descending TID, and decodes back to the
// user key.
func TestRunLayoutOrder(t *testing.T) {
	f := func(a, b []byte, ta, tb uint32, sa, sb uint16) bool {
		x := heap.TID{PageNo: ta, Slot: sa}
		y := heap.TID{PageNo: tb, Slot: sb}
		ea, eb := entryKey(a, x), entryKey(b, y)
		run := func(e []byte) []byte { return e[:len(e)-tidLen] }
		if !bytes.Equal(userKey(run(ea)), a) || !bytes.Equal(userKey(run(eb)), b) {
			return false
		}
		switch c := bytes.Compare(a, b); {
		case c < 0:
			return bytes.Compare(ea, eb) < 0
		case c > 0:
			return bytes.Compare(ea, eb) > 0
		}
		// Same key: newer (higher) TID first.
		older := x.PageNo < y.PageNo || (x.PageNo == y.PageNo && x.Slot < y.Slot)
		return x == y || (bytes.Compare(ea, eb) > 0) == older
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// The cases that defeat a plain key||TID layout: a key, its
	// extensions through 0x00 and 0x01, and their escapes.
	keys := [][]byte{{'a'}, {'a', 0}, {'a', 0, 0}, {'a', 0, 1}, {'a', 1}, {'a', 1, 0}, {'a', 2}, {'a', 0xff}}
	for i := 1; i < len(keys); i++ {
		lo := entryKey(keys[i-1], heap.TID{PageNo: 0, Slot: 0})                 // last of its run
		hi := entryKey(keys[i], heap.TID{PageNo: ^uint32(0), Slot: ^uint16(0)}) // first of its run
		if bytes.Compare(lo, hi) >= 0 {
			t.Fatalf("run of %q does not end before run of %q", keys[i-1], keys[i])
		}
	}
}

// countingIndex counts the index entries the server's scans visit.
type countingIndex struct {
	core.KVIndex
	visited int
}

func (c *countingIndex) Scan(start, end []byte, fn func([]byte, heap.TID) bool) error {
	return c.KVIndex.Scan(start, end, func(k []byte, tid heap.TID) bool {
		c.visited++
		return fn(k, tid)
	})
}

// heapGets is the number of heap pages the server has read: one per fetched
// tuple version.
func heapGets(srv *Server) int64 {
	hits, misses := srv.rel.Heap().Pool().Stats()
	return hits + misses
}

// putCommitted writes key=value in its own committed transaction.
func putCommitted(t *testing.T, db *core.DB, srv *Server, key, value []byte) {
	t.Helper()
	tx := db.Begin()
	if err := srv.put(tx, key, value); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// countGet resolves key and reports the entries visited and tuples fetched.
func countGet(t *testing.T, srv *Server, ci *countingIndex, key []byte) (val []byte, found bool, visited int, fetched int64) {
	t.Helper()
	ci.visited = 0
	g0 := heapGets(srv)
	_, val, found, err := srv.lookupVisible(key)
	if err != nil {
		t.Fatal(err)
	}
	return val, found, ci.visited, heapGets(srv) - g0
}

// TestGetFetchesOneOfManyVersions: a key with 2,000 committed versions is
// read with one index entry and one tuple fetch, not 2,000.
func TestGetFetchesOneOfManyVersions(t *testing.T) {
	db, srv := newTestServer(t, core.Memory())
	defer db.Close()
	defer srv.Close()
	const versions = 2000
	key := []byte("hot")
	for i := 0; i < versions; i++ {
		putCommitted(t, db, srv, key, []byte(fmt.Sprintf("v%d", i)))
	}
	ci := &countingIndex{KVIndex: srv.idx}
	srv.idx = ci
	val, found, visited, fetched := countGet(t, srv, ci, key)
	if !found || string(val) != fmt.Sprintf("v%d", versions-1) {
		t.Fatalf("GET hot = %q, %v", val, found)
	}
	if visited != 1 || fetched != 1 {
		t.Fatalf("GET of a %d-version key visited %d entries and fetched %d tuples, want 1 and 1", versions, visited, fetched)
	}
}

// TestGetVisitsOnlyExactRun: while 20,000 keys extend k (through 0x00,
// 0x01 and ordinary bytes), a read of k visits k's run and nothing else.
func TestGetVisitsOnlyExactRun(t *testing.T) {
	db, srv := newTestServer(t, core.Memory())
	defer db.Close()
	defer srv.Close()
	k := []byte("k")
	const extensions = 20000
	const batch = 500
	for i := 0; i < extensions; i += batch {
		keys := make([][]byte, batch)
		vals := make([][]byte, batch)
		for j := range keys {
			n := i + j
			keys[j] = append([]byte{'k', byte(n % 3)}, fmt.Sprintf("%05d", n)...)
			vals[j] = []byte("ext")
		}
		tx := db.Begin()
		if err := srv.putBatch(tx, keys, vals); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	const versions = 3
	for i := 0; i < versions; i++ {
		putCommitted(t, db, srv, k, []byte(fmt.Sprintf("v%d", i)))
	}
	ci := &countingIndex{KVIndex: srv.idx}
	srv.idx = ci

	val, found, visited, fetched := countGet(t, srv, ci, k)
	if !found || string(val) != "v2" || visited != 1 || fetched != 1 {
		t.Fatalf("GET k = %q, %v: visited %d, fetched %d; want v2 from 1 entry, 1 fetch", val, found, visited, fetched)
	}

	// Deleted, k has no visible version: the read walks its whole run and
	// stops exactly at its end.
	tx := db.Begin()
	if ok, err := srv.del(tx, k); err != nil || !ok {
		t.Fatalf("del k: %v %v", ok, err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	_, found, visited, fetched = countGet(t, srv, ci, k)
	if found || visited != versions || fetched != versions {
		t.Fatalf("GET of deleted k: found=%v visited %d fetched %d, want %d and %d", found, visited, fetched, versions, versions)
	}
}

// TestPutAfterAbortedUpdate: an aborted update leaves its xmax stamp on the
// current version; the next writer takes it over instead of failing.
func TestPutAfterAbortedUpdate(t *testing.T) {
	db, srv := newTestServer(t, core.Memory())
	defer db.Close()
	defer srv.Close()
	cl := dial(t, srv)
	cl.expect("PUT k v1", "OK")
	cl.expectPrefix("BEGIN", "OK ")
	cl.expect("PUT k aborted", "OK")
	cl.expectPrefix("ABORT", "OK ")
	cl.expect("PUT k v2", "OK")
	cl.expect("GET k", "OK v2")
	cl.expect("MPUT k v3 j w1", "OK 2")
	cl.expect("GET k", "OK v3")
	cl.expect("DEL k", "OK")
	cl.expect("GET k", "NOTFOUND")
}

// TestWriteConflict: a second writer of a key whose current version an
// open transaction has updated gets ERR conflict; the first writer's
// COMMIT then wins.
func TestWriteConflict(t *testing.T) {
	db, srv := newTestServer(t, core.Memory())
	defer db.Close()
	defer srv.Close()
	first, second := dial(t, srv), dial(t, srv)
	first.expect("PUT k base", "OK")
	first.expectPrefix("BEGIN", "OK ")
	first.expect("PUT k first", "OK")
	second.expectPrefix("PUT k second", "ERR conflict ")
	second.expectPrefix("MPUT j x k second", "ERR conflict ")
	second.expectPrefix("DEL k", "ERR conflict ")
	second.expect("GET k", "OK base")
	second.expect("GET j", "NOTFOUND") // the failed MPUT aborted whole
	first.expectPrefix("COMMIT", "OK ")
	second.expect("GET k", "OK first")
	second.expect("PUT k second", "OK")
	first.expect("GET k", "OK second")
}

// TestGetRacingWriterNeverNotFound: one writer updates a key in a loop
// while a reader GETs it. Every read must see some committed version: the
// newest entry may be skipped while its writer is still committing, and
// the version before it may be dead by the time it is fetched, but the
// read must then look again rather than answer NOTFOUND.
func TestGetRacingWriterNeverNotFound(t *testing.T) {
	db, srv := newTestServer(t, core.Memory())
	defer db.Close()
	defer srv.Close()
	key := []byte("contended")
	putCommitted(t, db, srv, key, []byte("v0"))

	const writes = 400
	done := make(chan struct{})
	var misses, reads int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			_, _, found, err := srv.lookupVisible(key)
			if err != nil {
				t.Error(err)
				return
			}
			reads++
			if !found {
				misses++
			}
		}
	}()
	for i := 1; i <= writes; i++ {
		tx := db.Begin()
		err := srv.put(tx, key, []byte(fmt.Sprintf("v%d", i)))
		if err == nil {
			err = tx.Commit()
		}
		if err != nil {
			t.Error(err) // not Fatal: the reader must still be stopped
			break
		}
	}
	close(done)
	wg.Wait()
	if misses != 0 {
		t.Fatalf("%d of %d GETs answered NOTFOUND for a key that always exists", misses, reads)
	}
}

// TestRefusesOldLayout: a store whose KV index holds key||TID-LE entries,
// as earlier versions of the server wrote it, is refused at New rather than
// served with wrong answers.
func TestRefusesOldLayout(t *testing.T) {
	store := core.Memory()
	db, err := core.Open(store, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rel, err := db.CreateRelation("kv")
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.CreateIndex("kv_pk", core.Shadow)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.Begin()
	for _, k := range []string{"a", "b"} {
		tid, err := rel.Insert(tx, []byte("val-"+k))
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.InsertTID(tx, core.MakeUnique([]byte(k), tid), tid); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(db, Options{}); !errors.Is(err, ErrOldLayout) {
		t.Fatalf("New over an old-layout index: %v, want ErrOldLayout", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// A store this server created reopens fine, sharded or not.
	for _, shards := range []int{1, 3} {
		store := core.Memory()
		for gen := 0; gen < 2; gen++ {
			db, err := core.Open(store, core.Config{})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := New(db, Options{Shards: shards})
			if err != nil {
				t.Fatalf("shards=%d generation %d: %v", shards, gen, err)
			}
			if gen == 0 {
				putCommitted(t, db, srv, []byte("a"), []byte("1"))
			} else if _, val, found, err := srv.lookupVisible([]byte("a")); err != nil || !found || string(val) != "1" {
				t.Fatalf("shards=%d reopened: GET a = %q, %v, %v", shards, val, found, err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// kvModel is the differential test's reference: the committed state a
// correct server must serve, checked against the server over TCP.
type kvModel struct {
	t       *testing.T
	store   core.Storage
	db      *core.DB
	srv     *Server
	ref     map[string]string
	keys    []string   // the whole key universe, sorted
	owned   [][]string // keys per client; the sets are disjoint
	clients []*client
}

const modelClients = 3

// modelKeys is a universe of keys over {a, b, 0x00, 0x01}: many share
// prefixes and contain the bytes the run layout escapes.
func modelKeys(rng *rand.Rand) []string {
	alphabet := []byte{'a', 'b', 0x00, 0x01}
	seen := map[string]bool{}
	for len(seen) < 90 {
		k := make([]byte, 1+rng.Intn(4))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		seen[string(k)] = true
	}
	var keys []string
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (m *kvModel) start() {
	db, err := core.Open(m.store, core.Config{Obs: obs.New(64)})
	if err != nil {
		m.t.Fatal(err)
	}
	srv, err := New(db, Options{DrainTimeout: 5 * time.Second})
	if err != nil {
		m.t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		m.t.Fatal(err)
	}
	m.db, m.srv = db, srv
	m.clients = m.clients[:0]
	for i := 0; i < modelClients; i++ {
		m.clients = append(m.clients, dial(m.t, srv))
	}
}

// crash kills the server generation: the open transaction a loser leaves
// behind and every unsynced write are lost. Nothing reaches the disks
// after the crash point: the connections close and the server drains
// first, and neither touches the DB's files.
func (m *kvModel) crash(rng *rand.Rand) {
	loser := dial(m.t, m.srv)
	loser.expectPrefix("BEGIN", "OK ")
	for i := 0; i < 5; i++ {
		k := m.keys[rng.Intn(len(m.keys))]
		if rng.Intn(2) == 0 {
			loser.expect("PUT "+k+" lost", "OK")
		} else {
			loser.do("DEL " + k)
		}
	}
	for _, d := range core.MemoryDisks(m.store) {
		if err := d.CrashPartial(storage.CrashNone); err != nil {
			m.t.Fatal(err)
		}
	}
	loser.c.Close()
	for _, cl := range m.clients {
		cl.c.Close()
	}
	if err := m.srv.Close(); err != nil {
		m.t.Fatal(err)
	}
	m.start()
}

// clientRound runs random operations over one client's own keys, checking
// every reply against the reference, and returns the committed writes.
func (m *kvModel) clientRound(cl *client, own []string, rng *rand.Rand, ops int, round int) (map[string]*string, error) {
	committed := map[string]*string{} // nil value = deleted
	get := func(k string) (string, bool) {
		if v, ok := committed[k]; ok {
			if v == nil {
				return "", false
			}
			return *v, true
		}
		v, ok := m.ref[k] // read-only during the round
		return v, ok
	}
	pick := func() string { return own[rng.Intn(len(own))] }
	// expect runs off the test goroutine, so it reports instead of failing.
	expect := func(line, prefix string) error {
		if got := cl.do(line); !strings.HasPrefix(got, prefix) {
			return fmt.Errorf("%q: %q, want prefix %q", line, got, prefix)
		}
		return nil
	}
	var pending map[string]*string // the open transaction's writes
	apply := func(k string, v *string) {
		if pending != nil {
			pending[k] = v
		} else {
			committed[k] = v
		}
	}
	for i := 0; i < ops; i++ {
		val := fmt.Sprintf("r%dv%d", round, i)
		switch op := rng.Intn(100); {
		case op < 5 && pending == nil:
			if err := expect("BEGIN", "OK "); err != nil {
				return nil, err
			}
			pending = map[string]*string{}
		case op < 10 && pending != nil:
			if rng.Intn(3) == 0 {
				if err := expect("ABORT", "OK "); err != nil {
					return nil, err
				}
			} else {
				if err := expect("COMMIT", "OK "); err != nil {
					return nil, err
				}
				for k, v := range pending {
					committed[k] = v
				}
			}
			pending = nil
		case op < 40:
			k := pick()
			if _, touched := pending[k]; touched {
				continue // a transaction writes each key once
			}
			if err := expect("PUT "+k+" "+val, "OK"); err != nil {
				return nil, err
			}
			apply(k, &val)
		case op < 55:
			n := 1 + rng.Intn(4)
			var line strings.Builder
			line.WriteString("MPUT")
			batch := map[string]string{}
			for j := 0; j < n; j++ {
				k := pick()
				if _, touched := pending[k]; touched {
					continue
				}
				v := fmt.Sprintf("%s.%d", val, j)
				batch[k] = v // a repeated key: the last pair wins
				fmt.Fprintf(&line, " %s %s", k, v)
			}
			if len(batch) == 0 {
				continue
			}
			if err := expect(line.String(), "OK "); err != nil {
				return nil, err
			}
			for k, v := range batch {
				v := v
				apply(k, &v)
			}
		case op < 65:
			k := pick()
			if _, touched := pending[k]; touched {
				continue
			}
			_, exists := get(k)
			want := "NOTFOUND"
			if exists {
				want = "OK"
			}
			if got := cl.do("DEL " + k); got != want {
				return nil, fmt.Errorf("DEL %q: %q, want %q", k, got, want)
			}
			if exists {
				apply(k, nil)
			}
		default:
			// Reads see committed state only, in or out of a transaction.
			k := pick()
			want := "NOTFOUND"
			if v, ok := get(k); ok {
				want = "OK " + v
			}
			if got := cl.do("GET " + k); got != want {
				return nil, fmt.Errorf("GET %q: %q, want %q", k, got, want)
			}
		}
	}
	if pending != nil {
		if err := expect("ABORT", "OK "); err != nil {
			return nil, err
		}
	}
	return committed, nil
}

// checkScans compares full and random bounded, limited SCANs with the
// reference.
func (m *kvModel) checkScans(rng *rand.Rand) {
	var live []string
	for _, k := range m.keys {
		if _, ok := m.ref[k]; ok {
			live = append(live, k)
		}
	}
	check := func(lo, hi string, limit int) {
		var want []string
		for _, k := range live {
			if (lo == "-" || k >= lo) && (hi == "-" || k < hi) && len(want) < limit {
				want = append(want, k+" "+m.ref[k])
			}
		}
		cl := m.clients[0]
		rows, final := cl.scan(fmt.Sprintf("SCAN %s %s %d", lo, hi, limit))
		if final != fmt.Sprintf("OK %d", len(want)) || strings.Join(rows, "\n") != strings.Join(want, "\n") {
			m.t.Fatalf("SCAN %q %q %d:\n got %q (%s)\nwant %q", lo, hi, limit, rows, final, want)
		}
	}
	check("-", "-", maxScan)
	bound := func() string {
		if rng.Intn(5) == 0 {
			return "-"
		}
		return m.keys[rng.Intn(len(m.keys))]
	}
	for i := 0; i < 20; i++ {
		check(bound(), bound(), 1+rng.Intn(30))
	}
}

// TestServerModelDifferential drives random PUT/MPUT/DEL/GET and
// transactions from several clients, each on its own keys, against a
// reference map, checks SCANs after each round, and crashes and restarts
// the server between rounds.
func TestServerModelDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := &kvModel{t: t, store: core.Memory(), ref: map[string]string{}}
	m.keys = modelKeys(rng)
	m.owned = make([][]string, modelClients)
	for i, k := range m.keys {
		m.owned[i%modelClients] = append(m.owned[i%modelClients], k)
	}
	m.start()
	const rounds, ops = 4, 150
	for round := 0; round < rounds; round++ {
		results := make([]map[string]*string, modelClients)
		errs := make([]error, modelClients)
		var wg sync.WaitGroup
		for c := 0; c < modelClients; c++ {
			wg.Add(1)
			go func(c int, seed int64) {
				defer wg.Done()
				crng := rand.New(rand.NewSource(seed))
				results[c], errs[c] = m.clientRound(m.clients[c], m.owned[c], crng, ops, round)
			}(c, rng.Int63())
		}
		wg.Wait()
		for c, err := range errs {
			if err != nil {
				t.Fatalf("round %d client %d: %v", round, c, err)
			}
			for k, v := range results[c] {
				if v == nil {
					delete(m.ref, k)
				} else {
					m.ref[k] = *v
				}
			}
		}
		m.checkScans(rng)
		m.crash(rng)
		m.checkScans(rng)
	}
	if err := m.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.db.Close(); err != nil {
		t.Fatal(err)
	}
}
