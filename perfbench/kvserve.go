package main

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// kv-serve: internal/server on loopback, configured as fastrec-server
// ships it (shadow, one shard, 50 ms flush daemon), with 256 frames per
// file. The preload makes the heap and the index each at least 4x the
// pool; closed-loop connections then send a fixed count of Zipf(1.1)
// operations per cycle. A cycle ends with a clean shutdown and restarts
// that re-read every key.
//
// One connection, not two: on the 2-vCPU host two connections made the
// PUT p90 swing by up to 0.35 (quartile spread over median, ten seeds),
// past the 0.25 bound in BENCHMARK.json; one keeps it near 0.1.

const (
	kvKeys          = 150000
	kvPool          = 256
	kvClients       = 1
	kvOpsPerClient  = 6000
	kvPreloadBatch  = 500
	kvRestarts      = 8
	kvRateBlock     = 250 // ops per connection in one throughput sample
	kvPreloadClient = 9   // writer id of the preload's values
)

func kvConfig(rec *obs.Recorder) core.Config {
	return core.Config{Variant: core.Shadow, PoolSize: kvPool, FlushEvery: 50 * time.Millisecond, Obs: rec}
}

// kvClient is one protocol connection.
type kvClient struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func dialKV(addr string) (*kvClient, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &kvClient{c: c, r: bufio.NewReaderSize(c, 64<<10), w: bufio.NewWriterSize(c, 64<<10)}, nil
}

// do sends one request line and returns the reply line; for SCAN it also
// returns the ROW lines before the final reply.
func (k *kvClient) do(line string, scan bool) (string, []string, error) {
	if _, err := k.w.WriteString(line + "\n"); err != nil {
		return "", nil, err
	}
	if err := k.w.Flush(); err != nil {
		return "", nil, err
	}
	var rows []string
	for {
		reply, err := k.r.ReadString('\n')
		if err != nil {
			return "", nil, err
		}
		reply = strings.TrimSuffix(reply, "\n")
		if scan && strings.HasPrefix(reply, "ROW ") {
			rows = append(rows, reply[4:])
			continue
		}
		return reply, rows, nil
	}
}

func (k *kvClient) close() {
	_, _, _ = k.do("QUIT", false)
	k.c.Close()
}

// kvServer is one server instance over a DB.
type kvServer struct {
	db  *core.DB
	srv *server.Server
}

func startKV(store core.Storage, rec *obs.Recorder) (*kvServer, error) {
	db, err := core.Open(store, kvConfig(rec))
	if err != nil {
		return nil, err
	}
	srv, err := server.New(db, server.Options{Variant: core.Shadow, Shards: 1})
	if err != nil {
		db.Close()
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		db.Close()
		return nil, err
	}
	return &kvServer{db: db, srv: srv}, nil
}

// stop drains the server and closes the DB cleanly, as fastrec-server does
// on SIGTERM.
func (s *kvServer) stop() error {
	if err := s.srv.Close(); err != nil {
		s.db.Close()
		return err
	}
	return s.db.Close()
}

// kvState tracks what the clients wrote, to check every answer: a read
// must return a value some client wrote to that key, never one whose
// write was refused.
type kvState struct {
	issued  [kvClients]atomic.Int64 // highest sequence number sent per client
	mu      sync.Mutex
	refused map[[2]int64]bool // (client, seq) of writes answered with ERR
	seen    [][2]int64        // (client, seq) of every value read
}

func (st *kvState) checkValue(r *run, key int64, v string) {
	tag, ok := parseValue(v)
	switch {
	case !ok || tag.key != key:
		r.wrongf("key %s returned %q", kvKey(key), v)
	case tag.client == kvPreloadClient:
		if tag.seq != key {
			r.wrongf("key %s returned a preload value never written: %q", kvKey(key), v)
		}
	case tag.client < 0 || tag.client >= kvClients || tag.seq < 1 || tag.seq > st.issued[tag.client].Load():
		r.wrongf("key %s returned a value never written: %q", kvKey(key), v)
	default:
		st.mu.Lock()
		st.seen = append(st.seen, [2]int64{int64(tag.client), tag.seq})
		st.mu.Unlock()
	}
}

func (st *kvState) checkRefused(r *run) {
	for _, s := range st.seen {
		if st.refused[s] {
			r.wrongf("a read returned the value of refused write %d/%d", s[0], s[1])
		}
	}
}

func kvPreload(c *kvClient) error {
	var sb strings.Builder
	for lo := int64(0); lo < kvKeys; lo += kvPreloadBatch {
		sb.Reset()
		sb.WriteString("MPUT")
		hi := min(lo+kvPreloadBatch, kvKeys)
		for id := lo; id < hi; id++ {
			fmt.Fprintf(&sb, " %s %s", kvKey(id), makeValue(id, kvPreloadClient, id))
		}
		reply, _, err := c.do(sb.String(), false)
		if err != nil {
			return err
		}
		if reply != "OK "+strconv.FormatInt(hi-lo, 10) {
			return fmt.Errorf("preload: %q", reply)
		}
	}
	return nil
}

// kvSetup opens a fresh store and server and preloads every key.
func kvSetup(rec *obs.Recorder) (core.Storage, *kvServer, error) {
	store := core.Memory()
	s, err := startKV(store, rec)
	if err != nil {
		return nil, nil, err
	}
	c, err := dialKV(s.srv.Addr().String())
	if err != nil {
		s.stop()
		return nil, nil, err
	}
	defer c.close()
	if err := kvPreload(c); err != nil {
		s.stop()
		return nil, nil, err
	}
	return store, s, nil
}

func kvServeCycle(r *run, cycle int) error {
	rec := obs.New(obs.DefaultRingCap)
	t0 := time.Now()
	store, s, err := kvSetup(rec)
	if err != nil {
		return err
	}
	r.setup.add(time.Since(t0))
	cycBefore := snapshot(s.db, store)

	st := &kvState{refused: make(map[[2]int64]bool)}
	clients := make([]*kvClient, kvClients)
	for i := range clients {
		if clients[i], err = dialKV(s.srv.Addr().String()); err != nil {
			s.stop()
			return err
		}
	}
	winBefore := snapshot(s.db, store)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, kvClients)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = kvClientLoop(r, st, clients[i], i, newKVGen(r.seed, i, kvClients, cycle))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	winAfter := snapshot(s.db, store)
	for _, c := range clients {
		c.close()
	}
	for _, err := range errs {
		if err != nil {
			s.stop()
			return err
		}
	}
	r.measured(kvClients*kvOpsPerClient, elapsed)
	r.win.addDelta(winBefore, winAfter)
	r.cyc.addDelta(cycBefore, snapshot(s.db, store))
	r.pages = filePages(store)
	r.freePages = countFreePages(s.db)
	if err := s.stop(); err != nil {
		return err
	}

	runtime.GC() // the measured phase's garbage is not the restarts' cost
	for i := 0; i < kvRestarts; i++ {
		if err := kvRestart(r, st, store, rec, i == kvRestarts-1); err != nil {
			return err
		}
	}
	st.checkRefused(r)
	return nil
}

func kvClientLoop(r *run, st *kvState, c *kvClient, client int, g *kvGen) error {
	var seq int64
	val := func(key int64) string {
		seq++
		st.issued[client].Store(seq)
		return makeValue(key, client, seq)
	}
	var lat [numOpKinds]samples
	block := time.Now()
	for n := 0; n < kvOpsPerClient; n++ {
		if n > 0 && n%kvRateBlock == 0 {
			// Both connections run the same mix, so the server's rate
			// is the connection count times one connection's rate.
			r.rate(kvClients * kvRateBlock / time.Since(block).Seconds())
			block = time.Now()
		}
		op := g.next()
		var line string
		var seqs []int64
		switch op.kind {
		case opGet:
			line = "GET " + kvKey(op.keys[0])
		case opPut:
			line = "PUT " + kvKey(op.keys[0]) + " " + val(op.keys[0])
			seqs = []int64{seq}
		case opMput:
			var sb strings.Builder
			sb.WriteString("MPUT")
			for _, k := range op.keys {
				sb.WriteString(" " + kvKey(k) + " " + val(k))
				seqs = append(seqs, seq)
			}
			line = sb.String()
		case opScan:
			line = fmt.Sprintf("SCAN %s %s %d", kvKey(op.keys[0]), kvKey(op.keys[1]), scanLimit)
		}
		req := r.newReq()
		id := r.tr.id()
		start := time.Now()
		reply, rows, err := c.do(line, op.kind == opScan)
		end := time.Now()
		if err != nil {
			return err
		}
		r.tr.add(id, 0, req, "server."+opNames[op.kind], start, end)
		lat[op.kind].add(end.Sub(start))
		r.attempt(1)
		switch op.kind {
		case opGet:
			if !strings.HasPrefix(reply, "OK ") {
				r.wrongf("GET %s: %q", kvKey(op.keys[0]), reply)
				continue
			}
			st.checkValue(r, op.keys[0], reply[3:])
		case opPut, opMput:
			want := "OK"
			if op.kind == opMput {
				want = "OK " + strconv.Itoa(mputPairs)
			}
			if reply != want {
				r.failOps(1)
				st.mu.Lock()
				for _, s := range seqs {
					st.refused[[2]int64{int64(client), s}] = true
				}
				st.mu.Unlock()
			}
		case opScan:
			checkScan(r, st, op.keys[0], min(scanLimit, op.keys[1]-op.keys[0]), reply, rows)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.read = append(r.read, lat[opGet]...)
	r.write = append(r.write, lat[opPut]...)
	for k := range lat {
		r.kind[opNames[k]] = append(r.kind[opNames[k]], lat[k]...)
	}
	return nil
}

// checkScan checks a SCAN from key lo. No key is ever deleted, so it
// must return exactly the want keys lo, lo+1, ... in order.
func checkScan(r *run, st *kvState, lo, want int64, reply string, rows []string) {
	if reply != "OK "+strconv.FormatInt(want, 10) || int64(len(rows)) != want {
		r.wrongf("SCAN %s: %q with %d rows, want %d", kvKey(lo), reply, len(rows), want)
		return
	}
	for i, row := range rows {
		k, v, ok := strings.Cut(row, " ")
		if !ok || k != kvKey(lo+int64(i)) {
			r.wrongf("SCAN %s row %d: %q", kvKey(lo), i, row)
			return
		}
		st.checkValue(r, lo+int64(i), v)
	}
}

// kvRestart reopens the cleanly shut down store: restart_ms runs from
// core.Open to the first GET answered over the wire, recover_ms is the
// index's recovery sweep. The last restart re-reads every key.
func kvRestart(r *run, st *kvState, store core.Storage, rec *obs.Recorder, verify bool) (err error) {
	recBefore := recCounters(rec)
	req := r.newReq()
	root := r.tr.id()
	t0 := time.Now()
	s, err := startKV(store, rec)
	if err != nil {
		return err
	}
	defer func() {
		if e := s.stop(); err == nil {
			err = e
		}
	}()
	c, err := dialKV(s.srv.Addr().String())
	if err != nil {
		return err
	}
	defer c.close()
	reply, _, err := c.do("GET "+kvKey(0), false)
	if err != nil {
		return err
	}
	t1 := time.Now()
	r.tr.add(root, 0, req, "restart", t0, t1)
	r.restart.add(t1.Sub(t0))
	r.attempt(1)
	if !strings.HasPrefix(reply, "OK ") {
		r.wrongf("GET %s after restart: %q", kvKey(0), reply)
	} else {
		st.checkValue(r, 0, reply[3:])
	}

	ix := s.db.Indexes()[0]
	start := time.Now()
	if _, err := ix.Tree().RecoverAvailable(); err != nil {
		return err
	}
	end := time.Now()
	r.tr.add(r.tr.id(), 0, req, "recover", start, end)
	r.recov.add(end.Sub(start))
	r.rec.addDelta(recBefore, recCounters(rec))
	r.height = treeHeight(s.db)
	if !verify {
		return nil
	}
	if err := kvVerifyAll(r, st, c); err != nil {
		return err
	}
	entries, err := countEntries(ix)
	if err != nil {
		return err
	}
	r.entriesPerKey = append(r.entriesPerKey, float64(entries)/kvKeys)
	r.amp = append(r.amp, spaceAmp(store, kvKeys*(len(kvKey(0))+valueLen)))
	return nil
}

// kvVerifyAll reads every key back through two large SCANs.
func kvVerifyAll(r *run, st *kvState, c *kvClient) error {
	const chunk = 100000
	for lo := int64(0); lo < kvKeys; lo += chunk {
		want := min(chunk, kvKeys-lo)
		reply, rows, err := c.do(fmt.Sprintf("SCAN %s - %d", kvKey(lo), want), true)
		if err != nil {
			return err
		}
		r.attempt(want)
		checkScan(r, st, lo, want, reply, rows)
	}
	return nil
}

func kvServeExtra(r *run) []metric {
	get, put, scan := r.kind["get"], r.kind["put"], r.kind["scan"]
	return []metric{
		{"ops_per_s", samples(r.rates).median(), "1/s", len(r.rates)},
		{"get_p50_us", get.median(), "us", len(get)},
		{"get_p99_us", get.tail(0.99), "us", len(get)},
		{"put_p50_us", put.median(), "us", len(put)},
		{"put_p99_us", put.tail(0.99), "us", len(put)},
		{"scan_p50_us", scan.median(), "us", len(scan)},
	}
}
