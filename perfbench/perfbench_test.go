package main

import (
	"reflect"
	"testing"

	"repro/internal/obs"
)

func TestGeneratorDeterministic(t *testing.T) {
	ops := func(seed int64) []kvOp {
		g := newKVGen(seed, kvClients-1, kvClients, 0)
		out := make([]kvOp, 2000)
		for i := range out {
			out[i] = g.next()
		}
		return out
	}
	a, b := ops(7), ops(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different operations")
	}
	if reflect.DeepEqual(a, ops(8)) {
		t.Fatal("different seeds gave the same operations")
	}
	lo, hi := int64(kvKeys-kvKeys/kvClients), int64(kvKeys)
	for _, op := range a {
		for _, k := range op.keys[:1] {
			if k < lo || k >= hi {
				t.Fatalf("op %v outside the client's key range [%d, %d)", op, lo, hi)
			}
		}
	}

	pending := make([]uint32, 100)
	for i := range pending {
		pending[i] = uint32(i)
	}
	if !reflect.DeepEqual(crashHalf(rngFor(3, 9))(pending), crashHalf(rngFor(3, 9))(pending)) {
		t.Fatal("same seed picked different surviving pages")
	}
}

func TestValueRoundTrip(t *testing.T) {
	v := makeValue(123456, 1, 42)
	if len(v) != valueLen {
		t.Fatalf("value length %d, want %d", len(v), valueLen)
	}
	tag, ok := parseValue(v)
	if !ok || tag != (valueTag{123456, 1, 42}) {
		t.Fatalf("parseValue(%q) = %+v, %v", v, tag, ok)
	}
	if _, ok := parseValue(v[:valueLen-1] + "y"); ok {
		t.Fatal("a damaged value parsed")
	}
}

// The crash must be hard enough that recovery has work to do; otherwise
// crash-restart would silently stop measuring it.
func TestCrashRestartRepairs(t *testing.T) {
	r := newRun(1, false)
	for c := 0; c < 2; c++ {
		if err := crashCycle(r, c); err != nil {
			t.Fatal(err)
		}
	}
	if r.wrong != 0 {
		t.Fatalf("%d wrong answers: %v", r.wrong, r.wrongMessages)
	}
	repairs := r.rec["obs.repair.shadow"] + r.rec["obs.repair.peer"] +
		r.rec["obs.repair.intra"] + r.rec["obs.repair.root"]
	if repairs == 0 {
		t.Fatalf("no repairs after two crashes: %v", r.rec)
	}
	if r.rec["obs.repair.shadow"] == 0 {
		t.Fatalf("no shadow repairs: the crash never lost a split half")
	}
}

// kv-serve is meant to exercise the buffer pool: its data must not fit.
func TestKVPreloadExceedsPool(t *testing.T) {
	store, s, err := kvSetup(obs.New(obs.DefaultRingCap))
	if err != nil {
		t.Fatal(err)
	}
	defer s.stop()
	pages := filePages(store)
	for _, name := range []string{"rel_kv", "idx_kv_pk"} {
		if pages[name] < 4*kvPool {
			t.Fatalf("%s has %d pages, want at least 4 x %d", name, pages[name], kvPool)
		}
	}
}

// One cycle of every workload answers every check.
func TestWorkloadsAnswerCorrectly(t *testing.T) {
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			r := newRun(5, true)
			if err := w.cycle(r, 0); err != nil {
				t.Fatal(err)
			}
			if r.wrong != 0 || r.failed != 0 || r.attempted == 0 {
				t.Fatalf("attempted %d, failed %d, wrong %d: %v", r.attempted, r.failed, r.wrong, r.wrongMessages)
			}
			for _, m := range r.endToEnd() {
				if m.value <= 0 {
					t.Errorf("%s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}
