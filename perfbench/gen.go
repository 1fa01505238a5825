package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
)

// Input generation. Every workload draws from rngFor(seed, stream), so a
// given --seed always yields the same operations; the engine only ever
// sees the generated keys and values.

// valueLen is the byte length of every generated value.
const valueLen = 100

func rngFor(seed, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}

// makeValue encodes the key id, the writing client and that client's
// sequence number, padded to valueLen. The encoding lets every read be
// traced back to the write that produced it.
func makeValue(key int64, client int, seq int64) string {
	v := fmt.Sprintf("v.%d.%d.%d.", key, client, seq)
	return v + strings.Repeat("x", valueLen-len(v))
}

type valueTag struct {
	key    int64
	client int
	seq    int64
}

func parseValue(v string) (valueTag, bool) {
	if len(v) != valueLen || !strings.HasPrefix(v, "v.") {
		return valueTag{}, false
	}
	f := strings.SplitN(v[2:], ".", 4)
	if len(f) != 4 || strings.Trim(f[3], "x") != "" {
		return valueTag{}, false
	}
	key, err1 := strconv.ParseInt(f[0], 10, 64)
	client, err2 := strconv.Atoi(f[1])
	seq, err3 := strconv.ParseInt(f[2], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return valueTag{}, false
	}
	return valueTag{key, client, seq}, true
}

// kvKey is the server workload's key: fixed width, so no key is a prefix
// of another and a GET's index scan covers exactly one key's versions.
func kvKey(id int64) string { return fmt.Sprintf("k%010d", id) }

// u64Key is the embedded workloads' 8-byte big-endian key, so ascending
// ids are ascending keys.
func u64Key(id int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	return b[:]
}

func keyID(k []byte) int64 { return int64(binary.BigEndian.Uint64(k)) }

// Operation kinds of the kv-serve mix.
const (
	opGet = iota
	opPut
	opMput
	opScan
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "mput", "scan"}

const (
	mputPairs = 16
	scanLimit = 20
)

type kvOp struct {
	kind int
	keys []int64 // one key, or mputPairs keys for opMput
}

// kvGen yields one client's kv-serve operations: 70% GET, 20% PUT, 5%
// MPUT of 16 distinct pairs, 5% SCAN, on Zipf(1.1) key ranks mapped
// through a seeded permutation so hot keys are spread over the key space
// rather than packed at its left edge. Each client owns one contiguous
// half of the keys and sends every operation, scans included, inside it:
// the clients share every engine structure but never a key (NOTES.md
// gives the two engine defects that sharing a key exposes).
type kvGen struct {
	r      *rand.Rand
	zipf   *rand.Zipf
	perm   []int
	lo, hi int64 // the client's key range [lo, hi)
}

// newKVGen builds client's generator for one cycle; keys are split into
// clients equal ranges.
func newKVGen(seed int64, client, clients, cycle int) *kvGen {
	span := kvKeys / clients
	r := rngFor(seed, int64(1+client+100*cycle))
	return &kvGen{
		r:    r,
		zipf: rand.NewZipf(r, 1.1, 1, uint64(span-1)),
		perm: rngFor(seed, int64(-1-client)).Perm(span),
		lo:   int64(client * span),
		hi:   int64((client + 1) * span),
	}
}

func (g *kvGen) key() int64 { return g.lo + int64(g.perm[g.zipf.Uint64()]) }

func (g *kvGen) next() kvOp {
	p := g.r.Intn(100)
	switch {
	case p < 70:
		return kvOp{kind: opGet, keys: []int64{g.key()}}
	case p < 90:
		return kvOp{kind: opPut, keys: []int64{g.key()}}
	case p < 95:
		keys := make([]int64, 0, mputPairs)
		for len(keys) < mputPairs {
			if k := g.key(); !slices.Contains(keys, k) {
				keys = append(keys, k)
			}
		}
		return kvOp{kind: opMput, keys: keys}
	default:
		return kvOp{kind: opScan, keys: []int64{g.key(), g.hi}}
	}
}

// crashHalf returns a CrashPartial pick that keeps a seeded random half of
// the pending pages.
func crashHalf(r *rand.Rand) func([]uint32) []uint32 {
	return func(pending []uint32) []uint32 {
		var keep []uint32
		for _, no := range pending {
			if r.Intn(2) == 0 {
				keep = append(keep, no)
			}
		}
		return keep
	}
}
