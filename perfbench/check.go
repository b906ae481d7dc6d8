package main

import (
	"encoding/binary"
	"fmt"
)

// The benchmark's UDF and its row values are defined here, apart from the
// program under test, so the checker can recompute every result from its
// own copy of the rows.
//
// A row value is an 8-byte little-endian version header (0 for a seed row,
// n for the value written by the key's n-th put) followed by bytes derived
// from the key and the version. The UDF result is 16 bytes: the value's
// version header, then a digest of the value chained `rounds` times and
// folded with the op's params. The chained digest is the UDF's cost knob;
// it depends on the value alone, so the checker memoizes it per (key,
// version) and checks each op at the cost of one fold.

const outLen = 16

// valueOf returns the bytes key holds at version, size bytes long.
func valueOf(key string, version int64, size int) []byte {
	v := make([]byte, size)
	fillValue(v, key, version)
	return v
}

// fillValue writes the bytes key holds at version into v (len(v) >= 8).
func fillValue(v []byte, key string, version int64) {
	binary.LittleEndian.PutUint64(v, uint64(version))
	x := uint64(fnvKey(key)) ^ uint64(version)*0x9e3779b97f4a7c15
	for i := 8; i < len(v); i += 8 {
		x = splitmix(x)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(v[i:], w[:])
	}
}

// fnv64 is FNV-1a over b, continuing from h (0 starts a fresh hash).
func fnv64(h uint64, b []byte) uint64 {
	if h == 0 {
		h = 14695981039346656037
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// digest is the UDF's value-dependent work: rounds chained FNV-1a passes.
func digest(value []byte, rounds int) uint64 {
	h := fnv64(0, value)
	for i := 1; i < rounds; i++ {
		h = fnv64(h, value)
	}
	return h
}

// fold mixes an op's params into a value digest.
func fold(d uint64, params []byte) uint64 { return splitmix(d ^ fnv64(0, params)) }

// udf computes f(key, params, value); rounds sets its cost.
func udf(params, value []byte, rounds int) []byte {
	out := make([]byte, outLen)
	if len(value) >= 8 {
		copy(out, value[:8])
	}
	binary.LittleEndian.PutUint64(out[8:], fold(digest(value, rounds), params))
	return out
}

// opParams is the params an op carries: its index in the round, so the
// server-side spans of a traced run join the op that caused them.
func opParams(i int) []byte {
	p := make([]byte, 8)
	binary.LittleEndian.PutUint64(p, uint64(i))
	return p
}

func opIndex(params []byte) int32 {
	if len(params) < 8 {
		return -1
	}
	return int32(binary.LittleEndian.Uint64(params))
}

type memoKey struct {
	key     string
	version int64
}

// checker verifies the live plane's outputs against the benchmark's own
// recomputation and against properties Algorithm 1's executor must have.
type checker struct {
	size   int
	rounds int
	memo   map[memoKey]uint64
	// puts is the number of puts the benchmark has issued per key; a key
	// holds version puts[key] after its last put, and every version from 0
	// to it was held at some point.
	puts map[string]int64

	bad  int
	errs []string
}

func newChecker(size, rounds int) *checker {
	return &checker{size: size, rounds: rounds,
		memo: make(map[memoKey]uint64), puts: make(map[string]int64)}
}

func (c *checker) failf(format string, args ...any) {
	c.bad++
	if len(c.errs) < 8 {
		c.errs = append(c.errs, fmt.Sprintf(format, args...))
	}
}

// read checks one read's result: its version must be one the key actually
// held, and the digest must equal the UDF recomputed on that version's
// value with the op's params.
func (c *checker) read(key string, params, out []byte) {
	if len(out) != outLen {
		c.failf("read %s: result is %d bytes, want %d", key, len(out), outLen)
		return
	}
	ver := int64(binary.LittleEndian.Uint64(out))
	if ver < 0 || ver > c.puts[key] {
		c.failf("read %s: version %d was never held (last put %d)", key, ver, c.puts[key])
		return
	}
	mk := memoKey{key, ver}
	d, ok := c.memo[mk]
	if !ok {
		d = digest(valueOf(key, ver, c.size), c.rounds)
		c.memo[mk] = d
	}
	if got, want := binary.LittleEndian.Uint64(out[8:]), fold(d, params); got != want {
		c.failf("read %s v%d: digest %x, want %x", key, ver, got, want)
	}
}

// put checks one put's committed version: storage.Table.Put promises one
// more than the version it replaced.
func (c *checker) put(key string, version int64) {
	want := c.puts[key] + 1
	if version != want {
		c.failf("put %s: committed version %d, want %d", key, version, want)
	}
	c.puts[key] = want
}

// accounting is the executor's outcome counters, which must account for
// every submission exactly once.
type accounting struct {
	LocalHits, RemoteComputed, RemoteRaw, FetchServed, Failed, Canceled, Shed int64
}

func (a accounting) sum() int64 {
	return a.LocalHits + a.RemoteComputed + a.RemoteRaw + a.FetchServed + a.Failed + a.Canceled + a.Shed
}

func (c *checker) accounting(a accounting, submitted int64) {
	if a.sum() != submitted {
		c.failf("accounting: LocalHits+RemoteComputed+RemoteRaw+FetchServed+Failed+Canceled+Shed = %d, want %d submitted (%+v)",
			a.sum(), submitted, a)
	}
}

// fnvKey hashes a key for span records, which keep no strings.
func fnvKey(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}
