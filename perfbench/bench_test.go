package main

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7, 3, 5}, 50); got != 5 {
		t.Errorf("percentile({7,3,5}, 50) = %v, want 5", got)
	}
	if got := percentile([]float64{7, 3, 5}, 99); got != 7 {
		t.Errorf("percentile({7,3,5}, 99) = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile(nil) = %v, want NaN", got)
	}
}

func TestMedian(t *testing.T) {
	in := []float64{4, 1, 3, 2}
	if got := median(in); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if in[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

func TestTypicalRoundByPlace(t *testing.T) {
	var p phase
	add := func(pos, ops int, wall, steal float64) {
		p.chunks = append(p.chunks, chunkStat{pos: pos, ops: ops, wall: wall, cpu: wall / 2, steal: steal,
			lat: []float64{wall * 1e6}})
	}
	// Five rounds of two places: a slow 100-op place and a fast 50-op one.
	for _, c := range []struct{ w0, s0, w1, s1 float64 }{
		{1.0, 0.2, 0.1, 0}, {0.30, 0, 0.1, 0}, {0.29, 0, 0.9, 0.3}, {0.50, 0.1, 0.1, 0.05}, {0.31, 0, 0.2, 0},
	} {
		add(0, 100, c.w0, c.s0)
		add(1, 50, c.w1, c.s1)
	}
	tr := p.typical()
	// Place 0 keeps 0.30, 0.29 and 0.31, whose first quartile is 0.29;
	// place 1 keeps 0.1, 0.1 and 0.2: 0.1. The stolen 0.9 never counts.
	if tr.ops != 150 || math.Abs(tr.wall-0.39) > 1e-12 || math.Abs(tr.cpu-0.195) > 1e-12 || len(tr.kept) != 6 {
		t.Errorf("typical round = %d ops, %v s wall, %v s CPU, %d chunks kept; want 150, 0.39, 0.195, 6",
			tr.ops, tr.wall, tr.cpu, len(tr.kept))
	}
	if got := p.rate(); math.Abs(got-150/0.39) > 1e-9 {
		t.Errorf("rate = %v, want 150/0.39", got)
	}
	p.chunks[0].steal = -1 // unknown steal at place 0: all five of its chunks count
	if tr := p.typical(); math.Abs(tr.wall-0.40) > 1e-12 {
		t.Errorf("typical wall with unknown steal = %v, want 0.30+0.1", tr.wall)
	}
}

func TestMeterChunks(t *testing.T) {
	m := &meter{chunk: 10}
	t0 := time.Now()
	for i, op := range []int{0, 10, 20, 25} {
		m.marks = append(m.marks, mark{op: op, wall: t0.Add(time.Duration(i) * time.Second),
			cpu: time.Duration(i) * 500 * time.Millisecond})
	}
	m.lat, m.latOp = []float64{1, 2, 3, 4}, []int{0, 9, 16, 24}
	cs := m.chunks()
	if len(cs) != 3 {
		t.Fatalf("%d chunks, want 3", len(cs))
	}
	if cs[2].pos != 2 || cs[2].ops != 5 || cs[2].wall != 1 || cs[2].cpu != 0.5 {
		t.Errorf("last chunk = %+v", cs[2])
	}
	m.reset()
	m.lat = append(m.lat, 9, 9, 9, 9) // the next round reuses the buffers
	if len(cs[0].lat) != 2 || cs[0].lat[1] != 2 || len(cs[1].lat) != 1 || cs[2].lat[0] != 4 {
		t.Errorf("samples split %v / %v / %v, want [1 2] / [3] / [4]", cs[0].lat, cs[1].lat, cs[2].lat)
	}
}

// goodRead returns the result the UDF gives for key at version.
func goodRead(c *checker, key string, version int64, params []byte) []byte {
	return udf(params, valueOf(key, version, c.size), c.rounds)
}

func TestCheckerAcceptsCorrectOutputs(t *testing.T) {
	c := newChecker(64, 3)
	p := opParams(7)
	c.read("k1", p, goodRead(c, "k1", 0, p))
	c.put("k1", 1)
	c.put("k1", 2)
	c.read("k1", p, goodRead(c, "k1", 1, p)) // an older value the key held
	c.read("k1", p, goodRead(c, "k1", 2, p))
	c.accounting(accounting{LocalHits: 2, RemoteComputed: 3, RemoteRaw: 1, FetchServed: 4}, 10)
	if c.bad != 0 {
		t.Fatalf("checker rejected correct outputs: %v", c.errs)
	}
}

func TestCheckerRejectsCorruptedUDFResult(t *testing.T) {
	c := newChecker(64, 3)
	p := opParams(7)
	out := goodRead(c, "k1", 0, p)
	out[12] ^= 1
	c.read("k1", p, out)
	if c.bad != 1 {
		t.Fatalf("corrupted digest accepted")
	}
	// The right result for another op's params is wrong for this op.
	c.read("k1", p, goodRead(c, "k1", 0, opParams(8)))
	if c.bad != 2 {
		t.Fatalf("result of another op accepted")
	}
	c.read("k1", p, out[:8])
	if c.bad != 3 {
		t.Fatalf("short result accepted")
	}
}

func TestCheckerRejectsStaleOrUnheldVersions(t *testing.T) {
	c := newChecker(64, 3)
	p := opParams(1)
	// Version 1 was never written: no value the key held has it.
	c.read("k1", p, goodRead(c, "k1", 1, p))
	if c.bad != 1 {
		t.Fatal("read of a never-written version accepted")
	}
	// A put must commit exactly one version past the previous one.
	c.put("k1", 1)
	c.put("k1", 1) // stale: the engine reused a version
	if c.bad != 2 {
		t.Fatal("stale put version accepted")
	}
	c.put("k2", 3) // skipped versions
	if c.bad != 3 {
		t.Fatal("skipped put version accepted")
	}
	// A result whose header claims the new version but whose digest is of
	// the old value is a mix of two versions.
	out := goodRead(c, "k1", 0, p)
	binary.LittleEndian.PutUint64(out, 1)
	c.read("k1", p, out)
	if c.bad != 4 {
		t.Fatal("result mixing two versions accepted")
	}
}

func TestCheckerRejectsBrokenAccounting(t *testing.T) {
	c := newChecker(64, 3)
	c.accounting(accounting{LocalHits: 5, RemoteComputed: 4}, 10) // one op unaccounted
	if c.bad != 1 {
		t.Fatal("lost op accepted")
	}
	c.accounting(accounting{LocalHits: 5, RemoteComputed: 4, Failed: 1, Shed: 1}, 10) // one op twice
	if c.bad != 2 {
		t.Fatal("double-counted op accepted")
	}
}

func TestAnalyzeSelfTime(t *testing.T) {
	h := fnvKey("k")
	spans := []span{
		{layer: lSubmit, op: 0, key: h, start: 0, end: 10},
		{layer: lStoreGet, op: -1, key: h, start: 20, end: 30},
		{layer: lUDFServer, op: 0, key: h, start: 30, end: 60},
		{layer: lWait, op: 0, key: h, start: 25, end: 100},
		{layer: lPut, op: 1, key: h, start: 200, end: 300},
		{layer: lStorePut, op: -1, key: h, start: 210, end: 230},
		{layer: lStoreFlush, op: -1, start: 230, end: 260},
	}
	lt := analyze(spans, [][2]int64{{0, 1000}})
	// The wait [25,100) is covered by the get [25,30) and the UDF [30,60).
	if got := lt.self[lWait]; got != 75-35 {
		t.Errorf("wait self time = %d, want 40", got)
	}
	if got := lt.self[lPut]; got != 100-50 {
		t.Errorf("put self time = %d, want 50", got)
	}
	if lt.self[lUDFServer] != 30 || lt.calls[lStoreGet] != 1 || lt.meanNs(lSubmit) != 10 {
		t.Errorf("leaf layers: %+v", lt)
	}
}
