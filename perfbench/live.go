package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/core"
	"joinopt/internal/live"
	"joinopt/internal/storage"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// liveSpec is one live workload's fixed input shape.
type liveSpec struct {
	keys      int     // rows in the table, spread over the data nodes
	valueSize int     // bytes per row
	skew      float64 // Zipf exponent of the read keys; 0 is uniform
	ops       int     // ops per round
	putEvery  int     // every putEvery-th op is a Table.Put; 0 = reads only
	udfRounds int     // digest passes per UDF call: the UDF's cost
	disk      bool    // data nodes on storage.OpenDisk instead of the in-memory engine
	chunk     int     // ops per timed chunk of a round (about 25-40 ms)
	// warmRounds is how many untimed rounds setup runs. A warm client
	// buys a key only after several accesses, so its cache takes about
	// five rounds to hold every key the round reads; timing starts once it
	// does, or the rate would climb round by round.
	warmRounds int
	// coldClient gives every round a fresh executor, so every round meets
	// its keys for the first time, as a new job on a compute node does.
	// Algorithm 1 buys any small value it sees twice, so a warm client
	// would turn a costly-UDF workload into local cache hits after a few
	// rounds.
	coldClient bool
}

const (
	liveNodes   = 2
	window      = 256 // in-flight futures, like the stream engine's prefetch queue
	sampleEvery = 16  // every 16th read gets its own latency waiter
	udfName     = "bench"
	tableName   = "t"
)

// liveInput is a generated live workload: the key of every op of a round,
// and whether it is a put.
type liveInput struct {
	spec   liveSpec
	keys   []string
	ops    []int // index into keys
	put    []bool
	params [][]byte
	hash   []uint32 // fnvKey of each op's key
}

func genLiveInput(spec liveSpec, seed int64) *liveInput {
	rng := rand.New(rand.NewSource(seed))
	in := &liveInput{spec: spec, keys: make([]string, spec.keys)}
	for i := range in.keys {
		in.keys[i] = fmt.Sprintf("k%07d", i)
	}
	// The hot ranks land on seed-chosen keys, so each seed heats a
	// different set of keys and nodes.
	perm := rng.Perm(spec.keys)
	zipf := workload.NewZipf(rng, spec.skew, spec.keys)
	in.ops = make([]int, spec.ops)
	in.put = make([]bool, spec.ops)
	in.params = make([][]byte, spec.ops)
	in.hash = make([]uint32, spec.ops)
	for i := range in.ops {
		in.ops[i] = perm[zipf.Next()]
		in.put[i] = spec.putEvery > 0 && i%spec.putEvery == spec.putEvery-1
		in.params[i] = opParams(i)
		in.hash[i] = fnvKey(in.keys[in.ops[i]])
	}
	return in
}

// probes are the benchmark's hooks into the system: the UDF and storage
// wrappers count every call, and time it while a tracer is installed.
type probes struct {
	tr                       atomic.Pointer[tracer]
	clientCalls, serverCalls atomic.Int64
}

func (p *probes) registerUDF(reg *live.Registry, rounds int, l layer, calls *atomic.Int64) {
	reg.Register(udfName, func(key string, params, value []byte) []byte {
		calls.Add(1)
		tr := p.tr.Load()
		if tr == nil {
			return udf(params, value, rounds)
		}
		start := tr.now()
		out := udf(params, value, rounds)
		tr.record(l, opIndex(params), fnvKey(key), start, tr.now())
		return out
	})
}

// liveCluster is two data nodes and one executor in this process, talking
// over loopback TCP.
type liveCluster struct {
	in      *liveInput
	probe   *probes
	servers []*live.Server
	disks   []*storage.Disk
	dirs    []string
	exec    *live.Executor
	tbl     *live.Table
	check   *checker
	part    *store.Table // the table's partitioning over the data nodes
	addrs   map[cluster.NodeID]string
	reads   int64 // reads submitted over the executor's life
	opts    []*core.Optimizer
	retired liveSnap // executor counters of the executors already closed
	lastPut []int64  // per key index: version of the last acknowledged put
	stale   int64    // reads that returned a version older than lastPut at submit
	minVer  []int64  // per op of the round: lastPut of its key at submit

	futs    []*live.Future
	results [][outLen]byte
	resLen  []int // length of each read's result; -1 when the read failed
	putBuf  []byte
	samples chan sampleReq
	swg     sync.WaitGroup
	lat     []float64 // sampled op latencies of the round, µs
	latOp   []int     // the op index of each sample
	putLat  []float64 // put latencies of the round, µs
	failed  int64
	failMsg string
}

type sampleReq struct {
	f    *live.Future
	t0   time.Time
	slot int
}

// setupLive generates the input, starts the data nodes, seeds them, dials
// the executor and runs the warm-up rounds that fill the client cache. It
// returns the set-up's timing as chunks: the boot (everything before the
// warm-up) at place 0, then the warm-up rounds' chunks.
func setupLive(spec liveSpec, seed int64, dir string, probe *probes) (*liveCluster, []chunkStat, error) {
	m := &meter{chunk: 1}
	m.mark(0)
	c, err := bootLive(spec, seed, dir, probe)
	if err != nil {
		return nil, nil, err
	}
	m.mark(0)
	timing := m.chunks()
	m.chunk = spec.chunk
	for i := 0; i < spec.warmRounds; i++ {
		m.reset()
		c.round(nil, m)
		for _, ch := range m.chunks() {
			ch.pos = len(timing)
			timing = append(timing, ch)
		}
		if err := c.verifyRound(); err != nil {
			c.close()
			return nil, nil, err
		}
	}
	return c, timing, nil
}

// bootLive generates the input, starts and seeds the data nodes and dials
// the executor.
func bootLive(spec liveSpec, seed int64, dir string, probe *probes) (*liveCluster, error) {
	in := genLiveInput(spec, seed)
	c := &liveCluster{in: in, probe: probe, check: newChecker(spec.valueSize, spec.udfRounds)}

	ids := make([]cluster.NodeID, liveNodes)
	for i := range ids {
		ids[i] = cluster.NodeID(i)
	}
	catalog := store.CatalogFunc(func(string) store.RowMeta {
		return store.RowMeta{ValueSize: int64(spec.valueSize)}
	})
	table := store.NewTable(tableName, catalog, 2, ids)
	rows := make([]map[string][]byte, liveNodes)
	for i := range rows {
		rows[i] = make(map[string][]byte)
	}
	for _, k := range in.keys {
		rows[table.Locate(k)][k] = valueOf(k, 0, spec.valueSize)
	}

	srvReg := live.NewRegistry()
	probe.registerUDF(srvReg, spec.udfRounds, lUDFServer, &probe.serverCalls)
	addrs := make(map[cluster.NodeID]string, liveNodes)
	for i := 0; i < liveNodes; i++ {
		s := live.NewServer(srvReg, true)
		c.servers = append(c.servers, s)
		var eng storage.Engine = storage.NewMem()
		if spec.disk {
			d, err := os.MkdirTemp(dir, "node-")
			if err != nil {
				c.close()
				return nil, err
			}
			c.dirs = append(c.dirs, d)
			disk, err := storage.OpenDisk(d, storage.DiskOptions{})
			if err != nil {
				c.close()
				return nil, err
			}
			c.disks = append(c.disks, disk)
			eng = disk
		}
		s.SetEngine(&timedEngine{Engine: eng, probe: probe})
		s.AddTable(live.TableSpec{Name: tableName, UDF: udfName, Rows: rows[i]})
		addr, err := s.Serve("127.0.0.1:0")
		if err != nil {
			c.close()
			return nil, err
		}
		addrs[cluster.NodeID(i)] = addr
	}

	c.part, c.addrs = table, addrs
	if err := c.newExecutor(); err != nil {
		c.close()
		return nil, err
	}

	c.futs = make([]*live.Future, window)
	c.results = make([][outLen]byte, spec.ops)
	c.resLen = make([]int, spec.ops)
	c.minVer = make([]int64, spec.ops)
	c.lastPut = make([]int64, spec.keys)
	c.putBuf = make([]byte, spec.valueSize)
	c.samples = make(chan sampleReq, window/sampleEvery+1)
	// Twice the samples that can be in flight at once, so a sample never
	// queues behind another one's waiter.
	for i := 0; i < 2*(window/sampleEvery+1); i++ {
		go c.sampleWaiter()
	}
	return c, nil
}

// newExecutor dials a fresh executor: the paper's full system (caching on),
// one connection per data node, every other setting at its default.
func (c *liveCluster) newExecutor() error {
	cliReg := live.NewRegistry()
	c.probe.registerUDF(cliReg, c.in.spec.udfRounds, lUDFClient, &c.probe.clientCalls)
	e, err := live.NewExecutor(live.ExecConfig{
		Tables:       map[string]*store.Table{tableName: c.part},
		Addrs:        c.addrs,
		Registry:     cliReg,
		TableUDF:     map[string]string{tableName: udfName},
		Optimizer:    core.Config{Policy: core.Policy{Caching: true}},
		ConnsPerNode: 1,
	})
	if err != nil {
		return err
	}
	c.exec, c.tbl, c.reads = e, e.Table(tableName), 0
	// Every shard's optimizer, found through keys that hash to it.
	c.opts = c.opts[:0]
	seen := map[*core.Optimizer]bool{}
	for _, k := range c.in.keys {
		if o := e.OptimizerFor(tableName, k); !seen[o] {
			seen[o] = true
			c.opts = append(c.opts, o)
			if len(c.opts) == e.Shards() {
				break
			}
		}
	}
	return nil
}

// retireExecutor checks the executor's accounting, folds its counters into
// c.retired and closes it.
func (c *liveCluster) retireExecutor() {
	s := c.execSnap()
	c.check.accounting(s.acc, c.reads)
	c.retired.addExec(s)
	c.exec.Close()
}

func (c *liveCluster) sampleWaiter() {
	for r := range c.samples {
		r.f.WaitErr()
		c.lat[r.slot] = float64(time.Since(r.t0).Nanoseconds()) / 1e3
		c.swg.Done()
	}
}

// round submits every op of the input once from this goroutine, keeping at
// most window futures in flight and consuming them in order, and returns
// the op count. m, if not nil, takes the round's checkpoints and receives
// its sampled latencies.
func (c *liveCluster) round(tr *tracer, m *meter) int {
	in := c.in
	ctx := context.Background()
	n := len(in.ops)
	c.lat, c.latOp = c.lat[:0], c.latOp[:0]
	c.putLat = c.putLat[:0]
	for i := 0; i < n; i += sampleEvery {
		c.lat, c.latOp = append(c.lat, 0), append(c.latOp, 0)
	}
	nlat := 0
	for i := 0; i < n+window; i++ {
		if m != nil && i < n {
			m.at(i)
		}
		if j := i - window; j >= 0 && c.futs[j%window] != nil {
			c.consume(tr, j)
		}
		if i >= n {
			continue
		}
		key := in.keys[in.ops[i]]
		if in.put[i] {
			c.futs[i%window] = nil
			c.doPut(ctx, tr, i, key)
			continue
		}
		c.reads++
		c.minVer[i] = c.lastPut[in.ops[i]]
		var ts int64
		if tr != nil {
			ts = tr.now()
		}
		var t0 time.Time
		sampled := i%sampleEvery == 0
		if sampled {
			t0 = time.Now()
		}
		f := c.tbl.Submit(ctx, key, in.params[i])
		if tr != nil {
			tr.record(lSubmit, int32(i), in.hash[i], ts, tr.now())
		}
		c.futs[i%window] = f
		if sampled {
			c.swg.Add(1)
			c.latOp[nlat] = i
			c.samples <- sampleReq{f: f, t0: t0, slot: nlat}
			nlat++
		}
	}
	if m != nil {
		m.mark(n)
	}
	c.swg.Wait()
	if m != nil {
		m.lat = append(m.lat, c.lat[:nlat]...)
		m.latOp = append(m.latOp, c.latOp[:nlat]...)
	}
	return n
}

func (c *liveCluster) consume(tr *tracer, j int) {
	f := c.futs[j%window]
	c.futs[j%window] = nil
	var out []byte
	var err error
	if tr != nil {
		t0 := tr.now()
		out, err = f.WaitErr()
		tr.record(lWait, int32(j), c.in.hash[j], t0, tr.now())
	} else {
		out, err = f.WaitErr()
	}
	if err != nil {
		c.failed++
		if c.failMsg == "" {
			c.failMsg = err.Error()
		}
		c.resLen[j] = -1
		return
	}
	copy(c.results[j][:], out)
	c.resLen[j] = len(out)
}

func (c *liveCluster) doPut(ctx context.Context, tr *tracer, i int, key string) {
	next := c.check.puts[key] + 1
	fillValue(c.putBuf, key, next)
	t0 := time.Now()
	var ts int64
	if tr != nil {
		ts = tr.now()
	}
	ver, err := c.tbl.Put(ctx, key, c.putBuf)
	if tr != nil {
		tr.record(lPut, int32(i), c.in.hash[i], ts, tr.now())
	}
	c.putLat = append(c.putLat, float64(time.Since(t0).Nanoseconds())/1e3)
	if err != nil {
		c.failed++
		if c.failMsg == "" {
			c.failMsg = err.Error()
		}
		return
	}
	c.check.put(key, ver)
	c.lastPut[c.in.ops[i]] = ver
}

// verifyRound checks every read result of the last round. A cold-client
// workload then replaces the executor for the next round.
func (c *liveCluster) verifyRound() error {
	in := c.in
	for i, ki := range in.ops {
		if in.put[i] {
			continue
		}
		key := in.keys[ki]
		switch n := c.resLen[i]; {
		case n < 0: // failed, and counted so
		case n != outLen:
			c.check.failf("read %s: result is %d bytes, want %d", key, n, outLen)
		default:
			c.check.read(key, in.params[i], c.results[i][:])
			if int64(binary.LittleEndian.Uint64(c.results[i][:])) < c.minVer[i] {
				c.stale++
			}
		}
	}
	if !in.spec.coldClient {
		return nil
	}
	c.retireExecutor()
	return c.newExecutor()
}

// liveSnap holds every counter the per-layer report is made from.
type liveSnap struct {
	acc                                    accounting
	fetches, retries, failovers            int64
	srvExecs, srvGets, srvBounced, srvShed int64
	udfClient, udfServer                   int64
	snapshots                              int64
	opt                                    core.Counters
	cacheInval, evictToDisk, memUsed       int64
}

// snap reads every counter, of the servers and of all executors so far.
func (c *liveCluster) snap() liveSnap {
	s := c.retired
	if c.exec != nil {
		s.addExec(c.execSnap())
	}
	s.udfClient, s.udfServer = c.probe.clientCalls.Load(), c.probe.serverCalls.Load()
	for _, sv := range c.servers {
		s.srvExecs += sv.Execs.Load()
		s.srvGets += sv.Gets.Load()
		s.srvBounced += sv.Bounced.Load()
		s.srvShed += sv.Shed.Load()
	}
	for _, d := range c.disks {
		s.snapshots += d.Stats().Snapshots
	}
	return s
}

// execSnap reads the executor's counters and its optimizers' statistics.
// The optimizers are shard-local state; with no op in flight their shard
// locks are free and nothing mutates them.
func (c *liveCluster) execSnap() liveSnap {
	e := c.exec
	s := liveSnap{
		acc: accounting{
			LocalHits: e.LocalHits.Load(), RemoteComputed: e.RemoteComputed.Load(),
			RemoteRaw: e.RemoteRaw.Load(), FetchServed: e.FetchServed.Load(),
			Failed: e.Failed.Load(), Canceled: e.Canceled.Load(), Shed: e.Shed.Load(),
		},
		fetches: e.Fetches.Load(), retries: e.Retries.Load(), failovers: e.Failovers.Load(),
	}
	for _, o := range c.opts {
		st := o.Stats()
		s.opt.DataReqs += st.DataReqs
		s.opt.FirstContact += st.FirstContact
		s.opt.CounterReset += st.CounterReset
		cs := o.Cache.Stats()
		s.cacheInval += cs.Invalidations
		s.evictToDisk += cs.EvictToDisk
		s.memUsed += o.Cache.MemUsed()
	}
	return s
}

// addExec adds the executor-side counters of o to s.
func (s *liveSnap) addExec(o liveSnap) {
	s.acc.LocalHits += o.acc.LocalHits
	s.acc.RemoteComputed += o.acc.RemoteComputed
	s.acc.RemoteRaw += o.acc.RemoteRaw
	s.acc.FetchServed += o.acc.FetchServed
	s.acc.Failed += o.acc.Failed
	s.acc.Canceled += o.acc.Canceled
	s.acc.Shed += o.acc.Shed
	s.fetches += o.fetches
	s.retries += o.retries
	s.failovers += o.failovers
	s.opt.DataReqs += o.opt.DataReqs
	s.opt.FirstContact += o.opt.FirstContact
	s.opt.CounterReset += o.opt.CounterReset
	s.cacheInval += o.cacheInval
	s.evictToDisk += o.evictToDisk
	s.memUsed = max(s.memUsed, o.memUsed) // the largest client cache so far
}

func (c *liveCluster) close() {
	if c.exec != nil {
		c.exec.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, d := range c.disks {
		d.Close()
	}
	for _, d := range c.dirs {
		os.RemoveAll(d)
	}
	if c.samples != nil {
		close(c.samples)
	}
}
