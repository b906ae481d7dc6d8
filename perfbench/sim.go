package main

import (
	"fmt"
	"path/filepath"
	"time"

	"joinopt/internal/cluster"
	"joinopt/internal/exec"
	"joinopt/internal/store"
	"joinopt/internal/workload"
)

// simTuples is the sim-dch input size per strategy run: large enough that
// FO's caching pays off on every seed (at 6000 tuples FO led FC by as
// little as 2%).
const simTuples = 12000

var simStrategies = []exec.Strategy{exec.FO, exec.FC, exec.FD}

// simChunk is the tuples per timed chunk of a round (about 30 ms); it
// divides simTuples, so no chunk spans two strategies' runs.
const simChunk = 2000

// timedSource hands the simulator its input and takes the meter's
// checkpoints as it pulls tuples.
type timedSource struct {
	src  exec.Source
	m    *meter
	base int // tuples the round pulled before this run
	n    int // tuples this run pulled
}

func (t *timedSource) Next() (exec.Tuple, bool) {
	tu, ok := t.src.Next()
	if ok && t.m != nil {
		t.m.at(t.base + t.n)
		t.n++
	}
	return tu, ok
}

// simRound runs the Fig 8c data-and-compute-heavy input at z = 1.0 under
// FO, FC and FD on the default 10+10 node simulated cluster, each on a
// fresh cluster and store. m, if not nil, takes the round's checkpoints.
func simRound(seed int64, tr *tracer, m *meter) []exec.Report {
	reps := make([]exec.Report, len(simStrategies))
	for i, s := range simStrategies {
		cfg := cluster.DefaultConfig()
		c := cluster.New(cfg)
		c.AssignRoles(cfg.Nodes/2, cfg.Nodes-cfg.Nodes/2, false)
		st := store.New()
		syn := workload.NewSynth(workload.DataComputeHeavy, simTuples, 1.0, seed)
		st.AddTable(store.NewTable("synth", syn.Catalog(), 4, c.DataNodes()))
		src := &timedSource{src: syn.Source(), m: m, base: i * simTuples}
		ex := exec.New(exec.Config{
			Cluster:  c,
			Store:    st,
			Tables:   []string{"synth"},
			Strategy: s,
			Seed:     seed,
		}, src)
		var t0 int64
		if tr != nil {
			t0 = tr.now()
		}
		reps[i] = ex.Run()
		if tr != nil {
			tr.record(lSimRun, int32(i), 0, t0, tr.now())
		}
	}
	if m != nil {
		m.mark(len(simStrategies) * simTuples)
	}
	return reps
}

// checkSim verifies one round: every run consumed its whole input, FO's
// virtual throughput beats FC's and FD's (the paper's Fig 8c result at
// z = 1.0), and the simulation is deterministic for a seed.
func checkSim(c *checker, reps, first []exec.Report) {
	for _, r := range reps {
		if r.Tuples != simTuples {
			c.failf("sim %s: %d tuples reported, want %d", r.Strategy, r.Tuples, simTuples)
		}
	}
	fo := reps[0]
	for _, r := range reps[1:] {
		if !(fo.Throughput > r.Throughput) {
			c.failf("sim: FO throughput %.1f tuples/vs does not beat %s's %.1f", fo.Throughput, r.Strategy, r.Throughput)
		}
	}
	for i := range reps {
		if first != nil && reps[i] != first[i] {
			c.failf("sim %s: report differs between rounds of one seed: %+v vs %+v", reps[i].Strategy, reps[i], first[i])
		}
	}
}

func runSim(rep *report, seed int64, dur time.Duration, traced bool, dir string) error {
	check := newChecker(0, 0)
	var setups []float64
	var setup phase
	var first []exec.Report
	m := &meter{chunk: simChunk}
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		m.reset()
		reps := simRound(seed, nil, m)
		setups = append(setups, time.Since(t0).Seconds())
		setup.chunks = append(setup.chunks, m.chunks()...)
		checkSim(check, reps, first)
		first = reps
	}
	var reps []exec.Report
	round := func(tr *tracer) func(*meter) int {
		return func(m *meter) int {
			reps = simRound(seed, tr, m)
			return len(simStrategies) * simTuples
		}
	}
	verify := func() error { checkSim(check, reps, first); return nil }
	always := func() bool { return true }
	var base, tph phase
	var tr *tracer
	// verify reports through the checker, so measure returns no error.
	if !traced {
		base, _ = measure(nil, dur, &meter{chunk: simChunk}, round(nil), verify, always)
	} else {
		base, _ = measure(nil, dur/2, &meter{chunk: simChunk}, round(nil), verify, always)
		tr = newTracer(1 << 16)
		tph, _ = measure(tr, dur/2, &meter{chunk: simChunk}, round(tr), verify, always)
	}
	heap := liveHeapMiB()
	rounds := base.rounds + tph.rounds
	rep.res.Attempted = int64(rounds * len(simStrategies) * simTuples)
	all := base.costs
	all.merge(tph.costs)
	rep.diagf("%s", hostLine(base.steal, all.gcs))
	rep.diagf("workload: sim-dch seed=%d rounds=%d tuples/run=%d setups=%v", seed, rounds, simTuples, setups)
	if err := writeChunks(rep, base, filepath.Join(dir, "chunks-sim-dch.tsv")); err != nil {
		return err
	}
	for _, r := range first {
		rep.diagf("sim: %s", r)
	}
	if !traced {
		setEndToEnd(rep, base)
		rep.set("heap_live_mb", "MiB", heap)
		rep.set("setup_s", "s", setup.typical().wall)
	} else {
		lt := analyze(tr.recorded(), tph.intervals)
		runs := map[int32][]float64{}
		for _, s := range tr.recorded() {
			runs[s.op] = append(runs[s.op], float64(s.end-s.start)/1e9)
		}
		for i, s := range simStrategies {
			rep.set("sim.run_s."+s.String(), "s", median(runs[int32(i)]))
		}
		fo := first[0]
		rep.set("sim.messages_per_tuple", "count", ratio(fo.Messages, fo.Tuples))
		rep.set("sim.wire_mb", "MiB", float64(fo.BytesOnWire)/(1<<20))
		rep.set("sim.mem_hit_share", "ratio", ratio(fo.MemHits, fo.Tuples))
		rep.set("sim.tuples_per_vs", "1/s", fo.Throughput)
		setCommonTimings(rep, base, tph, all)
		path := filepath.Join(dir, "trace-sim-dch.tsv")
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		rep.diagf("trace: %d spans written to %s", len(tr.recorded()), path)
		reportSelf(rep, &lt, int64(tph.rounds*len(simStrategies)*simTuples))
	}
	rep.checked(check)
	return nil
}
