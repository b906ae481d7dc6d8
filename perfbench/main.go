// Command perfbench measures joinopt end to end and layer by layer on four
// fixed, seeded workloads: three on the live plane (two data nodes and one
// executor in this process, over loopback TCP) and one on the simulated
// cluster. See README.md for the workloads, the metrics and how to read
// them.
//
//	perfbench --workload hot-read --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: whether every
// output check passed, the ops attempted and failed, and the metrics (the
// end-to-end ones with --trace 0, the per-layer ones with --trace 1). Any
// failed check makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

var liveWorkloads = map[string]liveSpec{
	// Zipf reads of a table that fits the client's memory tier, cheap
	// UDF: after warm-up every op is a local cache hit.
	"hot-read": {keys: 10000, valueSize: 1024, skew: 1.0, ops: 50000, udfRounds: 1, warmRounds: 6, chunk: 5000},
	// Near-uniform reads over a key space four times the round, costly
	// UDF and small values: Algorithm 1 rents almost every op.
	"wide-udf": {keys: 80000, valueSize: 64, skew: 0, ops: 20000, udfRounds: 400, warmRounds: 1, coldClient: true, chunk: 1000},
	// hot-read's reads with every 64th op a put on the same Zipf keys,
	// against the disk engine.
	"hot-write": {keys: 10000, valueSize: 1024, skew: 1.0, ops: 50000, putEvery: 64, udfRounds: 1, warmRounds: 6, disk: true, chunk: 5000},
}

// setupReps is how many times a run sets its workload up; setup_s is the
// typical set-up, made place by place like the typical round.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's metrics and diagnostics.
type report struct {
	res  result
	diag []string
}

func (r *report) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) diagf(format string, args ...any) {
	r.diag = append(r.diag, fmt.Sprintf(format, args...))
}

func main() {
	workloadName := flag.String("workload", "", "hot-read, wide-udf, hot-write or sim-dch")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "how long the timed phase runs, in whole rounds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for disk-engine data and trace files")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep := &report{res: result{Correct: true, Metrics: map[string]metric{}}}
	dur := time.Duration(*seconds) * time.Second
	var err error
	if spec, ok := liveWorkloads[*workloadName]; ok {
		err = runLive(rep, *workloadName, spec, *seed, dur, *trace == 1, *dir)
	} else if *workloadName == "sim-dch" {
		err = runSim(rep, *seed, dur, *trace == 1, *dir)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, d := range rep.diag {
		fmt.Println(d)
	}
	line, err := json.Marshal(rep.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.res.Correct {
		os.Exit(1)
	}
}

func runLive(rep *report, name string, spec liveSpec, seed int64, dur time.Duration, traced bool, dir string) error {
	probe := &probes{}
	var setups []float64
	var setup, base, tph phase
	var c *liveCluster
	defer func() {
		if c != nil {
			c.close()
		}
	}()
	// Each set-up is a trial: a fresh cluster times its share of the
	// untraced phase. A traced run gives the untraced trials half of its
	// time and then traces the last cluster for the other half.
	slice := dur / setupReps
	if traced {
		slice = dur / 2 / setupReps
	}
	var before liveSnap
	var lastRounds int // timed rounds of the last cluster
	var stale int64
	for i := 0; i < setupReps; i++ {
		if c != nil {
			c.close()
			c = nil
		}
		t0 := time.Now()
		var timing []chunkStat
		var err error
		c, timing, err = setupLive(spec, seed, dir, probe)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		setup.chunks = append(setup.chunks, timing...)
		if c.failed > 0 {
			return fmt.Errorf("setup: %d warm-up ops failed: %s", c.failed, c.failMsg)
		}
		if c.check.bad > 0 {
			return fmt.Errorf("setup: %d warm-up output checks failed, first: %s", c.check.bad, c.check.errs[0])
		}
		before = c.snap()
		c.stale = 0
		p, err := c.phase(nil, slice)
		if err != nil {
			return err
		}
		if !traced {
			// Only the traced run reports latencies; dropping them keeps
			// the benchmark's own samples out of heap_live_mb.
			for j := range p.chunks {
				p.chunks[j].lat = nil
			}
		}
		base.merge(p, i)
		lastRounds, stale = p.rounds, stale+c.stale
		if i < setupReps-1 || !traced {
			rep.res.Failed += c.failed
			c.check.accounting(c.execSnap().acc, c.reads)
			rep.checked(c.check)
		}
	}
	var tr *tracer
	if traced {
		// Room for the traced half at about four spans per op, within a
		// bound that keeps the trace to tens of MiB.
		tr = newTracer(int(min(int64(spec.ops)*4*int64(base.rounds+1), 1<<20)))
		c.probe.tr.Store(tr)
		c.stale = 0
		var err error
		tph, err = c.phase(tr, dur/2)
		c.probe.tr.Store(nil)
		if err != nil {
			return err
		}
		lastRounds, stale = lastRounds+tph.rounds, stale+c.stale
		rep.res.Failed += c.failed
		c.check.accounting(c.execSnap().acc, c.reads)
		rep.checked(c.check)
	}
	after := c.snap()
	heap := liveHeapMiB()

	rounds := int64(base.rounds + tph.rounds)
	rep.res.Attempted = rounds * int64(spec.ops)
	all := base.costs
	all.merge(tph.costs)
	rep.diagf("%s", hostLine(base.steal, all.gcs))
	rep.diagf("workload: %s seed=%d rounds=%d ops/round=%d setups=%v", name, seed, rounds, spec.ops, setups)
	if err := writeChunks(rep, base, filepath.Join(dir, "chunks-"+name+".tsv")); err != nil {
		return err
	}
	if rep.res.Failed > 0 {
		rep.diagf("failed ops: %d, first error: %s", rep.res.Failed, c.failMsg)
	}
	readsPerRound := int64(spec.ops - countPuts(c.in))
	if spec.putEvery > 0 {
		rep.diagf("stale reads: %d of %d reads returned a version older than the client's own acknowledged put of the key", stale, rounds*readsPerRound)
	}
	reads := int64(lastRounds) * readsPerRound

	// The per-layer counters cover the last cluster's timed rounds.
	if !traced {
		// The counters go to a diagnostic line; the result carries the
		// end-to-end metrics alone.
		layers := &report{res: result{Metrics: map[string]metric{}}}
		liveLayers(layers, before, after, reads)
		line, _ := json.Marshal(layers.res.Metrics) // plain numbers always marshal
		rep.diagf("layers: %s", line)
		rep.diagf("puts: %d latencies, put_p50_us=%.2f put_p99_us=%.2f",
			len(base.putLat), percentile(base.putLat, 50), percentile(base.putLat, 99))
		setEndToEnd(rep, base)
		rep.set("heap_live_mb", "MiB", heap)
		rep.set("setup_s", "s", setup.typical().wall)
	} else {
		lt := analyze(tr.recorded(), tph.intervals)
		liveLayers(rep, before, after, reads)
		setLiveTimings(rep, &lt, base, tph, all)
		path := filepath.Join(dir, "trace-"+name+".tsv")
		if err := tr.write(path); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		rep.diagf("trace: %d spans (%d dropped) written to %s", len(tr.recorded()), tr.dropped.Load(), path)
		reportSelf(rep, &lt, int64(tph.rounds)*int64(spec.ops))
	}
	return nil
}

// writeChunks writes p's chunks to path and notes in the diagnostics
// where they are and how the steal filter split them.
func writeChunks(rep *report, p phase, path string) error {
	if err := p.writeChunks(path); err != nil {
		return fmt.Errorf("writing chunks: %w", err)
	}
	t := p.typical()
	rep.diagf("chunks: %d in %d rounds (%.2f s), %d kept; typical round %.0f ops/s and %.3f us CPU per op, all rounds %.0f ops/s and %.3f; written to %s",
		len(p.chunks), p.rounds, p.wall.Seconds(), len(t.kept), float64(t.ops)/t.wall, t.cpu*1e6/float64(t.ops),
		p.meanRate(), p.costs.cpuUsPerOp(), path)
	return nil
}

// checked fails the run if any output check failed, listing the first few.
func (r *report) checked(c *checker) {
	if c.bad == 0 {
		return
	}
	r.res.Correct = false
	for _, e := range c.errs {
		r.diagf("check failed: %s", e)
	}
	r.diagf("check failed: %d mismatches in all", c.bad)
}

func countPuts(in *liveInput) int {
	n := 0
	for _, p := range in.put {
		if p {
			n++
		}
	}
	return n
}

// phase runs whole rounds until d has passed, verifying each round's
// results outside its timed interval. A traced phase also stops when the
// tracer has no room for another round.
func (c *liveCluster) phase(tr *tracer, d time.Duration) (phase, error) {
	var putLat []float64
	round := func(m *meter) int {
		n := c.round(tr, m)
		putLat = append(putLat, c.putLat...)
		return n
	}
	fits := func() bool { return tr == nil || tr.free() >= int64(len(c.in.ops))*4 }
	p, err := measure(tr, d, &meter{chunk: c.in.spec.chunk}, round, c.verifyRound, fits)
	p.putLat = putLat
	return p, err
}
