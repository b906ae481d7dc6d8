package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. xs is sorted in place. An empty input yields NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median returns the middle of xs (the mean of the two middle samples for
// an even count), without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procStat is the host-wide CPU time split read from the first line of
// /proc/stat, in clock ticks.
type procStat struct {
	total, steal uint64
	ok           bool
}

func readProcStat() procStat {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return procStat{}
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return procStat{}
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return procStat{}
	}
	var ps procStat
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return procStat{}
		}
		// Fields: user nice system idle iowait irq softirq steal guest
		// guest_nice; guest time is already counted in user.
		if i < 8 {
			ps.total += v
		}
		if i == 7 {
			ps.steal = v
		}
	}
	ps.ok = true
	return ps
}

// stealShare is the share of host CPU time stolen by the hypervisor between
// two /proc/stat readings, or -1 when /proc/stat is unreadable.
func stealShare(a, b procStat) float64 {
	if !a.ok || !b.ok || b.total <= a.total {
		return -1
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// sample is a snapshot of the process counters a timed phase is measured by.
type sample struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64 // runtime.MemStats.TotalAlloc
	mallocs uint64 // runtime.MemStats.Mallocs
	gcs     uint32
	gcCPU   float64 // seconds of GC CPU time (runtime/metrics)
	allCPU  float64 // seconds of all Go CPU time (runtime/metrics)
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSample() sample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(cpuMetrics)
	s := sample{
		wall:    time.Now(),
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
	}
	if cpuMetrics[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = cpuMetrics[0].Value.Float64()
	}
	if cpuMetrics[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = cpuMetrics[1].Value.Float64()
	}
	return s
}

// costs accumulates the per-op costs of the timed phases of a run.
type costs struct {
	ops            int64
	wall, cpu      time.Duration
	alloc, mallocs uint64
	gcs            uint32
	gcCPU, allCPU  float64
}

func (c *costs) add(a, b sample, ops int) {
	c.ops += int64(ops)
	c.wall += b.wall.Sub(a.wall)
	c.cpu += b.cpu - a.cpu
	c.alloc += b.alloc - a.alloc
	c.mallocs += b.mallocs - a.mallocs
	c.gcs += b.gcs - a.gcs
	c.gcCPU += b.gcCPU - a.gcCPU
	c.allCPU += b.allCPU - a.allCPU
}

func (c *costs) merge(o costs) {
	c.ops += o.ops
	c.wall += o.wall
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.mallocs += o.mallocs
	c.gcs += o.gcs
	c.gcCPU += o.gcCPU
	c.allCPU += o.allCPU
}

func (c *costs) cpuUsPerOp() float64 {
	return float64(c.cpu.Nanoseconds()) / 1e3 / float64(c.ops)
}

func (c *costs) allocBPerOp() float64 { return float64(c.alloc) / float64(c.ops) }

func (c *costs) allocsPerOp() float64 { return float64(c.mallocs) / float64(c.ops) }

func (c *costs) gcCPUShare() float64 {
	if c.allCPU <= 0 {
		return 0
	}
	return c.gcCPU / c.allCPU
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// hostLine describes the host a run measured, for tracing a spread to it.
func hostLine(steal float64, gcs uint32) string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d go=%s steal_share=%.4f gc_cycles=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), steal, gcs)
}

// meter takes checkpoints inside a round: at the first op of every chunk
// and at the round's end it records the wall clock, the process's CPU time
// and the host's CPU time split. A round's timed figures are made per
// chunk, so a burst of host noise spoils a few chunks, not a whole round.
type meter struct {
	chunk int // ops per chunk
	marks []mark
	lat   []float64 // sampled latencies of the round, µs
	latOp []int     // index of the op each sample timed, rising
}

type mark struct {
	op   int
	wall time.Time
	cpu  time.Duration
	ps   procStat
}

func (m *meter) reset() {
	m.marks, m.lat, m.latOp = m.marks[:0], m.lat[:0], m.latOp[:0]
}

// at takes a checkpoint when op begins a chunk.
func (m *meter) at(op int) {
	if op%m.chunk == 0 {
		m.mark(op)
	}
}

// mark takes a checkpoint before op; the round's end is marked with its
// op count.
func (m *meter) mark(op int) {
	m.marks = append(m.marks, mark{op: op, wall: time.Now(), cpu: cpuTime(), ps: readProcStat()})
}

// elapsed is the wall time from the first checkpoint to the last.
func (m *meter) elapsed() time.Duration {
	if len(m.marks) < 2 {
		return 0
	}
	return m.marks[len(m.marks)-1].wall.Sub(m.marks[0].wall)
}

// chunkStat is one timed chunk of a round: its place in the round, its
// ops, its wall and process CPU time, the host's CPU steal share while it
// ran, and the latencies sampled from its ops.
type chunkStat struct {
	trial, pos, ops int
	wall, cpu       float64 // seconds
	steal           float64
	lat             []float64
}

// chunks splits the round m recorded into its chunks.
func (m *meter) chunks() []chunkStat {
	var cs []chunkStat
	j := 0
	for k := 1; k < len(m.marks); k++ {
		a, b := m.marks[k-1], m.marks[k]
		c := chunkStat{
			pos:   k - 1,
			ops:   b.op - a.op,
			wall:  b.wall.Sub(a.wall).Seconds(),
			cpu:   (b.cpu - a.cpu).Seconds(),
			steal: stealShare(a.ps, b.ps),
		}
		start := j
		for j < len(m.latOp) && m.latOp[j] < b.op {
			j++
		}
		c.lat = append([]float64(nil), m.lat[start:j]...) // m's buffers serve the next round
		cs = append(cs, c)
	}
	return cs
}

// phase is the measurement of one timed phase: whole rounds until its
// duration has passed.
type phase struct {
	rounds    int
	wall      time.Duration // the rounds' wall time
	chunks    []chunkStat
	putLat    []float64 // put latencies, µs
	costs     costs
	intervals [][2]int64 // traced rounds' intervals on the tracer's clock
	steal     float64    // the host's steal share over the whole phase
}

// measure runs whole rounds until d has passed and records each one's
// chunks, with the process's allocation counters around it. round runs one
// round, taking its checkpoints with m, and returns its op count. check
// runs after each round, outside its timed interval; fits, when it reports
// false, ends the phase early (at least one round always runs).
func measure(tr *tracer, d time.Duration, m *meter, round func(*meter) int, check func() error, fits func() bool) (phase, error) {
	var p phase
	ps0 := readProcStat()
	start := time.Now()
	for p.rounds == 0 || fits() {
		a := takeSample()
		var rs int64
		if tr != nil {
			rs = tr.now()
		}
		m.reset()
		ops := round(m)
		b := takeSample()
		p.costs.add(a, b, ops)
		p.rounds++
		p.wall += m.elapsed()
		p.chunks = append(p.chunks, m.chunks()...)
		if tr != nil {
			p.intervals = append(p.intervals, [2]int64{rs, tr.now()})
		}
		if err := check(); err != nil {
			return p, err
		}
		if time.Since(start) >= d {
			break
		}
	}
	p.steal = stealShare(ps0, readProcStat())
	return p, nil
}

// merge appends o, one trial's phase, as trial t.
func (p *phase) merge(o phase, t int) {
	for _, c := range o.chunks {
		c.trial = t
		p.chunks = append(p.chunks, c)
	}
	p.rounds += o.rounds
	p.wall += o.wall
	p.putLat = append(p.putLat, o.putLat...)
	p.costs.merge(o.costs)
	p.intervals = append(p.intervals, o.intervals...)
	// The host's steal over the trials, weighted by their wall time.
	if p.wall > 0 {
		p.steal += (o.steal - p.steal) * float64(o.wall) / float64(p.wall)
	}
}

// typicalRound is a phase's typical round, made chunk by chunk: for each
// place in the round, the first quartile of the wall and CPU times of the
// chunks there, over the half of the rounds the host disturbed least at
// that place. A shared host disturbs a run in two ways. CPU steal comes in
// bursts (on a 2-core VM single rounds lost up to 45% of their CPU while
// others lost none) and shows in /proc/stat. Contention for the core's
// caches and its other hyperthread shows nowhere but in the times: chunks
// that lost no CPU to steal ran 28% slower and took 34% more CPU per op
// while the host was busy than while it was quiet. The steal filter drops
// the first kind; the first quartile keeps the chunks the second kind
// spared, where a median would move with the host's load. Taking the
// figures by place, rather than over all chunks, keeps a round's cheap
// and costly parts (a cold start, a strategy switch) in their proportions.
// All chunks of a place count when the steal is unknown.
type typicalRound struct {
	ops       int
	wall, cpu float64     // seconds
	kept      []chunkStat // the chunks the figures were taken over
}

func (p *phase) typical() typicalRound {
	byPos := map[int][]chunkStat{}
	npos := 0
	for _, c := range p.chunks {
		byPos[c.pos] = append(byPos[c.pos], c)
		npos = max(npos, c.pos+1)
	}
	var t typicalRound
	for pos := 0; pos < npos; pos++ {
		cs := byPos[pos]
		if len(cs) == 0 {
			continue
		}
		if !slices.ContainsFunc(cs, func(c chunkStat) bool { return c.steal < 0 }) {
			sort.SliceStable(cs, func(i, j int) bool { return cs[i].steal < cs[j].steal })
			cs = cs[:(len(cs)+1)/2]
		}
		t.ops += cs[0].ops
		t.wall += quartileOf(cs, func(c chunkStat) float64 { return c.wall })
		t.cpu += quartileOf(cs, func(c chunkStat) float64 { return c.cpu })
		t.kept = append(t.kept, cs...)
	}
	return t
}

// quartileOf is the first quartile (nearest rank) of one field over chunks.
func quartileOf(cs []chunkStat, f func(chunkStat) float64) float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return percentile(xs, 25)
}

// latencies pools the latency samples of chunks.
func latencies(cs []chunkStat) []float64 {
	var xs []float64
	for _, c := range cs {
		xs = append(xs, c.lat...)
	}
	return xs
}

// rate is the typical round's ops per second.
func (p *phase) rate() float64 {
	t := p.typical()
	return float64(t.ops) / t.wall
}

// meanRate is the phase's ops per second over all its rounds.
func (p *phase) meanRate() float64 { return float64(p.costs.ops) / p.wall.Seconds() }

// writeChunks dumps every chunk as a tab-separated line, for tracing a
// spread to the host.
func (p *phase) writeChunks(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "trial\tpos\tops\twall_s\tcpu_s\tsteal\tp50_us")
	for _, c := range p.chunks {
		fmt.Fprintf(w, "%d\t%d\t%d\t%.6f\t%.6f\t%.4f\t%.2f\n", c.trial, c.pos, c.ops, c.wall, c.cpu, c.steal,
			percentile(append([]float64(nil), c.lat...), 50))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setEndToEnd reports the end-to-end metrics measured per chunk and per op.
func setEndToEnd(rep *report, p phase) {
	t := p.typical()
	rep.set("ops_per_s", "1/s", float64(t.ops)/t.wall)
	rep.set("cpu_us_per_op", "us", t.cpu*1e6/float64(t.ops))
	rep.set("alloc_b_per_op", "B", p.costs.allocBPerOp())
	rep.set("allocs_per_op", "count", p.costs.allocsPerOp())
}
