package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// layer names one span kind: a call into one layer of the system, timed
// from the benchmark's own code around that call.
type layer uint8

const (
	lSubmit     layer = iota // live: Table.Submit (client routing, Algorithm 1)
	lWait                    // live: Future.WaitErr, blocked part only
	lPut                     // live: Table.Put
	lUDFClient               // UDF run by the executor (local hits, fetched and bounced values)
	lUDFServer               // UDF run by a data node
	lStoreGet                // storage.Table.Get on a data node
	lStorePut                // storage.Table.Put on a data node
	lStoreFlush              // storage.Engine.Flush on a data node
	lSimRun                  // exec.Executor.Run, one strategy
	numLayers
)

var layerNames = [numLayers]string{
	"live.submit", "live.wait", "live.put", "udf.client", "udf.server",
	"storage.get", "storage.put", "storage.flush", "sim.run",
}

// span is one timed call. Spans keep no strings: op is the op's index in
// its round (from its params, or -1 where the layer cannot see it) and key
// a hash of the key it touched, which joins storage spans to their op.
type span struct {
	start, end int64 // ns since the tracer's base
	op         int32
	key        uint32
	layer      layer
}

// tracer records spans into a preallocated buffer; recording never
// allocates and never blocks. Spans past the buffer's end are counted in
// dropped and lost.
type tracer struct {
	base    time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) record(l layer, op int32, key uint32, start, end int64) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{start: start, end: end, op: op, key: key, layer: l}
}

// free is how many more spans fit.
func (t *tracer) free() int64 { return int64(len(t.spans)) - t.n.Load() }

func (t *tracer) recorded() []span {
	n := min(t.n.Load(), int64(len(t.spans)))
	return t.spans[:n]
}

// write dumps the spans as tab-separated lines: layer, op, key hash,
// start and end in ns since the run's base.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\top\tkey\tstart_ns\tend_ns")
	for _, s := range t.recorded() {
		fmt.Fprintf(w, "%s\t%d\t%08x\t%d\t%d\n", layerNames[s.layer], s.op, s.key, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTimes is the per-layer analysis of a trace: calls and total time
// per layer, and each layer's self time, which is its spans' time minus
// the part of it covered by the child spans of the same op.
type layerTimes struct {
	calls [numLayers]int64
	total [numLayers]int64 // ns
	self  [numLayers]int64 // ns
}

func (lt *layerTimes) meanNs(l layer) float64 {
	if lt.calls[l] == 0 {
		return 0
	}
	return float64(lt.total[l]) / float64(lt.calls[l])
}

// analyze computes layer times over spans recorded in rounds whose wall
// intervals are given (spans never cross a round). Within a round the
// parent of a span is found by op:
//
//   - udf.* spans carry their op's index from its params;
//   - storage.get spans are given to the op on the same key whose Submit
//     started last before them (the op whose compute or data request the
//     data node is serving);
//   - storage.put and storage.flush spans are given to the Put span that
//     contains them (one goroutine submits, so Puts never overlap).
//
// live.wait is the parent of every udf and storage.get span of its op;
// live.put is the parent of the storage spans inside it. The other layers
// are leaves, so their self time is their total time.
func analyze(spans []span, rounds [][2]int64) layerTimes {
	var lt layerTimes
	for _, s := range spans {
		lt.calls[s.layer]++
		lt.total[s.layer] += s.end - s.start
		lt.self[s.layer] += s.end - s.start
	}
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	r := 0
	for lo := 0; lo < len(sorted); {
		end := int64(math.MaxInt64)
		for r < len(rounds) && rounds[r][1] <= sorted[lo].start {
			r++
		}
		if r < len(rounds) {
			end = rounds[r][1]
		}
		hi := lo
		for hi < len(sorted) && sorted[hi].start < end {
			hi++
		}
		analyzeRound(sorted[lo:hi], &lt)
		lo = hi
	}
	return lt
}

// analyzeRound subtracts child coverage from the parents of one round's
// spans, which are sorted by start.
func analyzeRound(spans []span, lt *layerTimes) {
	lastSubmit := map[uint32]int32{}
	children := map[int32][]span{}
	var puts []span
	for _, s := range spans {
		switch s.layer {
		case lSubmit:
			lastSubmit[s.key] = s.op
		case lUDFClient, lUDFServer:
			if s.op >= 0 {
				children[s.op] = append(children[s.op], s)
			}
		case lStoreGet:
			if op, ok := lastSubmit[s.key]; ok {
				children[op] = append(children[op], s)
			}
		case lPut:
			puts = append(puts, s)
		}
	}
	for _, s := range spans {
		switch s.layer {
		case lWait:
			lt.self[lWait] -= covered(s, children[s.op])
		case lStorePut, lStoreFlush:
			// Find the Put containing this span.
			i := sort.Search(len(puts), func(i int) bool { return puts[i].start > s.start }) - 1
			if i >= 0 && s.end <= puts[i].end {
				lt.self[lPut] -= covered(puts[i], []span{s})
			}
		}
	}
}

// covered is how much of parent's interval the children cover (their
// union, clipped to the parent).
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.start
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			sum += v.b - end
			end = v.b
		}
	}
	return sum
}
