package main

// perLayer is every per-layer metric a traced run reports, with its unit.
// A layer a workload does not run through reads 0.
var perLayer = []struct{ name, unit string }{
	{"live.submit_ns", "ns"},
	{"live.wait_us", "us"},
	{"live.put_us", "us"},
	{"live.put_p50_us", "us"},
	{"live.put_p99_us", "us"},
	{"live.local_hit_share", "ratio"},
	{"live.compute_share", "ratio"},
	{"live.raw_share", "ratio"},
	{"live.fetches_per_kop", "count"},
	{"live.retries", "count"},
	{"live.failovers", "count"},
	{"core.first_contact_per_kop", "count"},
	{"core.data_reqs_per_kop", "count"},
	{"core.counter_resets_per_kop", "count"},
	{"cache.invalidations_per_kop", "count"},
	{"cache.mem_used_mb", "MiB"},
	{"cache.evict_to_disk", "count"},
	{"udf.client_calls_per_op", "count"},
	{"udf.client_us", "us"},
	{"udf.server_calls_per_op", "count"},
	{"udf.server_us", "us"},
	{"server.execs_per_op", "count"},
	{"server.gets_per_op", "count"},
	{"server.bounced_share", "ratio"},
	{"server.shed", "count"},
	{"storage.get_ns", "ns"},
	{"storage.put_us", "us"},
	{"storage.flush_us", "us"},
	{"storage.snapshots", "count"},
	{"sim.run_s.FO", "s"},
	{"sim.run_s.FC", "s"},
	{"sim.run_s.FD", "s"},
	{"sim.messages_per_tuple", "count"},
	{"sim.wire_mb", "MiB"},
	{"sim.mem_hit_share", "ratio"},
	{"sim.tuples_per_vs", "1/s"},
	{"tail.op_p50_us", "us"},
	{"tail.op_p90_us", "us"},
	{"tail.op_p99_us", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_share", "ratio"},
	{"trace.spans", "count"},
	{"self.live.submit_us_per_op", "us"},
	{"self.live.wait_us_per_op", "us"},
	{"self.live.put_us_per_op", "us"},
	{"self.udf.client_us_per_op", "us"},
	{"self.udf.server_us_per_op", "us"},
	{"self.storage.get_us_per_op", "us"},
	{"self.storage.put_us_per_op", "us"},
	{"self.storage.flush_us_per_op", "us"},
	{"self.sim.run_us_per_op", "us"},
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// liveLayers derives the per-layer counters of a live run's timed phase
// from the snapshots before and after it.
func liveLayers(s *report, a, b liveSnap, reads int64) {
	s.set("live.local_hit_share", "ratio", ratio(b.acc.LocalHits-a.acc.LocalHits, reads))
	s.set("live.compute_share", "ratio", ratio(b.acc.RemoteComputed-a.acc.RemoteComputed, reads))
	s.set("live.raw_share", "ratio", ratio(b.acc.RemoteRaw-a.acc.RemoteRaw, reads))
	s.set("live.fetches_per_kop", "count", 1000*ratio(b.fetches-a.fetches, reads))
	s.set("live.retries", "count", float64(b.retries-a.retries))
	s.set("live.failovers", "count", float64(b.failovers-a.failovers))
	s.set("core.first_contact_per_kop", "count", 1000*ratio(b.opt.FirstContact-a.opt.FirstContact, reads))
	s.set("core.data_reqs_per_kop", "count", 1000*ratio(b.opt.DataReqs-a.opt.DataReqs, reads))
	s.set("core.counter_resets_per_kop", "count", 1000*ratio(b.opt.CounterReset-a.opt.CounterReset, reads))
	s.set("cache.invalidations_per_kop", "count", 1000*ratio(b.cacheInval-a.cacheInval, reads))
	s.set("cache.mem_used_mb", "MiB", float64(b.memUsed)/(1<<20))
	s.set("cache.evict_to_disk", "count", float64(b.evictToDisk))
	s.set("udf.client_calls_per_op", "count", ratio(b.udfClient-a.udfClient, reads))
	s.set("udf.server_calls_per_op", "count", ratio(b.udfServer-a.udfServer, reads))
	s.set("server.execs_per_op", "count", ratio(b.srvExecs-a.srvExecs, reads))
	s.set("server.gets_per_op", "count", ratio(b.srvGets-a.srvGets, reads))
	s.set("server.bounced_share", "ratio", ratio(b.srvBounced-a.srvBounced, b.srvExecs-a.srvExecs))
	s.set("server.shed", "count", float64(b.srvShed-a.srvShed))
	s.set("storage.snapshots", "count", float64(b.snapshots-a.snapshots))
}

// setLiveTimings reports the traced run's per-call timings, the put
// latencies of its untraced half, the runtime's GC work and the tracing
// overhead.
func setLiveTimings(rep *report, lt *layerTimes, base, tph phase, all costs) {
	rep.set("live.submit_ns", "ns", lt.meanNs(lSubmit))
	rep.set("live.wait_us", "us", lt.meanNs(lWait)/1e3)
	rep.set("live.put_us", "us", lt.meanNs(lPut)/1e3)
	rep.set("live.put_p50_us", "us", percentile(base.putLat, 50))
	rep.set("live.put_p99_us", "us", percentile(base.putLat, 99))
	rep.set("udf.client_us", "us", lt.meanNs(lUDFClient)/1e3)
	rep.set("udf.server_us", "us", lt.meanNs(lUDFServer)/1e3)
	rep.set("storage.get_ns", "ns", lt.meanNs(lStoreGet))
	rep.set("storage.put_us", "us", lt.meanNs(lStorePut)/1e3)
	rep.set("storage.flush_us", "us", lt.meanNs(lStoreFlush)/1e3)
	setCommonTimings(rep, base, tph, all)
}

func setCommonTimings(rep *report, base, tph phase, all costs) {
	lat := latencies(base.typical().kept)
	rep.set("tail.op_p50_us", "us", percentile(lat, 50))
	rep.set("tail.op_p90_us", "us", percentile(lat, 90))
	rep.set("tail.op_p99_us", "us", percentile(lat, 99))
	rep.set("runtime.gc_cycles", "count", float64(all.gcs))
	rep.set("runtime.gc_cpu_share", "ratio", all.gcCPUShare())
	rep.set("trace.overhead_share", "ratio", 1-tph.rate()/base.rate())
	rep.diagf("tracing: untraced %.0f ops/s over %d rounds, traced %.0f ops/s over %d rounds",
		base.rate(), base.rounds, tph.rate(), tph.rounds)
}

// reportSelf reports each layer's self time per op of the traced phase,
// and fills every per-layer metric the workload does not produce with 0.
func reportSelf(rep *report, lt *layerTimes, tracedOps int64) {
	var spans int64
	for l := layer(0); l < numLayers; l++ {
		rep.set("self."+layerNames[l]+"_us_per_op", "us", float64(lt.self[l])/1e3/float64(tracedOps))
		spans += lt.calls[l]
	}
	rep.set("trace.spans", "count", float64(spans))
	for _, m := range perLayer {
		if _, ok := rep.res.Metrics[m.name]; !ok {
			rep.set(m.name, m.unit, 0)
		}
	}
}
