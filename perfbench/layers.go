package main

import (
	"slacksim/internal/core"
	"slacksim/internal/metrics"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names (selfcheck_test.go keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics of untraced rounds. failed_frac and
// sim_err_pct are printed beside them and reported per layer, not here:
// both are legitimately 0 on some workloads, and an end-to-end metric is
// judged by its spread relative to its median, so it must never be 0.
// Failures also travel as the result's failed/attempted counts.
var endToEnd = []metricDef{
	{"e2e_s", "s", "lower"},
	{"kips", "KIPS", "higher"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, per round (summed over its
// cells) and then the median over traced rounds, except the invocation
// figures at the end of the list. The comment on each group names the
// end-to-end metric it should move (README.md has the full map).
var perLayer = []metricDef{
	// setup_s
	{"asm.assemble_s", "s", "lower"},
	{"core.new_machine_s", "s", "lower"},
	{"mem.image_alloc_mb", "MiB", "lower"},
	{"workloads.init_s", "s", "lower"},
	// e2e_s, alloc_mb; host.collect_s is the benchmark's own runtime.GC
	// before each simulation
	{"host.collect_s", "s", "lower"},
	{"host.gc_count", "count", "lower"},
	{"host.gc_pause_s", "s", "lower"},
	{"workloads.verify_s", "s", "lower"},
	{"remote.fleet_s", "s", "lower"},
	// kips
	{"core.run_s", "s", "lower"},
	{"core.manager_busy_s", "s", "lower"},
	{"core.events_processed", "count", "lower"},
	{"core.global_advances", "count", "lower"},
	{"core.window_slides", "count", "lower"},
	{"core.quantum_barriers", "count", "lower"},
	{"core.adapt_resizes", "count", "lower"},
	// kips and e2e_s on conservative-h2
	{"core.fabric.wait_s", "s", "lower"},
	{"core.fabric.wait_frac", "frac", "lower"},
	{"core.fabric.window_parks", "count", "lower"},
	{"core.fabric.reply_freezes", "count", "lower"},
	{"core.fabric.manager_parks", "count", "lower"},
	// kips on cc-h1; cpu.step_s is derived for fused cells
	{"cpu.step_s", "s", "lower"},
	{"cpu.ns_per_instr", "ns/instr", "lower"},
	// simulated counts: repeat exactly on conservative cells
	{"cpu.committed", "count", "higher"},
	{"cpu.cycles", "count", "lower"},
	{"cpu.skipped_cycles", "count", "higher"},
	{"cpu.squashed", "count", "lower"},
	{"cpu.stall.rob", "count", "lower"},
	{"cpu.stall.lsq", "count", "lower"},
	{"cpu.stall.head", "count", "lower"},
	{"cpu.branch_mispredicts", "count", "lower"},
	// ROI-boundary skew of conservative cells against serial (see check)
	{"cpu.roi_committed_diff", "count", "lower"},
	// alloc_mb
	{"cpu.host_allocs_per_kinstr", "allocs/kinstr", "lower"},
	// sim_err_pct on slack-h2 and shards-wire
	{"cache.l1d.misses", "count", "lower"},
	{"cache.l1i.misses", "count", "lower"},
	{"cache.l2.accesses", "count", "lower"},
	{"cache.l2.misses", "count", "lower"},
	{"cache.l2.invs_sent", "count", "lower"},
	{"cache.l2.order_violations", "count", "lower"},
	{"sysemu.time_warps", "count", "lower"},
	// kips on slack-h2
	{"event.inq.depth_max", "events", "lower"},
	{"event.outq.depth_max", "events", "lower"},
	{"core.gq.depth_p50", "events", "lower"},
	// e2e_s on shards-wire
	{"remote.frames_sent", "count", "lower"},
	{"remote.bytes_sent", "B", "lower"},
	{"remote.bytes_per_batch", "B/batch", "lower"},
	{"remote.encode_s", "s", "lower"},
	{"remote.decode_s", "s", "lower"},
	// invocation figures
	{"obs.overhead_frac", "frac", "lower"},
	{"trace.dropped", "count", "lower"},
	{"bench.ledger_coverage", "frac", "higher"},
	{"sim_err_pct", "%", "lower"},
	{"failed_frac", "frac", "lower"},
}

// layerSample is what a traced simulation contributes to its round:
// additive figures by metric name (plus the hidden denominators), the
// queue-depth maxima, and the GQ depth histogram.
type layerSample struct {
	sum          map[string]float64
	inqMax       int64
	outqMax      int64
	gq           metrics.HistSnapshot
	derivedSteps bool // cpu.step_s derived as run − manager busy
}

// sampleLayers reads one traced run's Result and metrics registry.
func sampleLayers(res *core.Result, reg *metrics.Registry, traceDropped int64) layerSample {
	snap := reg.Snapshot()
	s := layerSample{sum: map[string]float64{
		"core.manager_busy_s":       res.ManagerBusy.Seconds(),
		"core.events_processed":     float64(res.EventsProcessed),
		"core.global_advances":      float64(snap.Counters["engine.global.advances"]),
		"core.window_slides":        float64(snap.Counters["engine.window.slides"]),
		"core.quantum_barriers":     float64(snap.Counters["engine.quantum.barriers"]),
		"core.adapt_resizes":        float64(snap.Counters["engine.adapt.resizes"]),
		"core.fabric.window_parks":  float64(snap.Counters["engine.window.parks"]),
		"core.fabric.reply_freezes": float64(snap.Counters["engine.reply.freezes"]),
		"core.fabric.manager_parks": float64(snap.Counters["engine.manager.parks"]),
		"cache.l2.accesses":         float64(res.L2Stats.Accesses),
		"cache.l2.misses":           float64(res.L2Stats.Misses),
		"cache.l2.invs_sent":        float64(res.L2Stats.InvsSent),
		"cache.l2.order_violations": float64(res.L2Stats.OrderViolations),
		"sysemu.time_warps":         float64(res.TimeWarps),
		"trace.dropped":             float64(traceDropped),
		"host_allocs":               float64(res.HostAllocs),
		"roi_committed":             float64(res.Committed),
	}}
	for _, st := range res.CoreStats {
		s.sum["cpu.committed"] += float64(st.Committed)
		s.sum["cpu.cycles"] += float64(st.Cycles)
		s.sum["cpu.skipped_cycles"] += float64(st.Skipped)
		s.sum["cpu.squashed"] += float64(st.Squashed)
		s.sum["cpu.stall.rob"] += float64(st.ROBStall)
		s.sum["cpu.stall.lsq"] += float64(st.LSQStall)
		s.sum["cpu.stall.head"] += float64(st.HeadStall)
		s.sum["cpu.branch_mispredicts"] += float64(st.Mispred)
		s.sum["cache.l1d.misses"] += float64(st.L1D.Misses)
		s.sum["cache.l1i.misses"] += float64(st.L1I.Misses)
	}
	for i := range res.CoreBusy {
		s.sum["core.busy_s"] += res.CoreBusy[i].Seconds()
		s.sum["core.fabric.wait_s"] += res.CoreWait[i].Seconds()
		s.sum["cpu.step_s"] += (res.CoreBusy[i] - res.CoreWait[i]).Seconds()
	}
	// The fused driver leaves CoreBusy and CoreWait at zero: its one
	// goroutine steps every core and runs the manager round, so stepping
	// time is derived from the outside Run* time in the round aggregate.
	s.derivedSteps = s.sum["core.busy_s"] == 0
	if w := res.Wire; w != nil {
		s.sum["remote.frames_sent"] = float64(w.Parent.FramesSent + w.Workers.FramesSent)
		s.sum["remote.bytes_sent"] = float64(w.Parent.BytesSent + w.Workers.BytesSent)
		s.sum["remote.batches_sent"] = float64(w.Parent.BatchesSent + w.Workers.BatchesSent)
		s.sum["remote.encode_s"] = float64(w.Parent.EncodeNS+w.Workers.EncodeNS) / 1e9
		s.sum["remote.decode_s"] = float64(w.Parent.DecodeNS+w.Workers.DecodeNS) / 1e9
	}
	s.inqMax = snap.Histograms["event.inq.depth"].Max
	s.outqMax = snap.Histograms["event.outq.depth"].Max
	s.gq = snap.Histograms["engine.gq.depth"]
	return s
}

// roundLayers folds a traced round's simulations into one value per
// per-layer metric (the invocation figures excluded).
func roundLayers(r *round) map[string]float64 {
	v := map[string]float64{}
	for _, d := range perLayer {
		v[d.Name] = 0 // a layer the round never used reads 0
	}
	v["host.gc_count"] = float64(r.gcCount)
	v["host.gc_pause_s"] = r.gcPause.Seconds()
	var gq metrics.HistSnapshot
	for _, o := range r.sims {
		v["host.collect_s"] += o.phase[phCollect].Seconds()
		v["asm.assemble_s"] += o.phase[phAssemble].Seconds()
		v["core.new_machine_s"] += o.phase[phNewMachine].Seconds()
		v["mem.image_alloc_mb"] += float64(o.imageBytes) / (1 << 20)
		v["workloads.init_s"] += o.phase[phInit].Seconds()
		v["workloads.verify_s"] += o.phase[phVerify].Seconds()
		v["remote.fleet_s"] += o.phase[phFleet].Seconds()
		v["core.run_s"] += o.phase[phRun].Seconds()
		v["cpu.roi_committed_diff"] += float64(o.roiCommittedDiff)
		l := o.layer
		for k, x := range l.sum {
			v[k] += x
		}
		if l.derivedSteps {
			v["cpu.step_s"] += (o.phase[phRun].Seconds() - l.sum["core.manager_busy_s"])
		}
		v["event.inq.depth_max"] = max(v["event.inq.depth_max"], float64(l.inqMax))
		v["event.outq.depth_max"] = max(v["event.outq.depth_max"], float64(l.outqMax))
		for i := range gq.Buckets {
			gq.Buckets[i] += l.gq.Buckets[i]
		}
		gq.Count += l.gq.Count
		gq.Max = max(gq.Max, l.gq.Max)
	}
	v["core.gq.depth_p50"] = float64(gq.Quantile(0.5))
	v["core.fabric.wait_frac"] = ratio(v["core.fabric.wait_s"], v["core.busy_s"])
	v["cpu.ns_per_instr"] = ratio(1e9*v["cpu.step_s"], v["cpu.committed"])
	v["cpu.host_allocs_per_kinstr"] = ratio(v["host_allocs"], v["roi_committed"]/1e3)
	v["remote.bytes_per_batch"] = ratio(v["remote.bytes_sent"], v["remote.batches_sent"])
	return v
}

// ratio is a/b, or 0 when nothing was measured.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
