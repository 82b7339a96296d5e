package main

import (
	"slices"
	"time"

	"apples/internal/obs"
)

// serviceCounters are the program's own serving counters at one moment.
type serviceCounters struct {
	rounds, candidates, builds, reused uint64
}

// counters reads the traced stack's serving counters.
func (st *serveStack) counters(w workload) serviceCounters {
	m := st.met
	return serviceCounters{
		rounds:     m.Counter(obs.MetricRounds).Value(),
		candidates: m.Counter(obs.NameWithLabels(obs.MetricCandidates, "selector", string(w.selector))).Value(),
		builds:     m.Counter(obs.MetricSnapshotBuilds).Value(),
		reused:     m.Counter(obs.MetricSnapshotReused).Value(),
	}
}

// layerMetrics computes the per-layer metrics of a traced pass. base is
// the untraced pass of the same invocation; the two give the tracing
// overhead and the load generator's lateness.
//
// Serving is split along each request's spans: the client GET, the
// obshttp handler inside it, the service round inside that (its length
// is the response's elapsed_ms), and the coordinator's stage spans
// inside the rounds. Sensing is split into RunUntil per period, the nws
// sweep inside it and the mstore appends inside that, plus the store's
// open, sync, close, read-only open and the restore.
func layerMetrics(w workload, s *stack, rec *recorder, before serviceCounters, base, p *passResult) (map[string]float64, error) {
	v := make(map[string]float64)
	st, bed := s.serve, s.bed

	// obshttp and core.service, per checked request.
	handlers := make(map[uint64]span)
	for _, h := range rec.byName("obshttp.handler") {
		handlers[h.Parent] = h
	}
	var handlerUS, codecUS, transportUS, elapsedUS []float64
	var clientSum, handlerSum, elapsedSum time.Duration
	rejected := 0
	for _, ph := range slices.Concat(p.open, p.closed) {
		for _, o := range ph.outcomes {
			if o.status == 429 {
				rejected++
			}
			h, found := handlers[o.id]
			if !o.ok || !found {
				continue
			}
			rec.serviceSpan(h, o.elapsed)
			client := o.done.Sub(o.sent)
			handlerUS = append(handlerUS, us(h.dur()))
			codecUS = append(codecUS, us(h.dur()-o.elapsed))
			transportUS = append(transportUS, us(client-h.dur()))
			elapsedUS = append(elapsedUS, us(o.elapsed))
			clientSum += client
			handlerSum += h.dur()
			elapsedSum += o.elapsed
		}
	}
	v["obshttp.handler_p50_us"] = percentile(handlerUS, 0.5)
	v["obshttp.codec_p50_us"] = percentile(codecUS, 0.5)
	v["obshttp.transport_p50_us"] = percentile(transportUS, 0.5)
	v["obshttp.rejected_429"] = float64(rejected)
	v["service.round_p50_us"] = percentile(elapsedUS, 0.5)
	v["service.round_p95_us"] = percentile(elapsedUS, 0.95)
	v["service.queue_depth_max"] = float64(st.depthMax.Load())
	v["service.shared_ratio"] = st.sched.SharedRatio()
	v["service.fairness"] = st.sched.Fairness()

	// core.coord: the stage spans of every served round. The shared
	// snapshot cache builds outside the stage spans, so its builds are
	// priced by standalone stage-timed probe rounds.
	after := st.counters(w)
	rounds := float64(after.rounds - before.rounds)
	builds := after.builds - before.builds
	perBuild, err := st.probeSnapshot(w.sizes[0], 3)
	if err != nil {
		return nil, err
	}
	snapshot := sum(rec.stage(obs.StageSnapshot)) + perBuild.Seconds()*float64(builds)
	coordSum := snapshot
	for _, stage := range []string{obs.StageSelect, obs.StagePlanEstimate, obs.StageReduce} {
		t := sum(rec.stage(stage))
		coordSum += t
		name := "coord." + stage
		v[name+"_ms_total"] = t * 1e3
		v[name+"_ms_per_round"] = t * 1e3 / rounds
	}
	v["coord.snapshot_ms_total"] = snapshot * 1e3
	v["coord.snapshot_ms_per_build"] = perBuild.Seconds() * 1e3
	v["coord.candidates_per_round"] = float64(after.candidates-before.candidates) / rounds
	v["coord.snapshot_builds"] = float64(builds)
	v["coord.snapshot_reused"] = float64(after.reused - before.reused)
	v["service.queue_share"] = (elapsedSum.Seconds() - coordSum) / elapsedSum.Seconds()

	// runtime, over the primary path.
	ops, mem := p.primaryOps(w)
	v["runtime.allocs_per_op"] = float64(mem.mallocs) / float64(ops)
	v["runtime.gc_cycles_per_1k_ops"] = float64(mem.gcs) * 1e3 / float64(ops)
	v["runtime.gc_pause_ms_total"] = float64(mem.pauseNs) / 1e6

	// nws, sim and mstore.
	sweeps := p.sweeps()
	sweepStage := rec.stage(obs.StageSweep)
	var samples, records, segments int
	var restoreS, epochS float64
	var opens, syncs []float64
	for _, e := range p.epochs {
		samples += e.samples
		records += e.records
		segments += e.segments
		restoreS += e.restoreS
		epochS += e.wallS
		opens = append(opens, e.openS)
		syncs = append(syncs, e.syncS)
	}
	v["nws.sweep_p50_us"] = percentile(sweepStage, 0.5) * 1e6
	v["nws.bank_updates"] = float64(bed.met.Counter(obs.MetricBankUpdates).Value())
	v["sim.events_per_sweep"] = float64(bed.met.Counter(obs.MetricSimEvents).Value()) / float64(len(sweeps))
	v["sim.self_ms_total"] = (sum(sweeps) - sum(sweepStage)) * 1e3
	v["mstore.append_ms_total"] = bed.met.Histogram(obs.MetricStoreAppendSeconds, obs.StoreAppendBuckets).Sum() * 1e3
	v["mstore.bytes_per_sample"] = float64(bed.met.Counter(obs.MetricStoreBytes).Value()) / float64(samples)
	v["mstore.segments"] = float64(segments) / float64(len(p.epochs))
	v["mstore.sync_ms"] = median(syncs) * 1e3
	v["mstore.open_ms"] = median(opens) * 1e3
	v["mstore.read_records_per_s"] = float64(records) / restoreS

	// attributed_share: time inside named layers over end-to-end time.
	// For a request that is the obshttp handler span (obshttp, service and
	// coord self times add up to it) over the client's time; for an epoch
	// it is RunUntil plus the store and restore spans over the epoch.
	var storeSpans time.Duration
	for _, name := range []string{"mstore.open", "mstore.sync", "mstore.close", "mstore.open_ro", "nws.restore"} {
		for _, sp := range rec.byName(name) {
			storeSpans += sp.dur()
		}
	}
	named := handlerSum.Seconds() + sum(sweeps) + storeSpans.Seconds()
	v["attributed_share"] = named / (clientSum.Seconds() + epochS)

	v["trace_overhead_pct"] = (base.primaryRate(w)/p.primaryRate(w) - 1) * 100
	late := merged(base.open).lateness()
	v["loadgen.late_p50_ms"] = percentile(late, 0.5) * 1e3
	v["loadgen.late_p99_ms"] = percentile(late, 0.99) * 1e3
	return v, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
