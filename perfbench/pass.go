package main

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync/atomic"
	"time"
)

// passResult is one measured pass over a workload's phases.
type passResult struct {
	epochs       []epochResult
	open, closed []phase  // one of each per round
	closedMem    memDelta // whole process, over the closed-loop phases

	attempted, failed int
}

// passRounds is how many rounds a pass interleaves. Each round runs the
// three phases for its share of the round, so a stall of the machine
// lasting a few seconds lands on every phase in proportion instead of
// on whichever phase happened to be running.
const passRounds = 10

// runPasses measures one pass of dur over each stack, in passRounds
// rounds. A round gives each stack in turn its sensing epochs for the
// workload's sensing share of the round, then an open-loop and a
// closed-loop serving phase, so passes over different stacks share the
// machine's slow and fast spells. Each epoch and each request is one
// attempted operation; a failed check is one failed operation.
func runPasses(cfg config, dur time.Duration, stacks ...*stack) ([]*passResult, error) {
	w := cfg.w
	round := dur / passRounds
	senseDur := time.Duration(float64(round) * w.senseShare)
	openDur := time.Duration(float64(round) * w.openShare)
	closedDur := round - senseDur - openDur

	type pass struct {
		s                  *stack
		clients            []*http.Client
		openGen, closedGen *reqGen
		ids                atomic.Uint64
		res                *passResult
	}
	passes := make([]*pass, len(stacks))
	for i, s := range stacks {
		ps := &pass{
			s:         s,
			clients:   make([]*http.Client, cfg.conns),
			openGen:   newReqGen(cfg.seed, 1, w.tenants, w.sizes),
			closedGen: newReqGen(cfg.seed, 2, w.tenants, w.sizes),
			res:       &passResult{attempted: s.serve.warmAttempted, failed: s.serve.warmFailed},
		}
		for c := range ps.clients {
			ps.clients[c] = newClient()
			defer ps.clients[c].CloseIdleConnections()
		}
		passes[i] = ps
	}

	for range passRounds {
		for _, ps := range passes {
			p := ps.res
			end := time.Now().Add(senseDur)
			for {
				e, err := ps.s.bed.epoch(w.epochSweeps)
				if err != nil {
					return nil, err
				}
				p.epochs = append(p.epochs, e)
				p.attempted++
				if e.err != nil {
					p.failed++
					fmt.Fprintf(os.Stderr, "perfbench: sensing epoch check failed: %v\n", e.err)
				}
				if !time.Now().Before(end) {
					break
				}
			}

			runtime.GC() // the sensing phase's garbage is not the service's
			p.open = append(p.open, ps.s.serve.openLoop(ps.clients, ps.openGen, &ps.ids, w.rate, openDur))
			before := readMem()
			p.closed = append(p.closed, ps.s.serve.closedLoop(ps.clients, ps.closedGen, &ps.ids, closedDur))
			p.closedMem = p.closedMem.add(readMem().sub(before))
		}
	}

	out := make([]*passResult, len(passes))
	for i, ps := range passes {
		p := ps.res
		for _, ph := range slices.Concat(p.open, p.closed) {
			p.attempted += ph.sent
			p.failed += ph.sent - ph.ok
		}
		if p.failed > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed their check\n", p.failed, p.attempted)
		}
		out[i] = p
	}
	return out, nil
}

// merged joins phases in order into one.
func merged(phases []phase) phase {
	var m phase
	for _, ph := range phases {
		m.outcomes = append(m.outcomes, ph.outcomes...)
		m.sent += ph.sent
		m.ok += ph.ok
		m.unsent += ph.unsent
		m.wall += ph.wall
	}
	return m
}

// sweeps returns every sensing period's wall seconds.
func (p *passResult) sweeps() []float64 {
	var out []float64
	for _, e := range p.epochs {
		out = append(out, e.sweeps...)
	}
	return out
}

// ingestRate is sensor samples appended per second of sensing, the
// interquartile mean over windows of sensing periods. Every period of a workload
// samples the same number of sensors.
func (p *passResult) ingestRate() float64 {
	perSweep := float64(p.epochs[0].samples) / float64(len(p.epochs[0].sweeps))
	return windowed(p.sweeps(), sweepWindow, func(w []float64) float64 {
		return perSweep * float64(len(w)) / sum(w)
	})
}

// Window sizes for the end-to-end statistics, which are interquartile
// means over windows: open-loop requests in due order (a p95 has 10 samples beyond
// it), and sensing periods for the p50 and the rate (one 512-host
// epoch) and for the p99 (10 samples beyond it).
const (
	roundWindow    = 200
	sweepWindow    = 200
	sweepP99Window = 1000
)

// capacity is checked rounds per second in the closed-loop phases: the
// interquartile mean over the rounds' phases of each phase's rate.
func (p *passResult) capacity() float64 {
	rates := make([]float64, len(p.closed))
	for i, ph := range p.closed {
		rates[i] = float64(ph.ok) / ph.wall.Seconds()
	}
	return iqMean(rates)
}

// primaryOps returns the operation count and the whole-process
// allocation activity of the workload's primary path: closed-loop rounds
// or sensing periods.
func (p *passResult) primaryOps(w workload) (int, memDelta) {
	if w.primary == "sweep" {
		var m memDelta
		for _, e := range p.epochs {
			m = m.add(e.mem)
		}
		return len(p.sweeps()), m
	}
	return merged(p.closed).sent, p.closedMem
}

// primaryRate is the throughput of the primary path.
func (p *passResult) primaryRate(w workload) float64 {
	if w.primary == "sweep" {
		return p.ingestRate()
	}
	return p.capacity()
}

// endToEnd computes the pass's end-to-end metrics except setup_s and
// max_rss_mb, which belong to the whole invocation.
func (p *passResult) endToEnd(w workload) map[string]float64 {
	lat := merged(p.open).latencies()
	sw := p.sweeps()
	restores := make([]float64, len(p.epochs))
	for i, e := range p.epochs {
		restores[i] = e.restoreS
	}
	ops, mem := p.primaryOps(w)
	pct := func(q float64) func([]float64) float64 {
		return func(w []float64) float64 { return percentile(w, q) }
	}
	return map[string]float64{
		"round_p50_ms":         windowed(lat, roundWindow, pct(0.50)) * 1e3,
		"round_p95_ms":         windowed(lat, roundWindow, pct(0.95)) * 1e3,
		"capacity_rps":         p.capacity(),
		"ingest_samples_per_s": p.ingestRate(),
		"sweep_p50_ms":         windowed(sw, sweepWindow, pct(0.50)) * 1e3,
		"sweep_p99_ms":         windowed(sw, sweepP99Window, pct(0.99)) * 1e3,
		"restore_s":            iqMean(restores),
		"alloc_kb_per_op":      float64(mem.bytes) / 1024 / float64(ops),
	}
}

// describe adds the pass's sample counts and the load generator's
// lateness to the run's metadata.
func (p *passResult) describe(meta map[string]any) {
	open, closed := merged(p.open), merged(p.closed)
	late := open.lateness()
	meta["rounds"] = passRounds
	meta["open_loop_requests"] = open.sent
	meta["open_loop_unsent"] = open.unsent
	meta["open_loop_seconds"] = open.wall.Seconds()
	meta["closed_loop_requests"] = closed.sent
	meta["closed_loop_seconds"] = closed.wall.Seconds()
	meta["sensing_epochs"] = len(p.epochs)
	meta["sensing_periods"] = len(p.sweeps())
	meta["loadgen.late_p50_ms"] = finite(percentile(late, 0.50) * 1e3)
	meta["loadgen.late_p99_ms"] = finite(percentile(late, 0.99) * 1e3)
}
