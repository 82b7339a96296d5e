// Command perfbench is the repository's benchmark. One run drives one
// workload of the whole AppLeS stack and prints its metrics as one JSON
// line:
//
//	perfbench --workload serve-greedy --seed 1 --seconds 36 --trace 0
//
// Every workload runs both user-visible paths on its own
// cluster-of-clusters pool (see workload.go): sensing epochs, each
// sweeping every sensor into a fresh on-disk mstore through
// nws.WithStore and then restoring the store into a fresh service, and
// then /schedule rounds served over loopback HTTP by core.SchedService
// behind obshttp, first open loop at a fixed offered rate and then
// closed loop with one connection per CPU. Every answer is checked: each
// response against a reference decision from a standalone Agent.Schedule,
// and each restored store against the live forecasts, bit for bit.
//
// With --trace 0 the run reports the end-to-end metrics, measured with
// no instrumentation switched on. With --trace 1 an untraced and a traced
// stack take turns for half the time each, and the run reports the
// per-layer metrics: for the traced stack the benchmark records spans
// around its calls into each layer and switches on the program's own
// stage timers and counters through their public options. Spans are
// written to the work directory at exit.
//
// run.sh builds the command from the checkout's sources and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of a run with --trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"round_p50_ms", "ms"},
	{"round_p95_ms", "ms"},
	{"capacity_rps", "1/s"},
	{"ingest_samples_per_s", "1/s"},
	{"sweep_p50_ms", "ms"},
	{"sweep_p99_ms", "ms"},
	{"restore_s", "s"},
	{"alloc_kb_per_op", "KiB"},
	{"max_rss_mb", "MiB"},
}

// perLayer are the metrics of a run with --trace 1.
var perLayer = []metricDef{
	{"obshttp.handler_p50_us", "us"},
	{"obshttp.codec_p50_us", "us"},
	{"obshttp.transport_p50_us", "us"},
	{"obshttp.rejected_429", "count"},
	{"service.round_p50_us", "us"},
	{"service.round_p95_us", "us"},
	{"service.queue_share", "ratio"},
	{"service.queue_depth_max", "count"},
	{"service.shared_ratio", "ratio"},
	{"service.fairness", "ratio"},
	{"coord.snapshot_ms_total", "ms"},
	{"coord.select_ms_total", "ms"},
	{"coord.plan_estimate_ms_total", "ms"},
	{"coord.reduce_ms_total", "ms"},
	{"coord.snapshot_ms_per_build", "ms"},
	{"coord.select_ms_per_round", "ms"},
	{"coord.plan_estimate_ms_per_round", "ms"},
	{"coord.reduce_ms_per_round", "ms"},
	{"coord.candidates_per_round", "count"},
	{"coord.snapshot_builds", "count"},
	{"coord.snapshot_reused", "count"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles_per_1k_ops", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"nws.sweep_p50_us", "us"},
	{"nws.bank_updates", "count"},
	{"sim.events_per_sweep", "count"},
	{"sim.self_ms_total", "ms"},
	{"mstore.append_ms_total", "ms"},
	{"mstore.bytes_per_sample", "B"},
	{"mstore.segments", "count"},
	{"mstore.sync_ms", "ms"},
	{"mstore.open_ms", "ms"},
	{"mstore.read_records_per_s", "1/s"},
	{"attributed_share", "ratio"},
	{"trace_overhead_pct", "%"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
}

// setupRepeats is how many times a --trace 0 run sets up; setup_s is
// the median.
const setupRepeats = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation.
type config struct {
	w     workload
	seed  int64
	dur   time.Duration
	trace bool
	work  string // this run's private directory for stores and traces
	conns int    // sending goroutines and connections: one per CPU
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "seed for the topology and the request sequence")
	seconds := fs.Float64("seconds", 36, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for stores and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err == nil && (*seconds <= 0 || (*trace != 0 && *trace != 1)) {
		err = errors.New("want --seconds > 0 and --trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	cfg := config{
		w: w, seed: *seed, dur: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		work:  filepath.Join(*work, fmt.Sprintf("%s-%d-%d", w.name, *seed, os.Getpid())),
		conns: runtime.NumCPU(),
	}
	res, meta, err := runWorkload(cfg)
	keep := filepath.Join(cfg.work, "stores") // a traced run keeps its spans
	if !cfg.trace {
		keep = cfg.work
	}
	if rmErr := os.RemoveAll(keep); err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"perfbench_meta": meta}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet fills a result's metrics from values keyed by name, with the
// units of defs. A value that is not finite (a percentile that landed on
// a miss) is reported as -1; such a run has failures and is not correct.
func metricSet(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: finite(v), Unit: d.unit}
	}
	return out, nil
}

// stack is one set-up of a workload: the serving stack and the sensing
// bed.
type stack struct {
	serve *serveStack
	bed   *senseBed
}

func setup(cfg config, rec *recorder, k int) (*stack, error) {
	st, err := newServeStack(cfg.w, cfg.seed, rec)
	if err != nil {
		return nil, fmt.Errorf("set up service: %w", err)
	}
	bed, err := newSenseBed(cfg.w, cfg.seed, filepath.Join(cfg.work, "stores", strconv.Itoa(k)), rec)
	if err != nil {
		st.stop()
		return nil, fmt.Errorf("set up sensing: %w", err)
	}
	return &stack{serve: st, bed: bed}, nil
}

// runWorkload performs the invocation: set-up, measured pass(es), and
// the metrics.
func runWorkload(cfg config) (result, map[string]any, error) {
	meta := runMeta(cfg)
	if !cfg.trace {
		var setups []float64
		var s *stack
		for k := range setupRepeats {
			start := time.Now()
			var err error
			if s, err = setup(cfg, nil, k); err != nil {
				return result{}, nil, err
			}
			setups = append(setups, time.Since(start).Seconds())
			if k < setupRepeats-1 {
				s.serve.stop()
			}
		}
		ps, err := runPasses(cfg, cfg.dur, s)
		rss := maxRSSMiB() // before the metrics' own allocations
		s.serve.stop()
		if err != nil {
			return result{}, nil, err
		}
		p := ps[0]
		values := p.endToEnd(cfg.w)
		values["setup_s"] = median(setups)
		values["max_rss_mb"] = rss
		ms, err := metricSet(endToEnd, values)
		if err != nil {
			return result{}, nil, err
		}
		p.describe(meta)
		return result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: ms}, meta, nil
	}

	// The untraced and the traced stack take turns round by round, each
	// for half the run.
	base, err := setup(cfg, nil, 0)
	if err != nil {
		return result{}, nil, err
	}
	defer base.serve.stop()
	rec := newRecorder()
	s, err := setup(cfg, rec, 1)
	if err != nil {
		return result{}, nil, err
	}
	defer s.serve.stop()
	rec.resetStages()
	before := s.serve.counters(cfg.w)
	ps, err := runPasses(cfg, cfg.dur/2, base, s)
	if err != nil {
		return result{}, nil, err
	}
	untraced, traced := ps[0], ps[1]
	values, err := layerMetrics(cfg.w, s, rec, before, untraced, traced)
	if err != nil {
		return result{}, nil, err
	}
	ms, err := metricSet(perLayer, values)
	if err != nil {
		return result{}, nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return result{}, nil, err
	}
	tracePath := filepath.Join(cfg.work, "spans.jsonl")
	if err := rec.write(tracePath); err != nil {
		return result{}, nil, err
	}
	meta["spans"] = tracePath
	traced.describe(meta)
	attempted, failed := untraced.attempted+traced.attempted, untraced.failed+traced.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, meta, nil
}
