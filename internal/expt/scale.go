package expt

import (
	"fmt"
	"strings"
	"time"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/jacobi"
	"apples/internal/nws"
	"apples/internal/partition"
	"apples/internal/react"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// ScaleRow is one pool size of the scalability experiment.
type ScaleRow struct {
	Hosts      int
	Candidates int     // resource sets the selector produced
	PlanMillis float64 // real (wall-clock) scheduling time
	AppLeS     float64 // measured execution, seconds (virtual)
	Blocked    float64 // uniform blocked baseline on the same pool
}

// Speedup returns Blocked/AppLeS.
func (r ScaleRow) Speedup() float64 { return r.Blocked / r.AppLeS }

// Scalability measures the agent beyond the paper's 8-host testbed: pool
// sizes up to 64 hosts across a cluster-of-clusters metacomputer. Past 12
// hosts the Resource Selector abandons exhaustive subsets for
// desirability prefixes; this experiment verifies the schedules stay good
// (vs the blocked baseline) while planning cost stays interactive.
func Scalability(sizes [][2]int, n int, seed int64) ([]ScaleRow, error) {
	if len(sizes) == 0 {
		sizes = [][2]int{{2, 4}, {4, 4}, {8, 4}, {8, 8}}
	}
	if n == 0 {
		n = 2000
	}
	var rows []ScaleRow
	for _, cp := range sizes {
		clusters, per := cp[0], cp[1]
		build := func() (*sim.Engine, *grid.Topology, *nws.Service, error) {
			eng := sim.NewEngine()
			eng.SetEventLimit(200_000_000)
			tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
				Clusters: clusters, PerCluster: per, Seed: seed,
			})
			svc := nws.NewService(eng, 10)
			svc.WatchTopology(tp)
			if err := eng.RunUntil(600); err != nil {
				return nil, nil, nil, err
			}
			svc.Stop()
			return eng, tp, svc, nil
		}

		// AppLeS run.
		_, tp, svc, err := build()
		if err != nil {
			return nil, err
		}
		tpl := hat.Jacobi2D(n, 40)
		agent, err := core.NewAgent(tp, tpl, &userspec.Spec{Decomposition: "strip"},
			core.NWSInformation(svc, tp))
		if err != nil {
			return nil, err
		}
		wall := time.Now()
		sched, err := agent.Schedule(n)
		if err != nil {
			return nil, fmt.Errorf("scale %dx%d: %w", clusters, per, err)
		}
		planMS := float64(time.Since(wall).Microseconds()) / 1000
		res, err := jacobi.Run(tp, sched.Placement, jacobi.Config{Iterations: 40})
		if err != nil {
			return nil, err
		}

		// Blocked baseline on a fresh same-seed pool.
		_, tp2, _, err := build()
		if err != nil {
			return nil, err
		}
		blockedP, err := partition.Blocked(n, tp2.HostNames(), 8)
		if err != nil {
			return nil, err
		}
		blocked, err := jacobi.Run(tp2, blockedP, jacobi.Config{Iterations: 40})
		if err != nil {
			return nil, err
		}

		rows = append(rows, ScaleRow{
			Hosts:      clusters * per,
			Candidates: sched.CandidatesConsidered,
			PlanMillis: planMS,
			AppLeS:     res.Time,
			Blocked:    blocked.Time,
		})
	}
	return rows, nil
}

// NewScaleAgent builds a warmed scheduling scenario for latency
// measurements and benchmarks: a cluster-of-clusters metacomputer
// (`clusters` sites of `per` hosts) with ambient load, an NWS warmed for
// 300 virtual seconds, and an AppLeS for an n x n Jacobi2D configured
// with the given evaluation options.
func NewScaleAgent(clusters, per, n int, seed int64, opts ...core.AgentOption) (*core.Agent, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed,
	})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	svc.Stop()
	return core.NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		core.NWSInformation(svc, tp), opts...)
}

// NewGridAgent builds a dedicated (quiet, oracle-informed)
// cluster-of-clusters scheduling scenario. It exists for the selector
// benchmarks and smoke tests on grid-scale pools, where NWS warmup
// would dominate setup cost without changing what is measured.
func NewGridAgent(clusters, per, n int, seed int64, opts ...core.AgentOption) (*core.Agent, error) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed, Quiet: true,
	})
	return core.NewAgent(tp, hat.Jacobi2D(n, 40), &userspec.Spec{Decomposition: "strip"},
		core.OracleInformation(tp), opts...)
}

// NewScalePipelineAgent builds a warmed pipeline-scheduling scenario for
// latency measurements and benchmarks: the same cluster-of-clusters
// metacomputer as NewScaleAgent, but driving the pipeline blueprint with
// a 3D-REACT-shaped template (every host runs the generic implementation,
// so all singles and ordered pairs are feasible mappings — a pool of h
// hosts enumerates h + h·(h−1) candidates).
func NewScalePipelineAgent(clusters, per, surfaceFunctions int, seed int64, opts ...core.AgentOption) (*core.PipelineAgent, error) {
	eng := sim.NewEngine()
	eng.SetEventLimit(200_000_000)
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: seed,
	})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, err
	}
	svc.Stop()
	return core.NewPipelineAgent(tp, hat.React3D(surfaceFunctions), &userspec.Spec{},
		core.NWSInformation(svc, tp), react.Options{}, opts...)
}

// PipelineLatencyRow is one pool size of the pipeline scheduler-latency
// experiment.
type PipelineLatencyRow struct {
	Hosts    int
	Mappings int     // singles + ordered pairs enumerated
	SeqMS    float64 // snapshot, sequential
	ParMS    float64 // snapshot, GOMAXPROCS worker pool
}

// PipelineSchedLatency measures the pipeline blueprint's decision latency
// across pool sizes, sequential vs parallel — the speedup the shared
// Coordinator hands the PipelineAgent for free. Best of three rounds.
func PipelineSchedLatency(sizes [][2]int, surfaceFunctions int, seed int64) ([]PipelineLatencyRow, error) {
	if len(sizes) == 0 {
		sizes = [][2]int{{2, 4}, {4, 4}, {8, 4}, {8, 8}}
	}
	if surfaceFunctions == 0 {
		surfaceFunctions = 600
	}
	modes := []struct {
		set  func(*PipelineLatencyRow, float64)
		opts []core.AgentOption
	}{
		{func(r *PipelineLatencyRow, v float64) { r.SeqMS = v },
			[]core.AgentOption{core.WithParallelism(1)}},
		{func(r *PipelineLatencyRow, v float64) { r.ParMS = v },
			[]core.AgentOption{core.WithParallelism(0)}},
	}
	var rows []PipelineLatencyRow
	for _, cp := range sizes {
		row := PipelineLatencyRow{Hosts: cp[0] * cp[1]}
		for _, m := range modes {
			agent, err := NewScalePipelineAgent(cp[0], cp[1], surfaceFunctions, seed, m.opts...)
			if err != nil {
				return nil, err
			}
			best := 0.0
			for trial := 0; trial < 3; trial++ {
				wall := time.Now()
				sched, err := agent.Schedule()
				if err != nil {
					return nil, fmt.Errorf("pipeline sched latency %dx%d: %w", cp[0], cp[1], err)
				}
				row.Mappings = sched.CandidatesConsidered
				if ms := float64(time.Since(wall).Microseconds()) / 1000; trial == 0 || ms < best {
					best = ms
				}
			}
			m.set(&row, best)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPipelineSchedLatency renders the pipeline scheduler-latency
// experiment.
func FormatPipelineSchedLatency(rows []PipelineLatencyRow) string {
	var sb strings.Builder
	sb.WriteString("Pipeline scheduler decision latency — one round (ms wall-clock)\n")
	sb.WriteString("  hosts  mappings  sequential(ms)  parallel(ms)  speedup\n")
	for _, r := range rows {
		speedup := 0.0
		if r.ParMS > 0 {
			speedup = r.SeqMS / r.ParMS
		}
		fmt.Fprintf(&sb, "  %5d  %8d  %14.1f  %12.1f  %6.2fx\n",
			r.Hosts, r.Mappings, r.SeqMS, r.ParMS, speedup)
	}
	return sb.String()
}

// LatencyRow is one pool size of the scheduler-latency experiment: the
// wall-clock cost of one scheduling round under each evaluation mode.
type LatencyRow struct {
	Hosts      int
	Candidates int
	SeqMS      float64 // snapshot, sequential
	ParMS      float64 // snapshot, GOMAXPROCS worker pool
	PruneMS    float64 // snapshot, worker pool + best-so-far pruning
}

// SchedLatency measures scheduler decision latency — the quantity that
// must stay interactive for the agent to be worth consulting — across
// pool sizes and evaluation modes. Each mode schedules the same warmed
// scenario; the reported time is the best of three rounds.
func SchedLatency(sizes [][2]int, n int, seed int64) ([]LatencyRow, error) {
	if len(sizes) == 0 {
		sizes = [][2]int{{2, 4}, {3, 4}, {8, 4}, {8, 8}}
	}
	if n == 0 {
		n = 2000
	}
	modes := []struct {
		set  func(*LatencyRow, float64)
		opts []core.AgentOption
	}{
		{func(r *LatencyRow, v float64) { r.SeqMS = v },
			[]core.AgentOption{core.WithParallelism(1)}},
		{func(r *LatencyRow, v float64) { r.ParMS = v },
			[]core.AgentOption{core.WithParallelism(0)}},
		{func(r *LatencyRow, v float64) { r.PruneMS = v },
			[]core.AgentOption{core.WithParallelism(0), core.WithPruning(true)}},
	}
	var rows []LatencyRow
	for _, cp := range sizes {
		row := LatencyRow{Hosts: cp[0] * cp[1]}
		for _, m := range modes {
			agent, err := NewScaleAgent(cp[0], cp[1], n, seed, m.opts...)
			if err != nil {
				return nil, err
			}
			best := 0.0
			for trial := 0; trial < 3; trial++ {
				wall := time.Now()
				sched, err := agent.Schedule(n)
				if err != nil {
					return nil, fmt.Errorf("sched latency %dx%d: %w", cp[0], cp[1], err)
				}
				row.Candidates = sched.CandidatesConsidered
				if ms := float64(time.Since(wall).Microseconds()) / 1000; trial == 0 || ms < best {
					best = ms
				}
			}
			m.set(&row, best)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSchedLatency renders the scheduler-latency experiment.
func FormatSchedLatency(rows []LatencyRow) string {
	var sb strings.Builder
	sb.WriteString("Scheduler decision latency — one round, by evaluation mode (ms wall-clock)\n")
	sb.WriteString("  hosts  candidates  snapshot(ms)  parallel(ms)  +pruning(ms)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d  %10d  %12.1f  %12.1f  %12.1f\n",
			r.Hosts, r.Candidates, r.SeqMS, r.ParMS, r.PruneMS)
	}
	return sb.String()
}

// FormatScalability renders the scalability experiment.
func FormatScalability(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Scalability — cluster-of-clusters pools (Jacobi2D, 40 iterations)\n")
	sb.WriteString("  hosts  candidates  plan(ms)   AppLeS(s)  Blocked(s)  Blocked/AppLeS\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %5d  %10d  %8.1f  %10.2f  %10.2f  %13.2fx\n",
			r.Hosts, r.Candidates, r.PlanMillis, r.AppLeS, r.Blocked, r.Speedup())
	}
	return sb.String()
}
