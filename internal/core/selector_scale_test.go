package core

import (
	"testing"
	"time"

	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// newGridAgent builds a dedicated cluster-of-clusters scenario with
// oracle information — the shape the heuristic selectors exist for.
func newGridAgent(t testing.TB, clusters, per int, spec SelectorSpec) *Agent {
	t.Helper()
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{
		Clusters: clusters, PerCluster: per, Seed: 7, Quiet: true,
	})
	agent, err := NewAgent(tp, hat.Jacobi2D(4000, 40), &userspec.Spec{Decomposition: "strip"},
		OracleInformation(tp), WithSelector(spec))
	if err != nil {
		t.Fatal(err)
	}
	return agent
}

// TestGreedySelector2048Hosts is the "past the 2^n wall" smoke test:
// one greedy scheduling round over a 2048-host grid (seed 7, 128×16)
// must consider exactly 96 candidate sets, choose 1842 hosts, and stay
// interactive (< 50ms wall-clock; relaxed under the race detector). The
// round exercises the whole large-pool path — class-collapsed routes,
// the lazy link snapshot, the sampled selector model, and the streaming
// coordinator.
func TestGreedySelector2048Hosts(t *testing.T) {
	agent := newGridAgent(t, 128, 16, SelectorSpec{Kind: SelectorGreedy})
	budget := 50 * time.Millisecond
	if raceEnabled {
		budget = 500 * time.Millisecond
	}
	best := time.Duration(0)
	var sched *Schedule
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		var err error
		sched, err = agent.Schedule(4000)
		if err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); trial == 0 || d < best {
			best = d
		}
		if got := len(sched.Placement.Assignments); got == 0 {
			t.Fatal("empty placement")
		}
	}
	if best > budget {
		t.Errorf("greedy round over 2048 hosts took %v (best of 3), budget %v", best, budget)
	}
	// The round's work is pinned exactly, so a regression in how much the
	// selector enumerates shows on any machine, not only on fast ones.
	if sched.CandidatesConsidered != 96 || len(sched.Hosts) != 1842 {
		t.Errorf("greedy round considered %d sets and chose %d hosts, want 96 and 1842",
			sched.CandidatesConsidered, len(sched.Hosts))
	}
	t.Logf("2048-host greedy round: %v (best of 3), %d candidates", best, sched.CandidatesConsidered)
}

// TestHeuristicSelectors512Hosts checks beam and lpga complete a round
// on a 512-host grid and agree on feasibility — a breadth check that
// every family survives pools far past the exhaustive range.
func TestHeuristicSelectors512Hosts(t *testing.T) {
	for _, spec := range []SelectorSpec{
		{Kind: SelectorBeam, BeamWidth: 8},
		{Kind: SelectorLPGA, Seed: 1},
	} {
		agent := newGridAgent(t, 32, 16, spec)
		sched, err := agent.Schedule(4000)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind, err)
		}
		if len(sched.Placement.Assignments) == 0 {
			t.Fatalf("%s: empty placement", spec.Kind)
		}
	}
}
