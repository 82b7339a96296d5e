package main

import (
	"fmt"

	"apples/internal/core"
)

// workload is one deployment of the whole stack the benchmark drives:
// a cluster-of-clusters pool whose sensors write an mstore measurement
// history, and a multi-tenant /schedule service answering over loopback
// HTTP from a warmed NWS source on the same pool. Workloads differ in
// pool size, tenant mix, selector, offered rate and in how the run's
// time splits between the sensing path and the serving path.
type workload struct {
	name string
	why  string

	clusters, per int // pool shape: clusters × hosts per cluster

	tenants  int
	selector core.SelectorKind
	sizes    []int   // problem sizes n drawn per request
	rate     float64 // open-loop offered rate, requests per second

	// epochSweeps is how many sensing periods go into one fresh store
	// before it is synced, closed, reopened read-only and restored.
	epochSweeps int

	// senseShare and openShare are the fractions of the run spent on
	// sensing epochs and on the open-loop serving phase; the closed-loop
	// serving phase gets the rest.
	senseShare, openShare float64

	// primary names the path whose operations alloc_kb_per_op and the
	// runtime.* metrics are normalised by: "round" or "sweep".
	primary string
}

// workloads is the benchmark's workload table. Rates and shares are
// constants: they are never derived from the machine the run is on. Each
// rate is about a fifth of the workload's closed-loop capacity on a
// 2-vCPU VM, so that a machine running twice as slow for a while raises
// open-loop latency in proportion rather than pushing the service to
// saturation; each open-loop share yields at least 200 requests per run,
// enough for a p95 with 10 samples beyond it.
//
// There is no separate 512-host serving workload: sense-store's serving
// share already runs that configuration, and three workloads leave room
// for longer, steadier runs in the benchmark's time budget.
var workloads = []workload{
	{
		name:     "serve-greedy",
		why:      "cheap greedy rounds for 64 tenants on 12 hosts, so obshttp, admission/dispatch and runtime dominate: service and HTTP changes show here, solver changes mostly do not",
		clusters: 3, per: 4,
		tenants: 64, selector: core.SelectorGreedy, sizes: []int{400, 600, 800, 1000},
		rate:        1000,
		epochSweeps: 2000,
		senseShare:  0.2, openShare: 0.5,
		primary: "round",
	},
	{
		name:     "serve-exhaustive",
		why:      "exhaustive 4095-set rounds on 12 hosts spend their time in core.coord plan_estimate and allocation with HTTP under 1%: the target of the fused-solver work",
		clusters: 3, per: 4,
		tenants: 8, selector: core.SelectorExhaustive, sizes: []int{2000},
		rate:        10,
		epochSweeps: 2000,
		senseShare:  0.2, openShare: 0.6,
		primary: "round",
	},
	{
		name:     "sense-store",
		why:      "545 sensors on 512 hosts append each sweep to an on-disk mstore, then restore it; its serving share runs greedy n=4000 rounds on the same pool, the >64-host selector and planner code",
		clusters: 32, per: 16,
		tenants: 16, selector: core.SelectorGreedy, sizes: []int{4000},
		rate:        20,
		epochSweeps: 200,
		senseShare:  0.45, openShare: 0.3,
		primary: "sweep",
	},
}

// findWorkload looks a workload up by name.
func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
