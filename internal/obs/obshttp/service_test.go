package obshttp

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/obs"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// newTestService assembles a 2-tenant service over the warmed SDSC/PCL
// testbed, with metrics and a ring attached.
func newTestService(t *testing.T) (*core.SchedService, *obs.Metrics, *obs.RingTracer) {
	t.Helper()
	eng := sim.NewEngine()
	tp := grid.SDSCPCL(eng, grid.TestbedOptions{Seed: 4})
	svc := nws.NewService(eng, 10)
	svc.WatchTopology(tp)
	if err := eng.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	info := core.NWSInformation(svc, tp)

	m := obs.NewMetrics()
	ring := obs.NewRingTracer(64)
	sched := core.NewSchedService(core.WithServiceMetrics(m), core.WithServiceTracer(ring))
	t.Cleanup(sched.Close)
	for _, id := range []string{"t0", "t1"} {
		a, err := core.NewAgent(tp, hat.Jacobi2D(400, 5), &userspec.Spec{}, info)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sched.Register(id, a); err != nil {
			t.Fatal(err)
		}
	}
	return sched, m, ring
}

func TestServiceHandlerSchedule(t *testing.T) {
	sched, m, ring := newTestService(t)
	h := ServiceHandler(sched, m, ring)

	res, body := get(t, h, "/schedule?tenant=t0&n=400")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/schedule status = %d: %s", res.StatusCode, body)
	}
	var sr ScheduleResponse
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatalf("/schedule is not JSON: %v\n%s", err, body)
	}
	if sr.Tenant != "t0" || sr.Seq != 1 || len(sr.Hosts) == 0 || sr.PredictedTotal <= 0 {
		t.Fatalf("/schedule response = %+v", sr)
	}

	// Second round for the same tenant: seq advances, snapshot shared.
	_, body = get(t, h, "/schedule?tenant=t0&n=400")
	if err := json.Unmarshal([]byte(body), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != 2 || !sr.SharedSnapshot {
		t.Fatalf("second round: seq=%d shared=%v, want 2/true", sr.Seq, sr.SharedSnapshot)
	}

	// Error surface.
	if res, _ := get(t, h, "/schedule?tenant=nobody&n=400"); res.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", res.StatusCode)
	}
	if res, _ := get(t, h, "/schedule?n=400"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing tenant status = %d, want 400", res.StatusCode)
	}
	if res, _ := get(t, h, "/schedule?tenant=t0&n=bogus"); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad n status = %d, want 400", res.StatusCode)
	}

	// The observability endpoints ride along, now with tenant series.
	res, body = get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", res.StatusCode)
	}
	for _, want := range []string{
		`sched_tenant_rounds_total{tenant="t0"} 2`,
		"sched_snapshot_shared_ratio",
		"sched_queue_depth",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServiceHandlerNoFeasibleHosts: a tenant whose user specification
// filters out every host gets 422 from /schedule.
func TestServiceHandlerNoFeasibleHosts(t *testing.T) {
	tp := grid.SDSCPCL(sim.NewEngine(), grid.TestbedOptions{Seed: 4, Quiet: true})
	sched := core.NewSchedService()
	t.Cleanup(sched.Close)
	a, err := core.NewAgent(tp, hat.Jacobi2D(400, 5),
		&userspec.Spec{Accessible: []string{"nope"}}, core.OracleInformation(tp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Register("blocked", a); err != nil {
		t.Fatal(err)
	}
	h := ServiceHandler(sched, nil, nil)
	res, body := get(t, h, "/schedule?tenant=blocked&n=400")
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("/schedule status = %d, want 422: %s", res.StatusCode, body)
	}
	if !strings.Contains(body, core.ErrNoFeasibleHosts.Error()) {
		t.Fatalf("/schedule body = %q, want the no-feasible-hosts error", body)
	}
}

func TestServiceHandlerTenants(t *testing.T) {
	sched, m, ring := newTestService(t)
	h := ServiceHandler(sched, m, ring)
	if _, body := get(t, h, "/schedule?tenant=t1&n=400"); !strings.Contains(body, `"tenant":"t1"`) {
		t.Fatalf("warmup round: %s", body)
	}

	res, body := get(t, h, "/tenants")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/tenants status = %d", res.StatusCode)
	}
	var tr struct {
		Tenants     []core.TenantStatus `json:"tenants"`
		QueueDepth  int                 `json:"queue_depth"`
		SharedRatio float64             `json:"shared_ratio"`
		Fairness    float64             `json:"fairness"`
	}
	if err := json.Unmarshal([]byte(body), &tr); err != nil {
		t.Fatalf("/tenants is not JSON: %v\n%s", err, body)
	}
	if len(tr.Tenants) != 2 || tr.Tenants[0].ID != "t0" || tr.Tenants[1].ID != "t1" {
		t.Fatalf("/tenants = %+v", tr.Tenants)
	}
	if tr.Tenants[1].Rounds != 1 || tr.Tenants[1].Kind != "agent" {
		t.Fatalf("t1 status = %+v", tr.Tenants[1])
	}
	if tr.QueueDepth != 0 {
		t.Fatalf("queue depth = %d", tr.QueueDepth)
	}
}

// TestServeServiceRoundTrip exercises the real listener end to end:
// schedule over TCP, then confirm the round landed in the ring trace.
func TestServeServiceRoundTrip(t *testing.T) {
	sched, m, ring := newTestService(t)
	s, err := ServeService("127.0.0.1:0", sched, m, ring)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := http.Get(s.URL() + "/schedule?tenant=t0&n=400")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("live /schedule status = %d", res.StatusCode)
	}
	found := false
	for _, e := range ring.Recent(0) {
		if e.Type == obs.EvTenantRound && e.Tenant == "t0" {
			found = true
		}
	}
	if !found {
		t.Fatal("no tenant_round event in the ring after a live round")
	}
}
