package main

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apples/internal/core"
	"apples/internal/grid"
	"apples/internal/hat"
	"apples/internal/nws"
	"apples/internal/obs"
	"apples/internal/obs/obshttp"
	"apples/internal/sim"
	"apples/internal/userspec"
)

// decision is the part of a /schedule answer the benchmark checks.
type decision struct {
	hosts []string
	total float64
}

// matches reports whether a response carries exactly the reference
// decision. The JSON float round trip is exact, so == is the check.
func (d decision) matches(hosts []string, total float64) bool {
	return slices.Equal(d.hosts, hosts) && d.total == total
}

// serveStack is one workload's scheduling service, listening on loopback.
type serveStack struct {
	sched *core.SchedService
	url   string
	stop  func()
	refs  map[int]decision // reference decision per problem size

	// warmAttempted and warmFailed count the set-up's checked rounds.
	warmAttempted, warmFailed int

	// Traced stacks only: the program's own counters, and a standalone
	// stage-timed agent that prices one snapshot build.
	met      *obs.Metrics
	probe    *core.Agent
	probeMet *obs.Metrics
	rec      *recorder
	depthMax atomic.Int64
}

// newServeStack builds the pool, warms one NWS source on it for 30
// sensing periods, computes the reference decision for every problem
// size with a standalone Agent.Schedule, registers the tenants and
// starts the HTTP service. With a recorder, the program's stage timing
// and metrics are switched on through their public options and the
// handler is wrapped to record spans.
func newServeStack(w workload, seed int64, rec *recorder) (*serveStack, error) {
	eng := sim.NewEngine()
	tp := grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: w.clusters, PerCluster: w.per, Seed: seed})
	src := nws.NewService(eng, 10)
	src.WatchTopology(tp)
	if err := eng.RunUntil(300); err != nil {
		return nil, fmt.Errorf("warm NWS: %w", err)
	}
	src.Stop()
	info := core.NWSInformation(src, tp)
	newAgent := func(opts ...core.AgentOption) (*core.Agent, error) {
		opts = append([]core.AgentOption{core.WithSelector(core.SelectorSpec{Kind: w.selector})}, opts...)
		return core.NewAgent(tp, hat.Jacobi2D(w.sizes[0], 40), &userspec.Spec{Decomposition: "strip"}, info, opts...)
	}

	ref, err := newAgent()
	if err != nil {
		return nil, err
	}
	st := &serveStack{refs: make(map[int]decision), rec: rec}
	for _, n := range w.sizes {
		s, err := ref.Schedule(n)
		if err != nil {
			return nil, fmt.Errorf("reference decision n=%d: %w", n, err)
		}
		st.refs[n] = decision{hosts: s.Hosts, total: s.PredictedTotal}
	}

	var agentOpts []core.AgentOption
	var svcOpts []core.ServiceOption
	if rec != nil {
		st.met = obs.NewMetrics()
		agentOpts = []core.AgentOption{core.WithStageTiming(obs.NewStageTimer(st.met, rec, nil)), core.WithMetrics(st.met)}
		svcOpts = []core.ServiceOption{core.WithServiceMetrics(st.met)}
		st.probeMet = obs.NewMetrics()
		if st.probe, err = newAgent(core.WithStageTiming(obs.NewStageTimer(st.probeMet, nil, nil))); err != nil {
			return nil, err
		}
	}
	st.sched = core.NewSchedService(svcOpts...)
	tenants := make([]*core.Tenant, w.tenants)
	for k := range tenants {
		a, err := newAgent(agentOpts...)
		if err == nil {
			tenants[k], err = st.sched.Register(tenantID(k), a)
		}
		if err != nil {
			st.sched.Close()
			return nil, err
		}
	}

	if rec == nil {
		srv, err := obshttp.ServeService("127.0.0.1:0", st.sched, nil, nil)
		if err != nil {
			st.sched.Close()
			return nil, err
		}
		st.url = srv.URL()
		st.stop = func() { _ = srv.Close(); st.sched.Close() }
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.sched.Close()
			return nil, err
		}
		srv := &http.Server{
			Handler:           rec.wrap(obshttp.ServiceHandler(st.sched, nil, nil)),
			ReadHeaderTimeout: 10 * time.Second,
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(ln) }()
		st.url = "http://" + ln.Addr().String()
		st.stop = func() { _ = srv.Close(); <-done; st.sched.Close() }
	}

	// One checked round per tenant, so tenant-side lazy set-up is paid
	// before anything is timed.
	n := w.sizes[0]
	for _, t := range tenants {
		st.warmAttempted++
		s, err := t.Schedule(n)
		if err != nil || !st.refs[n].matches(s.Hosts, s.PredictedTotal) {
			st.warmFailed++
		}
	}
	return st, nil
}

func tenantID(k int) string { return "t" + strconv.Itoa(k) }

// request is one /schedule call of the generated sequence.
type request struct{ tenant, n int }

// reqGen yields the seeded request sequence: full tenant cycles, each a
// fresh permutation of the tenants, with every request's problem size
// drawn from the workload's sizes. It is safe for concurrent use.
type reqGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	tenants int
	sizes   []int
	perm    []int
}

func newReqGen(seed int64, stream uint64, tenants int, sizes []int) *reqGen {
	return &reqGen{rng: rand.New(rand.NewPCG(uint64(seed), stream)), tenants: tenants, sizes: sizes}
}

// next returns the next request, and whether it starts a tenant cycle.
func (g *reqGen) next() (request, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	fresh := len(g.perm) == 0
	if fresh {
		g.perm = g.rng.Perm(g.tenants)
	}
	t := g.perm[0]
	g.perm = g.perm[1:]
	return request{tenant: t, n: g.sizes[g.rng.IntN(len(g.sizes))]}, fresh
}

// outcome is one sent request as the client saw it.
type outcome struct {
	id              uint64
	due, sent, done time.Time
	status          int
	ok              bool          // 200 with exactly the reference decision
	elapsed         time.Duration // the response's elapsed_ms
}

// phase is one serving phase: how many requests were sent and passed
// their check, and the requests themselves. A closed-loop phase keeps
// its requests only when traced, so that the benchmark's own memory does
// not grow with the program's throughput in a run that reports
// max_rss_mb.
type phase struct {
	outcomes []outcome
	sent, ok int
	wall     time.Duration
	// unsent counts open-loop requests never dispatched because the
	// generator fell more than one phase length behind; they count as
	// latency misses.
	unsent int
}

// latencies returns each request's time from due to checked response,
// seconds, in due order; failed and unsent requests are +Inf, a miss at
// any limit.
func (p phase) latencies() []float64 {
	out := make([]float64, 0, len(p.outcomes)+p.unsent)
	for _, o := range p.outcomes {
		if o.ok {
			out = append(out, o.done.Sub(o.due).Seconds())
		} else {
			out = append(out, inf)
		}
	}
	for range p.unsent {
		out = append(out, inf)
	}
	return out
}

// lateness returns how late each request was sent after its due time,
// seconds.
func (p phase) lateness() []float64 {
	out := make([]float64, len(p.outcomes))
	for i, o := range p.outcomes {
		out[i] = o.sent.Sub(o.due).Seconds()
	}
	return out
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// send issues one request on the client's connection and checks the
// answer against the reference decision.
func (st *serveStack) send(c *http.Client, id uint64, due time.Time, r request) outcome {
	o := outcome{id: id, due: due}
	if st.rec != nil { // keep the deepest admission queue any sender saw
		d := int64(st.sched.QueueDepth())
		for cur := st.depthMax.Load(); d > cur && !st.depthMax.CompareAndSwap(cur, d); cur = st.depthMax.Load() {
		}
	}
	url := st.url + "/schedule?tenant=" + tenantID(r.tenant) + "&n=" + strconv.Itoa(r.n)
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		o.sent, o.done = time.Now(), time.Now()
		return o
	}
	if st.rec != nil {
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	o.sent = time.Now()
	resp, err := c.Do(req)
	if err == nil {
		o.status = resp.StatusCode
		var body obshttp.ScheduleResponse
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&body) == nil {
			o.ok = st.refs[r.n].matches(body.Hosts, body.PredictedTotal)
			o.elapsed = time.Duration(body.ElapsedMS * float64(time.Millisecond))
		}
		_, _ = io.Copy(io.Discard, resp.Body) // drain, so the connection is reused
		_ = resp.Body.Close()
	}
	o.done = time.Now()
	st.rec.record(id, 0, "loadgen.get", o.sent, o.done)
	return o
}

// openLoop offers rate requests per second for dur, one sending
// goroutine per client, each client holding one connection. Request i is
// due at start + i/rate whether or not earlier ones have finished; a
// request that waits for a free sender is sent late, and its latency
// still runs from the due time. The dispatcher gives up once it is a
// whole phase length behind.
func (st *serveStack) openLoop(clients []*http.Client, gen *reqGen, ids *atomic.Uint64, rate float64, dur time.Duration) phase {
	type job struct {
		id  uint64
		due time.Time
		r   request
	}
	jobs := make(chan job)
	per := make([][]outcome, len(clients))
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				per[c] = append(per[c], st.send(cl, j.id, j.due, j.r))
			}
		}()
	}
	total := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	start := time.Now()
	giveUp := start.Add(2 * dur)
	var p phase
	for i := range total {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if time.Now().After(giveUp) {
			p.unsent = total - i
			break
		}
		r, fresh := gen.next()
		if fresh {
			st.sched.InvalidateSnapshots()
		}
		jobs <- job{id: ids.Add(1), due: due, r: r}
	}
	close(jobs)
	wg.Wait()
	p.wall = time.Since(start)
	p.outcomes = inOrder(per)
	p.sent = len(p.outcomes)
	for _, o := range p.outcomes {
		if o.ok {
			p.ok++
		}
	}
	return p
}

// closedLoop runs the clients for dur, each sending its next request as
// soon as the previous answer arrives.
func (st *serveStack) closedLoop(clients []*http.Client, gen *reqGen, ids *atomic.Uint64, dur time.Duration) phase {
	per := make([][]outcome, len(clients))
	sent := make([]int, len(clients))
	ok := make([]int, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(end) {
				r, fresh := gen.next()
				if fresh {
					st.sched.InvalidateSnapshots()
				}
				o := st.send(cl, ids.Add(1), time.Now(), r)
				sent[c]++
				if o.ok {
					ok[c]++
				}
				if st.rec != nil {
					per[c] = append(per[c], o)
				}
			}
		}()
	}
	wg.Wait()
	p := phase{outcomes: inOrder(per), wall: time.Since(start)}
	for c := range clients {
		p.sent += sent[c]
		p.ok += ok[c]
	}
	return p
}

// inOrder merges the senders' outcomes in the order the requests were
// generated.
func inOrder(per [][]outcome) []outcome {
	out := slices.Concat(per...)
	slices.SortFunc(out, func(a, b outcome) int { return cmp.Compare(a.id, b.id) })
	return out
}

// probeSnapshot prices one snapshot build on this pool: the mean of the
// snapshot stage over standalone stage-timed rounds. Served rounds build
// their snapshots in the service's shared cache, outside the
// coordinator's stage spans, so this is how the benchmark attributes
// them. Traced stacks only.
func (st *serveStack) probeSnapshot(n, rounds int) (time.Duration, error) {
	h := st.probeMet.Histogram(obs.StageMetricName(obs.StageSnapshot), nil)
	c0, s0 := h.Count(), h.Sum()
	for range rounds {
		if _, err := st.probe.Schedule(n); err != nil {
			return 0, err
		}
	}
	if h.Count() == c0 {
		return 0, errors.New("probe rounds timed no snapshot stage")
	}
	return time.Duration((h.Sum() - s0) / float64(h.Count()-c0) * float64(time.Second)), nil
}
