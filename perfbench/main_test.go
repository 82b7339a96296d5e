package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"apples/internal/mstore"
)

// nameRE is what BENCHMARK.json accepts as a workload or metric name.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %s", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range slices.Concat(endToEnd, perLayer) {
		check("metric", m.name)
	}
}

// TestBenchmarkJSON pins BENCHMARK.json at the checkout root to the
// workloads and metrics this command reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, want name %q why %q", i, got, w.name, w.why)
		}
	}
	compare := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, want %d", len(got), kind, len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], want %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
}

func TestReqGen(t *testing.T) {
	a, b := newReqGen(7, 1, 5, []int{10, 20}), newReqGen(7, 1, 5, []int{10, 20})
	for cycle := range 4 {
		var tenants []int
		for i := range 5 {
			ra, freshA := a.next()
			rb, freshB := b.next()
			if ra != rb || freshA != freshB {
				t.Fatalf("same seed, different requests: %+v/%v vs %+v/%v", ra, freshA, rb, freshB)
			}
			if freshA != (i == 0) {
				t.Fatalf("cycle %d request %d: fresh = %v", cycle, i, freshA)
			}
			if ra.n != 10 && ra.n != 20 {
				t.Fatalf("size %d not drawn from the workload's sizes", ra.n)
			}
			tenants = append(tenants, ra.tenant)
		}
		slices.Sort(tenants)
		if !slices.Equal(tenants, []int{0, 1, 2, 3, 4}) {
			t.Fatalf("cycle %d is not a permutation of the tenants: %v", cycle, tenants)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve-greedy", "--trace", "2"},
		{"--workload", "serve-greedy", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a failure and no output", args, code, out.String())
		}
	}
}

func testConfig(t *testing.T, name string, dur time.Duration, trace bool) config {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{w: w, seed: 3, dur: dur, trace: trace, work: t.TempDir(), conns: 2}
}

// TestWorkloadsSmoke runs every workload briefly, untraced and traced,
// and requires every check to pass and every metric to be reported.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			dur, defs := 2*time.Second, endToEnd // at least one open-loop request per round
			if trace {
				dur, defs = 4*time.Second, perLayer
			}
			res, meta, err := runWorkload(testConfig(t, w.name, dur, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			if _, err := json.Marshal(meta); err != nil {
				t.Errorf("%s trace=%v: metadata: %v", w.name, trace, err)
			}
		}
	}
}

// TestPerturbedReferenceFails shows the decision check is live: once the
// reference decisions are wrong, every served request counts as failed.
func TestPerturbedReferenceFails(t *testing.T) {
	for _, perturb := range []struct {
		name string
		fn   func(d decision) decision
	}{
		{"predicted total", func(d decision) decision {
			d.total = math.Nextafter(d.total, math.Inf(1))
			return d
		}},
		{"host order", func(d decision) decision {
			d.hosts = slices.Clone(d.hosts)
			slices.Reverse(d.hosts)
			return d
		}},
	} {
		cfg := testConfig(t, "serve-greedy", 200*time.Millisecond, false)
		s, err := setup(cfg, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for n, d := range s.serve.refs {
			s.serve.refs[n] = perturb.fn(d)
		}
		ps, err := runPasses(cfg, cfg.dur, s)
		s.serve.stop()
		if err != nil {
			t.Fatal(err)
		}
		p := ps[0]
		served := p.attempted - len(p.epochs) - s.serve.warmAttempted
		if served == 0 || p.failed != served {
			t.Errorf("%s perturbed: %d of %d served requests failed, want all", perturb.name, p.failed, served)
		}
	}
}

// TestTruncatedStoreFails shows the store check is live: an epoch whose
// store loses its tail counts as failed.
func TestTruncatedStoreFails(t *testing.T) {
	cfg := testConfig(t, "serve-greedy", 200*time.Millisecond, false)
	s, err := setup(cfg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.serve.stop()
	s.bed.beforeVerify = func(dir string) error {
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil || len(segs) == 0 {
			return errors.Join(err, errors.New("no segment"))
		}
		live := segs[len(segs)-1]
		fi, err := os.Stat(live)
		if err != nil {
			return err
		}
		return os.Truncate(live, fi.Size()-3)
	}
	ps, err := runPasses(cfg, cfg.dur, s)
	if err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	if len(p.epochs) == 0 || p.failed != len(p.epochs) {
		t.Fatalf("%d of %d truncated epochs failed, want all", p.failed, len(p.epochs))
	}
	for _, e := range p.epochs {
		if want := e.samples; e.records >= want || e.err == nil {
			t.Errorf("epoch restored %d of %d records with err %v", e.records, want, e.err)
		}
	}
}

// TestCorruptSegmentFails shows a damaged sealed segment surfaces as
// mstore.ErrCorruptSegment from the restore.
func TestCorruptSegmentFails(t *testing.T) {
	cfg := testConfig(t, "serve-greedy", time.Second, false)
	bed, err := newSenseBed(cfg.w, cfg.seed, cfg.work, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir, live, res, err := bed.writeEpoch(4000) // more than one segment
	if err != nil {
		t.Fatal(err)
	}
	if res.segments < 2 {
		t.Fatalf("epoch wrote %d segments, want a sealed one", res.segments)
	}
	sealed := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(sealed)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(sealed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = verifyEpoch(dir, live, bed.tp, res.samples, nil)
	if !errors.Is(err, mstore.ErrCorruptSegment) {
		t.Fatalf("verify after corruption: %v, want ErrCorruptSegment", err)
	}
}

// TestIntactEpochVerifies is the positive control for the two tests
// above.
func TestIntactEpochVerifies(t *testing.T) {
	cfg := testConfig(t, "serve-greedy", time.Second, false)
	bed, err := newSenseBed(cfg.w, cfg.seed, cfg.work, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bed.epoch(100)
	if err != nil || res.err != nil {
		t.Fatalf("epoch: %v / check: %v", err, res.err)
	}
	if res.records != res.samples || res.samples != 100*16 {
		t.Fatalf("restored %d of %d records, want 1600", res.records, res.samples)
	}
	if entries, _ := os.ReadDir(cfg.work); len(entries) != 0 {
		t.Fatalf("epoch left %d entries behind", len(entries))
	}
}
