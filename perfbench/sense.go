package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"apples/internal/grid"
	"apples/internal/mstore"
	"apples/internal/nws"
	"apples/internal/obs"
	"apples/internal/sim"
)

// sensePeriod is the NWS sensing period, virtual seconds.
const sensePeriod = 10

// senseBed is a workload's sensing path: the pool's topology on its own
// engine, sensed in epochs, each into a fresh on-disk store.
type senseBed struct {
	eng    *sim.Engine
	tp     *grid.Topology
	dir    string // parent of the epoch stores
	epochs int

	// Traced beds only: the program's own counters and sweep timer.
	met   *obs.Metrics
	timer *obs.StageTimer
	rec   *recorder

	// beforeVerify, when set, runs on each closed epoch store before it
	// is verified; the self-tests use it to damage the store.
	beforeVerify func(dir string) error
}

func newSenseBed(w workload, seed int64, dir string, rec *recorder) (*senseBed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	b := &senseBed{
		eng: eng,
		tp:  grid.ClusterOfClusters(eng, grid.ClusterOptions{Clusters: w.clusters, PerCluster: w.per, Seed: seed}),
		dir: dir,
		rec: rec,
	}
	if rec != nil {
		b.met = obs.NewMetrics()
		b.timer = obs.NewStageTimer(b.met, rec, nil)
		eng.SetMetrics(b.met)
	}
	return b, nil
}

// epochResult is one sensing epoch: the sweeps into a fresh store, then
// the store's read-only restore.
type epochResult struct {
	sweeps  []float64 // wall seconds of each sensing period's RunUntil
	samples int       // sensor samples appended
	mem     memDelta  // whole process, over the sweeps only

	openS, syncS, closeS float64
	segments             int

	restoreS float64 // read-only open + RestoreFromStore
	records  int     // records replayed by the restore
	err      error   // the epoch's check failed

	wallS float64 // the whole epoch, write and verify
}

// epoch runs one sensing epoch of the given number of sweeps and checks
// it: see writeEpoch and verifyEpoch. It first collects the previous
// epoch's garbage, which a long-running sensor would not carry: the
// restore is a start-up cost, not something interleaved with sweeps.
func (b *senseBed) epoch(sweeps int) (epochResult, error) {
	runtime.GC()
	start := time.Now()
	dir, live, res, err := b.writeEpoch(sweeps)
	if err != nil {
		return res, err
	}
	if b.beforeVerify != nil {
		if err := b.beforeVerify(dir); err != nil {
			return res, err
		}
	}
	res.restoreS, res.records, res.err = verifyEpoch(dir, live, b.tp, res.samples, b.rec)
	err = os.RemoveAll(dir)
	res.wallS = time.Since(start).Seconds()
	return res, err
}

// writeEpoch opens a fresh store, senses the whole pool into it for the
// given number of periods with nws.WithStore, then stops sensing and
// syncs and closes the store. It returns the store directory and the
// live service, whose banks verifyEpoch compares with a restored copy.
func (b *senseBed) writeEpoch(sweeps int) (string, *nws.Service, epochResult, error) {
	var res epochResult
	b.epochs++
	dir := filepath.Join(b.dir, "epoch-"+strconv.Itoa(b.epochs))
	if err := os.RemoveAll(dir); err != nil {
		return "", nil, res, err
	}
	var opts []mstore.Option
	if b.met != nil {
		opts = append(opts, mstore.WithMetrics(b.met))
	}
	var st *mstore.Store
	var err error
	res.openS, err = b.timed("mstore.open", func() (err error) {
		st, err = mstore.Open(dir, opts...)
		return err
	})
	if err != nil {
		return "", nil, res, fmt.Errorf("open store: %w", err)
	}

	svcOpts := []nws.ServiceOption{nws.WithStore(st)}
	if b.met != nil {
		svcOpts = append(svcOpts, nws.WithMetrics(b.met), nws.WithStageTiming(b.timer))
	}
	live := nws.NewService(b.eng, sensePeriod, svcOpts...)
	live.WatchTopology(b.tp)
	sensors := live.Sensors()

	res.sweeps = make([]float64, sweeps)
	before := readMem()
	for i := range res.sweeps {
		horizon := b.eng.Now() + sensePeriod
		start := time.Now()
		err := b.eng.RunUntil(horizon)
		end := time.Now()
		if err != nil {
			_ = st.Close()
			return "", nil, res, fmt.Errorf("sense: %w", err)
		}
		res.sweeps[i] = end.Sub(start).Seconds()
		if b.rec != nil {
			b.rec.record(b.rec.nextID(), 0, "sim.run_until", start, end)
		}
	}
	res.mem = readMem().sub(before)
	live.Stop()
	res.samples = sensors * sweeps
	res.segments = st.Segments()

	appendErr := live.StoreErr()
	if appendErr != nil {
		appendErr = fmt.Errorf("append: %w", appendErr)
	}
	var syncErr, closeErr error
	res.syncS, syncErr = b.timed("mstore.sync", st.Sync)
	res.closeS, closeErr = b.timed("mstore.close", st.Close)
	return dir, live, res, errors.Join(appendErr, syncErr, closeErr)
}

// timed runs fn as a recorded span and returns its wall seconds.
func (b *senseBed) timed(name string, fn func() error) (float64, error) {
	start := time.Now()
	if err := b.rec.around(name, fn); err != nil {
		return time.Since(start).Seconds(), fmt.Errorf("%s: %w", name, err)
	}
	return time.Since(start).Seconds(), nil
}

// verifyEpoch reopens the store read-only, restores it into a fresh
// service and checks that the restore replayed exactly want records with
// no corrupt segment, and that every host's availability forecast and
// every link's bandwidth forecast equals the live service's bit for bit.
// It returns the restore time (open plus replay) and the replayed count.
func verifyEpoch(dir string, live *nws.Service, tp *grid.Topology, want int, rec *recorder) (float64, int, error) {
	start := time.Now()
	var ro *mstore.Store
	err := rec.around("mstore.open_ro", func() (err error) {
		ro, err = mstore.Open(dir, mstore.ReadOnly())
		return err
	})
	if err != nil {
		return time.Since(start).Seconds(), 0, fmt.Errorf("reopen store: %w", err)
	}
	defer ro.Close()
	restored := nws.NewService(sim.NewEngine(), sensePeriod)
	var got int
	err = rec.around("nws.restore", func() (err error) {
		got, err = restored.RestoreFromStore(ro)
		return err
	})
	elapsed := time.Since(start).Seconds()
	switch {
	case err != nil:
		return elapsed, got, err
	case got != want:
		return elapsed, got, fmt.Errorf("restored %d records, want %d", got, want)
	}
	for _, h := range tp.Hosts() {
		if !sameForecast(live.AvailabilityForecast, restored.AvailabilityForecast, h.Name) {
			return elapsed, got, fmt.Errorf("host %s: restored availability forecast differs", h.Name)
		}
	}
	for _, l := range tp.Links() {
		if !sameForecast(live.BandwidthForecast, restored.BandwidthForecast, l.Name) {
			return elapsed, got, fmt.Errorf("link %s: restored bandwidth forecast differs", l.Name)
		}
	}
	return elapsed, got, nil
}

func sameForecast(a, b func(string) (float64, bool), name string) bool {
	va, oka := a(name)
	vb, okb := b(name)
	return oka == okb && math.Float64bits(va) == math.Float64bits(vb)
}

// memDelta is the whole process's allocation and GC activity over an
// interval.
type memDelta struct {
	bytes, mallocs, pauseNs uint64
	gcs                     uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{bytes: ms.TotalAlloc, mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs, gcs: ms.NumGC}
}

func (m memDelta) sub(o memDelta) memDelta {
	return memDelta{bytes: m.bytes - o.bytes, mallocs: m.mallocs - o.mallocs, pauseNs: m.pauseNs - o.pauseNs, gcs: m.gcs - o.gcs}
}

func (m memDelta) add(o memDelta) memDelta {
	return memDelta{bytes: m.bytes + o.bytes, mallocs: m.mallocs + o.mallocs, pauseNs: m.pauseNs + o.pauseNs, gcs: m.gcs + o.gcs}
}
