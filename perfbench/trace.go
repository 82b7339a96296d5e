package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"apples/internal/obs"
)

// reqHeader carries the client span's ID to the server-side handler
// span, so both sides of one /schedule request share an identifier.
const reqHeader = "X-Perfbench-Req"

// span is one timed call into a layer's public API, recorded by the
// benchmark around the call. Times are nanoseconds since the recorder
// started. Derived spans (the service round, whose duration is the
// response's elapsed_ms) are marked as such.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until exit. It is also
// the obs.Tracer behind the program's own stage timers, keeping every
// EvSpan duration per stage, so stage percentiles are exact order
// statistics rather than histogram interpolations. A nil recorder means
// tracing is off; every method is then a no-op.
type recorder struct {
	t0  time.Time
	ids atomic.Uint64

	mu     sync.Mutex
	spans  []span
	stages map[string][]float64 // stage -> span durations, seconds
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), stages: make(map[string][]float64)}
}

// nextID hands out span and request IDs; they are never 0.
func (r *recorder) nextID() uint64 { return r.ids.Add(1) }

// record adds a finished span timed from start to end.
func (r *recorder) record(id, parent uint64, name string, start, end time.Time) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0))}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// around times fn as a span named name.
func (r *recorder) around(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	start := time.Now()
	err := fn()
	r.record(r.nextID(), 0, name, start, time.Now())
	return err
}

// Emit implements obs.Tracer for the stage timers handed to the program.
func (r *recorder) Emit(e obs.Event) {
	if e.Type != obs.EvSpan {
		return
	}
	r.mu.Lock()
	r.stages[e.Stage] = append(r.stages[e.Stage], e.Seconds)
	r.mu.Unlock()
}

// stage returns a copy of one stage's recorded durations, seconds.
func (r *recorder) stage(name string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.stages[name]...)
}

// resetStages forgets the stage durations recorded so far (the set-up's
// warm rounds), keeping the spans.
func (r *recorder) resetStages() {
	r.mu.Lock()
	clear(r.stages)
	r.mu.Unlock()
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// wrap times every request the handler serves as an "obshttp.handler"
// span whose parent is the client span named in reqHeader.
func (r *recorder) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		parent, _ := strconv.ParseUint(req.Header.Get(reqHeader), 10, 64) // 0 when absent
		r.record(r.nextID(), parent, "obshttp.handler", start, end)
	})
}

// serviceSpan records the service round inside a handler span, derived
// from the response's elapsed_ms and ending where the handler ended.
func (r *recorder) serviceSpan(handler span, elapsed time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: r.nextID(), Parent: handler.ID, Name: "core.service.round",
		Start: handler.End - int64(elapsed), End: handler.End, Derived: true})
	r.mu.Unlock()
}

// write stores the spans as JSON lines, one span per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
