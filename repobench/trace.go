package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/local"
)

// span is one timed call at a layer boundary. Spans of one trial or job
// share a group id. A span standing for several back-to-back calls under
// one parent (the engine runs of one solve) has Count > 1 and Busy < End -
// Start: Busy is the time the calls themselves took.
type span struct {
	Name   string `json:"name"`
	Group  int64  `json:"group"`
	Parent int    `json:"parent"` // index of the parent span, -1 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
	Busy   int64  `json:"busy_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index (-1 on a nil recorder).
func (r *recorder) begin(name string, group int64, parent int) int {
	if r == nil {
		return -1
	}
	s := span{Name: name, Group: group, Parent: parent, Start: r.now(), End: -1, Count: 1}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// end closes the span begin returned.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = t
	r.spans[id].Busy = t - r.spans[id].Start
}

// add stores a finished span (derived intervals, aggregated engine runs)
// and returns its index.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// adopt makes span id a child of parent, in the parent's group.
func (r *recorder) adopt(id, parent int) {
	if id < 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].Parent = parent
	r.spans[id].Group = r.spans[parent].Group
}

// at converts a wall-clock instant to the recorder's timeline.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.t0)) }

// durations returns the Busy time, in ms, of every span with the name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spansNamed(name) {
		out = append(out, float64(s.Busy)/1e6)
	}
	return out
}

// spansNamed returns a copy of the finished spans with the name.
func (r *recorder) spansNamed(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its Busy time minus the Busy
// time of its children. Children run on the parent's goroutine, one after
// another, so their Busy times never overlap.
func (r *recorder) selfTimes() []int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]int64, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.Busy
	}
	for _, s := range r.spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.Busy
		}
	}
	return self
}

// selfByName sums self time per span name, in ms, and the list of per-span
// self times for each name.
func (r *recorder) selfByName() map[string][]float64 {
	self := r.selfTimes()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string][]float64{}
	for i, s := range r.spans {
		out[s.Name] = append(out[s.Name], float64(self[i])/1e6)
	}
	return out
}

// layerOf maps a span name to its layer: the text before the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSelfTable prints total self time and span count per layer.
func (r *recorder) writeSelfTable(w io.Writer) {
	byName := r.selfByName()
	type row struct {
		layer string
		ms    float64
		n     int
	}
	acc := map[string]*row{}
	total := 0.0
	for name, xs := range byName {
		l := layerOf(name)
		if acc[l] == nil {
			acc[l] = &row{layer: l}
		}
		for _, x := range xs {
			acc[l].ms += x
			total += x
		}
		acc[l].n += len(xs)
	}
	rows := make([]*row, 0, len(acc))
	for _, rw := range acc {
		rows = append(rows, rw)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(w, "self time by layer (traced calls only)\n%-12s %12s %7s %9s\n", "layer", "self_ms", "share", "spans")
	for _, rw := range rows {
		share := 0.0
		if total > 0 {
			share = rw.ms / total
		}
		fmt.Fprintf(w, "%-12s %12.1f %6.1f%% %9d\n", rw.layer, rw.ms, 100*share, rw.n)
	}
}

// dump writes every span as one JSON object per line.
func (r *recorder) dump(dir, workload string, seed uint64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// finishTrace prints the self-time table and writes the span dump.
func finishTrace(cfg config, rec *recorder, workload string) error {
	rec.writeSelfTable(cfg.out)
	path, err := rec.dump(cfg.tmpDir, workload, cfg.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.out, "spans written to %s\n", path)
	return nil
}

// timingEngine wraps the engine a solver receives: it counts the engine
// runs of one trial and the time spent inside them, and files them as one
// aggregated local.run span under the trial's solve span.
type timingEngine struct {
	inner local.Engine
	agg   *runAgg
}

// runAgg accumulates the engine runs of one trial. A solver calls its
// engine from its own goroutine only, so no lock is needed.
type runAgg struct {
	runs        int64
	busy        time.Duration
	first, last time.Time
}

// Run implements local.Engine.
func (e timingEngine) Run(t *local.Topology, f local.Factory, opts local.Options) (local.Stats, error) {
	start := time.Now()
	st, err := e.inner.Run(t, f, opts)
	end := time.Now()
	a := e.agg
	if a.runs == 0 {
		a.first = start
	}
	a.runs++
	a.busy += end.Sub(start)
	a.last = end
	return st, err
}

// file stores the aggregate as a local.run span under parent.
func (a *runAgg) file(rec *recorder, group int64, parent int) {
	if a.runs == 0 {
		return
	}
	rec.add(span{Name: "local.run", Group: group, Parent: parent,
		Start: rec.at(a.first), End: rec.at(a.last), Count: a.runs, Busy: int64(a.busy)})
}
