package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed interval of the traced run. Spans are opened only
// by the benchmark's own code, around its calls into a layer's public
// functions; nothing inside the program under test records one.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // "<layer>.<call>"
	Op     int    `json:"op"`     // spans of one traced operation share it
	// Reported marks a child whose duration the program itself reported
	// (a RunStats stage time) rather than one the benchmark clocked; it
	// is laid out from its parent's start so self time still adds up.
	Reported bool    `json:"reported,omitempty"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

func (s span) dur() time.Duration {
	return time.Duration((s.EndUS - s.StartUS) * float64(time.Microsecond))
}

// recorder keeps every span of one workload's traced run in memory and
// writes them out once, at exit. It is driven from a single goroutine:
// open spans form a stack, and a new span's parent is the top of it.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
	open     []int // indexes into spans
	op       int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) sinceUS(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Microsecond)
}

// nextOp starts a new traced operation; spans opened until the next call
// carry its id.
func (r *recorder) nextOp() { r.op++ }

func (r *recorder) parentID() int {
	if len(r.open) == 0 {
		return 0
	}
	return r.spans[r.open[len(r.open)-1]].ID
}

// openSpan is a span that has begun and not yet ended.
type openSpan struct {
	r   *recorder
	idx int
}

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) openSpan {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: r.parentID(), Name: name, Op: r.op,
		StartUS: r.sinceUS(time.Now()),
	})
	i := len(r.spans) - 1
	r.open = append(r.open, i)
	return openSpan{r: r, idx: i}
}

// end closes the span, which must be the innermost open one, and returns
// its duration.
func (s openSpan) end() time.Duration {
	r := s.r
	r.open = r.open[:len(r.open)-1]
	r.spans[s.idx].EndUS = r.sinceUS(time.Now())
	return r.spans[s.idx].dur()
}

// report adds durations the program itself reported for the work inside
// this span as its children, laid end to end from its start.
func (s openSpan) report(stages ...stage) {
	r := s.r
	parent := r.spans[s.idx]
	at := parent.StartUS
	for _, st := range stages {
		us := float64(st.d) / float64(time.Microsecond)
		r.spans = append(r.spans, span{
			ID: len(r.spans) + 1, Parent: parent.ID, Name: st.name, Op: parent.Op,
			Reported: true, StartUS: at, EndUS: at + us,
		})
		at += us
	}
}

// time runs fn inside a span and returns how long it took.
func (r *recorder) time(name string, fn func()) time.Duration {
	s := r.begin(name)
	fn()
	return s.end()
}

// stage is one program-reported duration handed to report.
type stage struct {
	name string
	d    time.Duration
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (r *recorder) selfTimes() map[string]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range r.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range r.spans {
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// layerOf is the module a span belongs to: the name up to the first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
	// SelfMS totals self time per layer over the whole traced run.
	SelfMS map[string]float64 `json:"self_ms_by_layer"`
}

// flush writes the trace to dir/trace_<workload>.json.
func (r *recorder) flush(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{Workload: r.workload, Spans: r.spans, SelfMS: make(map[string]float64)}
	for name, d := range r.selfTimes() {
		tf.SelfMS[layerOf(name)] += ms(d)
	}
	b, err := json.MarshalIndent(&tf, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+r.workload+".json")
	return path, os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
