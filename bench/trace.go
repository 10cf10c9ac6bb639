package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one op share op_id; parent
// is the index of the causing span in the trace file, -1 for a root.
type span struct {
	Workload string `json:"workload"`
	OpID     int    `json:"op_id"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced twin pass runs the same code.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	// shift re-bases the spans that follow into another timeline: twin
	// calls are timed in process and placed inside the HTTP span of the
	// same op on the daemon pass.
	shift int64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index, -1 on a nil tracer.
func (t *tracer) begin(opID int, layer, name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Workload: t.workload, OpID: opID, Layer: layer,
		Name: name, Parent: parent, StartNs: t.now() + t.shift})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNs = t.now() + t.shift
}

// rebase makes the spans that follow start where span parent starts.
func (t *tracer) rebase(parent int) {
	if t == nil {
		return
	}
	t.shift = t.spans[parent].StartNs - t.now()
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its child spans cover (overlapping children count once, and
// only where they lie inside the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(spans[k].StartNs, upTo), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}
