package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Layer names of spans; a layer is a module of the repository, except
// layerBench (the benchmark's own glue) and layerHTTP (net/http between
// the client call and the service handler).
const (
	layerBench   = "bench"
	layerExp     = "exp"
	layerRun     = "run"
	layerApps    = "apps"
	layerHTTP    = "http"
	layerService = "service"
)

// span is one timed call into a layer. Times are offsets from the
// recorder's start so a written trace is small and diffable. Parent is
// the id of the span that caused this one (0 for a root); spans of one
// served request share Req.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req,omitempty"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; nothing is written until the run ends.
// A nil recorder records nothing, which is how the untraced pass runs
// the same code.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() time.Duration { return time.Since(r.t0) }

// begin opens a span and returns its id; 0 on a nil recorder.
func (r *recorder) begin(parent, req int, layer, name string) int {
	if r == nil {
		return 0
	}
	at := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Layer: layer, Name: name, Start: at, End: -1})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	at := r.now()
	r.mu.Lock()
	r.spans[id-1].End = at
	r.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a run the
// worker pool timed and reported through run.Progress).
func (r *recorder) add(parent int, layer, name string, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Layer: layer, Name: name, Start: start, End: end})
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// adoptRuns gives every parentless App.Run span (layer apps, named by
// the app) its run-layer parent: the span of a spec of that app whose
// interval matches it best, by intersection over union. The worker pool
// reports a run through run.Progress only after it ended, so the parent
// does not exist yet when the span around App.Run opens; two runs of one
// app may be in flight at once, and the longer one's span contains the
// shorter's, which is why containment alone cannot decide.
func adoptRuns(spans []span) {
	for i := range spans {
		c := &spans[i]
		if c.Layer != layerApps || c.Parent != 0 {
			continue
		}
		best, bestIoU := -1, 0.0
		for j, p := range spans {
			if p.Layer != layerRun || !strings.HasPrefix(p.Name, c.Name+"/") {
				continue
			}
			inter := min(p.End, c.End) - max(p.Start, c.Start)
			union := max(p.End, c.End) - min(p.Start, c.Start)
			if iou := float64(inter) / float64(union); inter > 0 && iou > bestIoU {
				best, bestIoU = j, iou
			}
		}
		if best >= 0 {
			c.Parent = spans[best].ID
		}
	}
}

// selfTimes gives each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (two workers run at once under one RunInto span), so the covered part
// is the union of their intervals, clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside
// the parent's.
func covered(parent span, children []span) time.Duration {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	var total time.Duration
	edge := parent.Start
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo < edge {
			lo = edge
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += self[s.ID]
	}
	return out
}

// writeSpans writes the trace as one JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
