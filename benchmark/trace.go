package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Start and End
// are nanoseconds since the tracer was made. Spans of one op share Op;
// Parent is the id of the span that caused this one (-1 for an op's
// root). A synthetic span was not timed around a call: its length comes
// from a counter the public API returns (compile time inside a Call)
// and only its duration, not its position, means anything.
type span struct {
	ID        int    `json:"id"`
	Parent    int    `json:"parent"`
	Op        int    `json:"op"`
	Name      string `json:"name"`
	Layer     string `json:"layer"`
	Start     int64  `json:"start_ns"`
	End       int64  `json:"end_ns"`
	Synthetic bool   `json:"synthetic,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so the untraced and traced passes run the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// synthetic adds a child of parent that starts where parent starts and
// lasts d.
func (t *tracer) synthetic(name, layer string, parent, op int, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start, End: start + int64(d), Synthetic: true})
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	self := make([]int64, len(spans))
	for _, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[s.ID] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerSelf sums self time by layer over every span; an op's root span
// carries the layer "unattributed", so whatever its children leave
// uncovered lands in that row and the rows sum to the total op time.
func layerSelf(spans []span) map[string]int64 {
	out := map[string]int64{}
	for id, ns := range selfTimes(spans) {
		out[spans[id].Layer] += ns
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
