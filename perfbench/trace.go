package main

// In-memory span recording for the traced run. Spans are opened and closed
// by the benchmark's own code around calls into each layer; nothing inside
// the program is instrumented. At the end the spans are written as Chrome
// trace-event JSON (loads in Perfetto and chrome://tracing) and folded into
// a per-layer table of count, busy time and self time.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the enclosing span's id
// (0 for none); Op is the operation the call belongs to; Lane is the
// goroutine lane it ran on (client index, worker index, or 0).
type span struct {
	ID, Parent, Op, Lane int
	Name                 string
	Start, End           time.Duration
}

// tracer collects spans. A nil *tracer records nothing, so untraced code
// paths call the same methods at the cost of a nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id.
func (t *tracer) start(name string, parent, op, lane int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes a span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were measured by the caller.
func (t *tracer) add(name string, parent, op, lane int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Lane: lane, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// closed returns a copy of every finished span.
func (t *tracer) closed() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Name         string
	Count        int
	Busy, Self   time.Duration
	SelfOfBusy   float64 // self / busy
	ShareOfTotal float64 // busy / wall covered by root spans
}

// layerTable folds spans by name. A span's self time is its duration minus
// the union of its children's intervals inside it.
func layerTable(spans []span) []layerRow {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*layerRow)
	var rootWall time.Duration
	for _, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			rootWall += d
		}
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Busy += d
		r.Self += d - covered(s, children[s.ID])
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		if r.Busy > 0 {
			r.SelfOfBusy = float64(r.Self) / float64(r.Busy)
		}
		if rootWall > 0 {
			r.ShareOfTotal = float64(r.Busy) / float64(rootWall)
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// printLayerTable renders the per-layer table.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s %7s %7s\n", "span", "count", "busy ms", "self ms", "self%", "share%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f %6.1f%% %6.1f%%\n",
			r.Name, r.Count, ms(r.Busy), ms(r.Self), 100*r.SelfOfBusy, 100*r.ShareOfTotal)
	}
}

// chromeEvent is one Chrome trace-event "complete" event.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes spans as Chrome trace-event JSON.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, len(spans))
	for i, s := range spans {
		cat := s.Name
		if dot := strings.IndexByte(cat, '.'); dot > 0 {
			cat = cat[:dot]
		}
		evs[i] = chromeEvent{
			Name: s.Name, Cat: cat, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: s.Lane,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "op": s.Op},
		}
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{evs, "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
