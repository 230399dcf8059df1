package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of
// one operation share op; parent is 0 for the operation's root span.
type span struct {
	Op     int64         `json:"op"`
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// layer is the span name's prefix up to the first dot: "colfile.open"
// belongs to colfile.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs execute the same code.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	next  int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	r      *recorder
	op, id int64
	parent int64
	name   string
	start  time.Time
}

// newOp allocates an operation id (0 on a nil recorder).
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// start opens a span of op under parent (0 for the op's root).
func (r *recorder) start(op, parent int64, name string) *openSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &openSpan{r: r, op: op, id: id, parent: parent, name: name, start: time.Now()}
}

// child opens a span nested under s.
func (s *openSpan) child(name string) *openSpan {
	if s == nil {
		return nil
	}
	return s.r.start(s.op, s.id, name)
}

// end records s as ending now.
func (s *openSpan) end() { s.endAt(time.Now()) }

// endAt records s as ending at t.
func (s *openSpan) endAt(t time.Time) {
	if s == nil {
		return
	}
	s.r.add(span{Op: s.op, ID: s.id, Parent: s.parent, Name: s.name, Start: s.start.Sub(s.r.t0), End: t.Sub(s.r.t0)})
}

// addDerived records a span measured elsewhere, such as a core stage
// reported by obs.Trace, which keeps totals but no timestamps.
func (s *openSpan) addDerived(name string, start time.Time, d time.Duration) {
	if s == nil {
		return
	}
	c := s.r.start(s.op, s.id, name)
	c.start = start
	c.endAt(start.Add(d))
}

func (r *recorder) add(sp span) {
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is the self time of one layer, summed over its spans.
type layerTime struct {
	Layer string
	Spans int
	Self  time.Duration
}

// selfTimes returns each layer's self time: a span's duration minus
// the part of it its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int64][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	by := make(map[string]*layerTime)
	for _, sp := range spans {
		lt := by[sp.layer()]
		if lt == nil {
			lt = &layerTime{Layer: sp.layer()}
			by[sp.layer()] = lt
		}
		lt.Spans++
		lt.Self += (sp.End - sp.Start) - covered(sp, children[sp.ID])
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// printLayers writes the per-layer self-time summary, each share
// with its base.
func printLayers(w io.Writer, r *recorder) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	var total time.Duration
	lts := selfTimes(spans)
	for _, lt := range lts {
		total += lt.Self
	}
	fmt.Fprintf(w, "# self time by layer over %d spans (share of %.1f ms traced):\n", len(spans), ms(total))
	for _, lt := range lts {
		fmt.Fprintf(w, "#   %-10s %10.1f ms  %5.1f%%  spans=%d\n", lt.Layer, ms(lt.Self), 100*ratio{float64(lt.Self), float64(total)}.value(), lt.Spans)
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
