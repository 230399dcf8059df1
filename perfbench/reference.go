package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"charles"
	"charles/internal/jobs"
	"charles/internal/obs"
)

// refAdvisor is the in-process reference every answer check compares
// against: a memory-backed table advised through a one-worker jobs
// queue, whose job traces and histograms also give the traced run
// its in-process jobs, core, sdl and ui timings.
type refAdvisor struct {
	adv    *charles.Advisor
	mgr    *jobs.Manager
	met    *jobs.Metrics
	n      int
	parse  latencies
	render latencies
	stages map[string]*latencies
}

func newRefAdvisor(tab *charles.Table, workers int) *refAdvisor {
	cfg := charles.DefaultConfig()
	cfg.Workers = workers
	met := &jobs.Metrics{
		QueueWait: obs.NewHistogram(obs.DefaultLatencyBuckets()),
		Run:       obs.NewHistogram(obs.DefaultLatencyBuckets()),
	}
	return &refAdvisor{
		adv:    charles.NewAdvisor(tab, cfg),
		mgr:    jobs.NewManager(jobs.Options{Workers: 1, Metrics: met}),
		met:    met,
		stages: map[string]*latencies{},
	}
}

// advise parses, advises (as a job) and renders one context.
func (r *refAdvisor) advise(sdl string) (*charles.Result, string, error) {
	t0 := time.Now()
	q, err := r.adv.ParseContext(sdl)
	if err != nil {
		return nil, "", err
	}
	r.parse.add(time.Since(t0))
	r.n++
	j, err := r.mgr.Submit("ref-"+strconv.Itoa(r.n), func(ctx context.Context, p charles.ProgressFunc) (*charles.Result, error) {
		return r.adv.AdviseCtx(ctx, q, p)
	})
	if err != nil {
		return nil, "", err
	}
	<-j.Done()
	snap := j.Snapshot()
	if snap.Err != nil || snap.Result == nil {
		return nil, "", fmt.Errorf("reference advise %s: state %s: %v", sdl, snap.State, snap.Err)
	}
	r.addStages(snap.Trace)
	t1 := time.Now()
	out := charles.RenderRanked(snap.Result, 0)
	r.render.add(time.Since(t1))
	return snap.Result, out, nil
}

func (r *refAdvisor) addStages(tr []obs.StageSummary) {
	for _, st := range tr {
		l := r.stages[st.Name]
		if l == nil {
			l = &latencies{}
			r.stages[st.Name] = l
		}
		l.add(time.Duration(st.DurationNS))
		r.addStages(st.Children)
	}
}

// stage is the median of one job-trace stage in ms (0 if absent).
func (r *refAdvisor) stage(name string) float64 { return stageP50(r.stages, name) }

func stageP50(stages map[string]*latencies, name string) float64 {
	if l := stages[name]; l != nil && l.n() > 0 {
		return l.p50()
	}
	return 0
}

func (r *refAdvisor) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r.mgr.Shutdown(ctx) // idle: nothing to drain
}

// histMeanMS is a histogram's mean observation in ms.
func histMeanMS(h *obs.Histogram) float64 {
	if h.Count() == 0 {
		return 0
	}
	return h.Sum() / float64(h.Count()) * 1000
}

// answer is one ranked segmentation as both the server's JSON and
// the reference print it, for comparison.
type answer struct {
	Attrs  []string
	SDL    []string
	Counts []int
	Score  float64
}

func answersOf(res *charles.Result) []answer {
	out := make([]answer, len(res.Segmentations))
	for i, sc := range res.Segmentations {
		a := answer{Attrs: sc.Seg.CutAttrs, Counts: sc.Seg.Counts, Score: sc.Score}
		for _, q := range sc.Seg.Queries {
			a.SDL = append(a.SDL, q.String())
		}
		out[i] = a
	}
	return out
}

// sameAnswers compares two ranked lists, naming the first difference.
func sameAnswers(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if fmt.Sprint(g.Attrs) != fmt.Sprint(w.Attrs) || fmt.Sprint(g.SDL) != fmt.Sprint(w.SDL) ||
			fmt.Sprint(g.Counts) != fmt.Sprint(w.Counts) || g.Score != w.Score {
			return fmt.Errorf("rank %d: got %v %v %v score %v, want %v %v %v score %v",
				i+1, g.Attrs, g.SDL, g.Counts, g.Score, w.Attrs, w.SDL, w.Counts, w.Score)
		}
	}
	return nil
}
