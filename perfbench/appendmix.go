package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"charles"
)

// appendInterval is the writer's open-loop period: 2 batches/s.
const appendInterval = 500 * time.Millisecond

// pollInterval is how often the reader polls a re-advise job, well
// under the median re-advise.
const pollInterval = 2 * time.Millisecond

// hitPause is the reader's pause after a cached answer, as a dashboard
// that found nothing new waits before its next read. Without it the
// reader spins on sub-millisecond hits, and the garbage and CPU those
// thousands of hits cost the server swing with every change in how
// much time the re-advises leave over.
const hitPause = 5 * time.Millisecond

// writer is append_mix's open-loop generator.
type writer struct {
	c       *client
	seed    int64
	rec     *recorder
	sent    []batch
	lat     latencies
	late    latencies
	failure []string
}

func (w *writer) run(start, deadline time.Time) {
	loop := openLoop{start: start, interval: appendInterval}
	for k := 0; ; k++ {
		due := loop.due(k)
		if !due.Before(deadline) {
			return
		}
		// The batch and its body are built before the due time, so
		// the client's own encoding is not charged to the server.
		b := makeBatch(w.seed, k)
		req, err := json.Marshal(map[string]any{"rows": b.json})
		if err != nil {
			w.failure = append(w.failure, fmt.Sprintf("append batch %d: %v", k, err))
			continue
		}
		time.Sleep(time.Until(due))
		sp := w.rec.start(w.rec.newOp(), 0, "append_mix.append")
		hop := sp.child("http.post_append")
		sent := time.Now()
		code, _, body, err := w.c.do(http.MethodPost, "/append", "application/json", req)
		done := time.Now()
		hop.end()
		sp.end()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d: %s", code, body)
		}
		if err != nil {
			w.failure = append(w.failure, fmt.Sprintf("append batch %d: %v", k, err))
			continue
		}
		w.sent = append(w.sent, b)
		lat, late := loop.sample(k, sent, done)
		w.lat.add(lat)
		w.late.add(late)
	}
}

// reader is append_mix's closed-loop dashboard client.
type reader struct {
	c        *client
	ctxs     []string
	rec      *recorder
	traced   bool
	hit      latencies
	readvise latencies
	polls    int
	// Traced runs trace every other pass over the contexts; the hits
	// of the two halves give trace.overhead_frac.
	tracedHit, untracedHit latencies
	stages                 map[string]*latencies
	failure                []string
	ops                    int
}

func (r *reader) run(deadline time.Time) {
	for i := 0; time.Now().Before(deadline); i++ {
		ctx := r.ctxs[i%len(r.ctxs)]
		var rec *recorder
		if r.traced && (i/len(r.ctxs))%2 == 0 {
			rec = r.rec
		}
		sp := rec.start(rec.newOp(), 0, "append_mix.advise")
		t0 := time.Now()
		res, err := adviseOver(r.c, ctx, pollInterval, sp)
		d := time.Since(t0)
		sp.end()
		r.ops++
		if err != nil {
			r.failure = append(r.failure, err.Error())
			continue
		}
		if res.cached {
			r.hit.add(d)
			if rec != nil {
				r.tracedHit.add(d)
			} else if r.traced {
				r.untracedHit.add(d)
			}
			time.Sleep(hitPause)
			continue
		}
		r.readvise.add(d)
		r.polls += res.polls
		for _, st := range res.trace {
			if r.stages[st.Name] == nil {
				r.stages[st.Name] = &latencies{}
			}
			r.stages[st.Name].add(time.Duration(st.DurationNS))
		}
	}
}

func runAppendMix(e *env) (*report, error) {
	rep := newReport("append_mix")
	e.progress("append_mix: generating %d VOC rows", tableRows)
	tab := charles.GenerateVOC(tableRows, tableSeed(e.seed))
	csv := filepath.Join(e.work, "voc.csv")
	if err := charles.WriteCSV(csv, tab); err != nil {
		return nil, err
	}
	if err := syncFile(csv); err != nil {
		return nil, err
	}
	ctxs := dashboardContexts(e.seed, tab)
	tab = nil
	runtime.GC()
	debug.FreeOSMemory()
	e.progress("append_mix: starting charles-server -csv (%d set-ups)", setupRepeats)
	s, setup, err := medianSetup(e, "-csv", csv)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	admin := newClient(s.base)
	// Warm-up: every dashboard context's cold advise happens once,
	// untimed, so the window measures re-advises and hits.
	e.progress("append_mix: warming %d dashboard contexts", len(ctxs))
	for _, ctx := range ctxs {
		if _, err := adviseOver(admin, ctx, pollInterval, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	a, err := snapServer(s, admin)
	if err != nil {
		return nil, err
	}
	w := &writer{c: newClient(s.base), seed: e.seed, rec: e.rec}
	r := &reader{c: newClient(s.base), ctxs: ctxs, rec: e.rec, traced: e.traced, stages: map[string]*latencies{}}
	e.progress("append_mix: measuring %v", e.seconds)
	rss := startRSSSampler(s.pid(), 10*time.Millisecond)
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); w.run(start, deadline) }()
	go func() { defer wg.Done(); r.run(deadline) }()
	wg.Wait()
	elapsed := time.Since(start)
	b, err := snapServer(s, admin)
	if err != nil {
		return nil, err
	}
	peak := rss.finish()
	hwm, err := s.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.note("peak_rss_mb: peak of 10 ms VmRSS samples of charles-server while serving; its lifetime VmHWM, load included, is %.1f MB", hwm)
	rep.attempted = r.ops + w.lat.n() + len(w.failure)
	for _, f := range append(w.failure, r.failure...) {
		rep.fail("%s", f)
	}
	ops := float64(rep.attempted - rep.failed)
	// ops_per_s counts the ops that carry work: appends and the
	// re-advises they cause. Hits fill whatever time is left between
	// batches, so their count swings with every shift in re-advise
	// time and would drown the throughput figure in noise.
	work := float64(w.lat.n() + r.readvise.n())
	pct, tail := r.readvise.tail()
	rep.endToEnd("setup_s", setup, "s")
	rep.endToEnd("peak_rss_mb", peak, "MB")
	rep.endToEnd("ops_per_s", work/elapsed.Seconds(), "1/s")
	rep.endToEnd("op_p50_ms", r.readvise.p50(), "ms")
	rep.endToEnd("op_tail_ms", tail, "ms")
	rep.endToEnd("step_p50_ms", w.lat.p50(), "ms")
	rep.note("op = re-advise, submit → poll sees done (readvise_p50_ms/readvise_p%d_ms); step = 1,000-row append from its due time (append_p50_ms)", pct)
	rep.latency("readvise", &r.readvise)
	rep.latency("append (from due time)", &w.lat)
	rep.latency("hit (200 cached)", &r.hit)
	rep.latency("append lateness", &w.late)
	rep.note("writer: %d batches of %d rows at %v intervals; reader: %d ops over %d dashboard contexts (%d re-advises, %d hits)",
		w.lat.n(), batchRows, appendInterval, r.ops, len(ctxs), r.readvise.n(), r.hit.n())
	rep.note("ops_per_s counts appends and re-advises (%.0f in %.1f s); all ops including hits: %.1f/s", work, elapsed.Seconds(), ops/elapsed.Seconds())
	rep.note("setup_s: median of %d charles-server -csv spawns to /healthz 200 (%d rows)", setupRepeats, tableRows)

	// Answer checks: after the run every dashboard context must equal
	// an in-process advise over the same CSV plus the same batches,
	// appended in order.
	e.progress("append_mix: rebuilding the reference from the CSV and %d batches", len(w.sent))
	refTab, err := charles.LoadCSV(csv)
	if err != nil {
		return nil, err
	}
	var app latencies
	for _, bt := range w.sent {
		t0 := time.Now()
		if err := refTab.AppendRows(bt.rows...); err != nil {
			return nil, err
		}
		app.add(time.Since(t0))
	}
	ref := newRefAdvisor(refTab, 0)
	defer ref.close()
	for _, ctx := range ctxs {
		rep.attempted++
		got, err := adviseOver(admin, ctx, pollInterval, nil)
		if err != nil {
			rep.fail("check %s: %v", ctx, err)
			continue
		}
		want, _, err := ref.advise(ctx)
		if err != nil {
			return nil, err
		}
		if err := sameAnswers(got.answers, answersOf(want)); err != nil {
			rep.fail("check %s: %v", ctx, err)
		}
	}
	rep.note("answer checks: %d dashboard contexts against a reference of the CSV plus %d batches", len(ctxs), len(w.sent))

	if !e.traced {
		return rep, nil
	}
	servedLayers(rep, a, b, ops, w.c, r.c)
	jobsLayer(rep, a, b)
	rep.perLayer("colfile.minor_faults_per_op", ratio{b.cpu.minflt - a.cpu.minflt, ops}.value(), "count")
	rep.perLayer("server.cpu_ms_per_op", ratio{ms(b.cpu.cpu - a.cpu.cpu), ops}.value(), "ms")
	rep.perLayer("core.advise_ms", stageP50(r.stages, "run"), "ms")
	rep.perLayer("core.initial_cuts_ms", stageP50(r.stages, "initial_cuts"), "ms")
	rep.perLayer("core.indep_pairs_ms", stageP50(r.stages, "indep_pairs"), "ms")
	rep.perLayer("core.compose_ms", stageP50(r.stages, "compose"), "ms")
	rep.note("core.*: medians of the server's job trace blocks over %d re-advises", r.readvise.n())
	rep.perLayer("sdl.parse_ms", ref.parse.p50(), "ms")
	rep.perLayer("ui.render_ms", ref.render.p50(), "ms")
	rep.note("sdl.*, ui.*: the in-process reference advises of the answer checks (n=%d)", ref.parse.n())
	rep.perLayer("go.alloc_mb_per_op", 0, "MB")
	rep.perLayer("go.gc_cycles_per_op", 0, "count")
	rep.perLayer("loadgen.late_ms", w.late.p50(), "ms")
	rep.perLayer("loadgen.polls_per_readvise", ratio{float64(r.polls), float64(r.readvise.n())}.value(), "count")
	overhead := ratio{r.tracedHit.p50() - r.untracedHit.p50(), r.untracedHit.p50()}
	rep.perLayer("trace.overhead_frac", overhead.value(), "ratio")
	rep.note("trace.overhead_frac: hit p50 on traced passes %.3f ms (n=%d) vs untraced %.3f ms (n=%d)",
		r.tracedHit.p50(), r.tracedHit.n(), r.untracedHit.p50(), r.untracedHit.n())
	chc, err := colfileProbe(e, rep, refTab)
	if err != nil {
		return nil, err
	}
	return rep, ladderProbe(e, rep, chc, refTab, w.sent)
}
