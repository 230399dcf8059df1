package main

import (
	"fmt"
	"html"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"charles"
)

// zoomBranching is how many segments of the opened (top-ranked)
// answer a walk may zoom into at each level. It bounds the walk tree
// to 2 + 4 + 8 paths per root, 168 over the twelve roots, so the
// tree is fully visited a few seconds into a run. Every run then
// sees the same number and depth mix of first visits, and every
// visited context fits the server's 256-entry result LRU, so each
// revisit is a cache hit whatever the timing.
const zoomBranching = 2

var (
	pageError   = regexp.MustCompile(`<div class="error">([^<]*)</div>`)
	pageContext = regexp.MustCompile(`name="context" value="([^"]*)"`)
	pageZoom    = regexp.MustCompile(`href="/zoom\?open=(\d+)&(?:amp;)?segment=(\d+)"`)
)

// page is what an analyst reads off one Figure 1 page: the context,
// the opened answer and how many of its segments can be explored. A
// leaf is a context too narrow to segment any further, which Charles
// reports on the page; the walk ends there.
type page struct {
	context  string
	open     int
	segments int
	leaf     bool
}

// leafError is how the page reports a context with nothing to cut.
const leafError = "can be cut"

func parsePage(body []byte) (page, error) {
	if !strings.Contains(string(body), "Proposed segmentations") {
		return page{}, fmt.Errorf("not a Charles page")
	}
	if m := pageError.FindSubmatch(body); m != nil {
		msg := html.UnescapeString(string(m[1]))
		if strings.Contains(msg, leafError) {
			return page{leaf: true}, nil
		}
		return page{}, fmt.Errorf("page reports an error: %s", msg)
	}
	m := pageContext.FindSubmatch(body)
	if m == nil {
		return page{}, fmt.Errorf("page has no context")
	}
	p := page{context: html.UnescapeString(string(m[1]))}
	links := pageZoom.FindAllSubmatch(body, -1)
	p.segments = len(links)
	if len(links) > 0 {
		p.open, _ = strconv.Atoi(string(links[0][1]))
	}
	return p, nil
}

// session is one closed-loop analyst: a cookie, a root pool and a
// seeded walk stream.
type session struct {
	c     *client
	roots []string
	walks *walker
	rec   *recorder
	// seen holds walk paths (root, then answer.segment per level)
	// already visited, so first visits depend on the seed only.
	seen map[string]bool

	attempted, walksDone      int
	failures                  []string
	rootFirst, rootHit        latencies
	zoomFirst, zoomRevisit    latencies
	zoomLeaf                  latencies
	tracedHit, untracedHit    latencies
	gaps                      latencies
	visitedRoots, visitedZoom []string
	// done holds each successful op's completion, since the start.
	done []time.Duration
}

func (ss *session) fail(format string, args ...any) {
	ss.failures = append(ss.failures, fmt.Sprintf(format, args...))
}

// run walks until the deadline: open a root, then zoom one to three
// levels into seeded (answer, segment) picks.
func (ss *session) run(start, deadline time.Time, traced bool) {
	prevEnd := time.Now()
	for time.Now().Before(deadline) {
		wk := ss.walks.next()
		// Traced runs trace every other walk, for trace.overhead_frac.
		var rec *recorder
		if traced && ss.walksDone%2 == 0 {
			rec = ss.rec
		}
		ss.walksDone++
		path := strconv.Itoa(wk.root)
		ss.gaps.add(time.Since(prevEnd))
		sp := rec.start(rec.newOp(), 0, "explore.root")
		hop := sp.child("http.get_root")
		t0 := time.Now()
		ss.attempted++
		code, _, body, err := ss.c.get("/?context=" + url.QueryEscape(ss.roots[wk.root]))
		d := time.Since(t0)
		hop.end()
		sp.end()
		prevEnd = time.Now()
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("HTTP %d", code)
		}
		var pg page
		if err == nil {
			pg, err = parsePage(body)
		}
		if err != nil {
			ss.fail("root %s: %v", ss.roots[wk.root], err)
			continue
		}
		ss.done = append(ss.done, time.Since(start))
		if ss.seen[path] {
			ss.rootHit.add(d)
			if rec != nil {
				ss.tracedHit.add(d)
			} else if traced {
				ss.untracedHit.add(d)
			}
		} else {
			ss.seen[path] = true
			ss.rootFirst.add(d)
			ss.visitedRoots = append(ss.visitedRoots, pg.context)
		}
		for _, pick := range wk.picks {
			if pg.segments == 0 || !time.Now().Before(deadline) {
				break
			}
			segment := int(pick % uint32(min(pg.segments, zoomBranching)))
			path += fmt.Sprintf("/%d.%d", pg.open, segment)
			ss.gaps.add(time.Since(prevEnd))
			next, d, err := ss.zoom(rec, pg, segment)
			prevEnd = time.Now()
			if err != nil {
				ss.fail("zoom %d.%d from %s: %v", pg.open, segment, pg.context, err)
				break
			}
			ss.done = append(ss.done, time.Since(start))
			switch {
			case next.leaf:
				ss.zoomLeaf.add(d)
			case ss.seen[path]:
				ss.zoomRevisit.add(d)
			default:
				ss.seen[path] = true
				ss.zoomFirst.add(d)
				ss.visitedZoom = append(ss.visitedZoom, next.context)
			}
			pg = next
		}
	}
}

// zoom is one drill-down: GET /zoom, then the redirect's GET /.
func (ss *session) zoom(rec *recorder, from page, segment int) (page, time.Duration, error) {
	sp := rec.start(rec.newOp(), 0, "explore.zoom")
	defer sp.end()
	ss.attempted++
	t0 := time.Now()
	hop := sp.child("http.get_zoom")
	code, hdr, _, err := ss.c.get(fmt.Sprintf("/zoom?open=%d&segment=%d", from.open, segment))
	hop.end()
	if err != nil {
		return page{}, 0, err
	}
	if code != http.StatusSeeOther {
		return page{}, 0, fmt.Errorf("/zoom: HTTP %d", code)
	}
	hop = sp.child("http.get_redirect")
	code, _, body, err := ss.c.get(hdr.Get("Location"))
	hop.end()
	d := time.Since(t0)
	if err != nil {
		return page{}, 0, err
	}
	if code != http.StatusOK {
		return page{}, 0, fmt.Errorf("redirect: HTTP %d", code)
	}
	next, err := parsePage(body)
	if err != nil {
		return page{}, 0, err
	}
	if !next.leaf && next.context == from.context {
		return page{}, 0, fmt.Errorf("zoom left the context unchanged")
	}
	return next, d, nil
}

func runExplore(e *env) (*report, error) {
	rep := newReport("explore")
	e.progress("explore: generating %d VOC rows", tableRows)
	tab := charles.GenerateVOC(tableRows, tableSeed(e.seed))
	csv := filepath.Join(e.work, "voc.csv")
	if err := charles.WriteCSV(csv, tab); err != nil {
		return nil, err
	}
	if err := syncFile(csv); err != nil {
		return nil, err
	}
	pools := rootPools(e.seed, tab)
	// The generator's table stays out of this process while the
	// server is measured: its garbage collector would otherwise scan
	// millions of strings on the server's two cores.
	tab = nil
	runtime.GC()
	debug.FreeOSMemory()
	e.progress("explore: starting charles-server -csv (%d set-ups)", setupRepeats)
	s, setup, err := medianSetup(e, "-csv", csv)
	if err != nil {
		return nil, err
	}
	defer s.stop()
	os.Remove(csv)
	admin := newClient(s.base)
	a, err := snapServer(s, admin)
	if err != nil {
		return nil, err
	}
	sessions := make([]*session, 2)
	for i := range sessions {
		sessions[i] = &session{c: newClient(s.base), roots: pools[i], walks: newWalker(e.seed, i, len(pools[i])), rec: e.rec, seen: map[string]bool{}}
	}
	e.progress("explore: measuring %v with %d sessions", e.seconds, len(sessions))
	rss := startRSSSampler(s.pid(), 10*time.Millisecond)
	start := time.Now()
	deadline := start.Add(e.seconds)
	var wg sync.WaitGroup
	for _, ss := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss.run(start, deadline, e.traced)
		}()
	}
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

	var rootFirst, rootHit, zoomFirst, zoomRevisit, zoomLeaf, tracedHit, untracedHit, gaps latencies
	var visited []string
	var done []time.Duration
	ops := 0
	for _, ss := range sessions {
		rep.attempted += ss.attempted
		for _, f := range ss.failures {
			rep.fail("%s", f)
		}
		rootFirst.ms = append(rootFirst.ms, ss.rootFirst.ms...)
		rootHit.ms = append(rootHit.ms, ss.rootHit.ms...)
		zoomFirst.ms = append(zoomFirst.ms, ss.zoomFirst.ms...)
		zoomRevisit.ms = append(zoomRevisit.ms, ss.zoomRevisit.ms...)
		zoomLeaf.ms = append(zoomLeaf.ms, ss.zoomLeaf.ms...)
		tracedHit.ms = append(tracedHit.ms, ss.tracedHit.ms...)
		untracedHit.ms = append(untracedHit.ms, ss.untracedHit.ms...)
		gaps.ms = append(gaps.ms, ss.gaps.ms...)
		visited = append(visited, ss.visitedRoots...)
		visited = append(visited, ss.visitedZoom...)
		done = append(done, ss.done...)
		ops += ss.attempted - len(ss.failures)
	}
	pct, tail := zoomFirst.tail()
	rep.endToEnd("setup_s", setup, "s")
	rep.endToEnd("peak_rss_mb", peak, "MB")
	rate := windowRate(done, elapsed)
	rep.endToEnd("ops_per_s", rate, "1/s")
	rep.endToEnd("op_p50_ms", zoomFirst.p50(), "ms")
	rep.endToEnd("op_tail_ms", tail, "ms")
	rep.endToEnd("step_p50_ms", rootHit.p50(), "ms")
	rep.note("op = first-visit zoom, /zoom + redirect (zoom_p50_ms/zoom_p%d_ms); step = root revisit, a result-LRU hit (hit_p50_ms)", pct)
	rep.note("ops_per_s: median one-second window of the second half of the run (%.1f/s); the whole-run mean is %.1f/s", rate, float64(ops)/elapsed.Seconds())
	rep.latency("zoom (first visit)", &zoomFirst)
	rep.latency("hit (root revisit)", &rootHit)
	rep.latency("root (first visit)", &rootFirst)
	rep.latency("zoom (revisit)", &zoomRevisit)
	rep.latency("zoom (to a leaf)", &zoomLeaf)
	rep.note("setup_s: median of %d charles-server -csv spawns to /healthz 200 (%d rows)", setupRepeats, tableRows)
	cpu := b.cpu.cpu - a.cpu.cpu
	faults := b.cpu.minflt - a.cpu.minflt

	// Answer checks: a seeded sample of visited contexts must come
	// back through POST /advise as the reference ranks them.
	e.progress("explore: checking answers")
	tab = charles.GenerateVOC(tableRows, tableSeed(e.seed))
	ref := newRefAdvisor(tab, 0)
	defer ref.close()
	rng := newRand(e.seed, streamChecks)
	checked := map[string]bool{}
	for _, i := range rng.Perm(len(visited)) {
		if len(checked) == 6 {
			break
		}
		ctx := visited[i]
		if checked[ctx] {
			continue
		}
		checked[ctx] = true
		rep.attempted++
		got, err := adviseOver(admin, ctx, 2*time.Millisecond, nil)
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
	rep.note("answer checks: %d visited contexts re-advised through POST /advise against the in-process reference", len(checked))

	if !e.traced {
		return rep, nil
	}
	servedLayers(rep, a, b, float64(ops), sessions[0].c, sessions[1].c)
	rep.perLayer("colfile.minor_faults_per_op", ratio{faults, float64(ops)}.value(), "count")
	rep.perLayer("server.cpu_ms_per_op", ratio{ms(cpu), float64(ops)}.value(), "ms")
	refLayers(rep, ref)
	refJobs(rep, ref)
	rep.perLayer("go.alloc_mb_per_op", 0, "MB")
	rep.perLayer("go.gc_cycles_per_op", 0, "count")
	rep.note("go.*: charles-server exposes no runtime metrics, so they read 0 on the HTTP workloads")
	rep.perLayer("loadgen.late_ms", gaps.p50(), "ms")
	rep.perLayer("loadgen.polls_per_readvise", 0, "count")
	overhead := ratio{tracedHit.p50() - untracedHit.p50(), untracedHit.p50()}
	rep.perLayer("trace.overhead_frac", overhead.value(), "ratio")
	rep.note("trace.overhead_frac: root-revisit p50 on traced walks %.3f ms (n=%d) vs untraced %.3f ms (n=%d)",
		tracedHit.p50(), tracedHit.n(), untracedHit.p50(), untracedHit.n())
	chc, err := colfileProbe(e, rep, tab)
	if err != nil {
		return nil, err
	}
	return rep, ladderProbe(e, rep, chc, tab, nil)
}

// refLayers reports core, sdl and ui from the in-process reference,
// for workloads whose server exposes no stage trace of its own.
func refLayers(rep *report, ref *refAdvisor) {
	rep.perLayer("core.advise_ms", ref.stage("run"), "ms")
	rep.perLayer("core.initial_cuts_ms", ref.stage("initial_cuts"), "ms")
	rep.perLayer("core.indep_pairs_ms", ref.stage("indep_pairs"), "ms")
	rep.perLayer("core.compose_ms", ref.stage("compose"), "ms")
	rep.perLayer("sdl.parse_ms", ref.parse.p50(), "ms")
	rep.perLayer("ui.render_ms", ref.render.p50(), "ms")
	rep.note("core.*, sdl.*, ui.*: the in-process reference advises of the answer checks (n=%d); the sync web path exposes no stage trace", ref.parse.n())
}
