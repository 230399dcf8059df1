package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"charles"
	"charles/internal/engine"
	"charles/internal/obs"
	"charles/internal/seg"
)

// setupRepeats is how many times a run repeats its set-up; setup_s
// is the median.
const setupRepeats = 3

// attributionTolerance is the share of a cold_scan op that its leaf
// spans (open, warm, parse, the core stages, render) may leave
// uncovered before the report flags the trace as incomplete.
const attributionTolerance = 0.10

// coldClusterBy orders the .chc by construction year, so range
// constraints on built and the dates correlated with it prune chunks.
const coldClusterBy = "built"

// engineCounters is the engine.SetMetrics hook the traced run
// installs, read as deltas around each op.
type engineCounters struct {
	m engine.Metrics
}

func newEngineCounters() *engineCounters {
	return &engineCounters{m: engine.Metrics{
		ZoneSkip: &obs.Counter{}, ZoneTake: &obs.Counter{}, ZoneScan: &obs.Counter{},
		VectorKernels: &obs.Counter{}, FusedKernels: &obs.Counter{},
	}}
}

// engineSnap is one reading of the engine and evaluator counters.
type engineSnap struct {
	skip, take, scan, vector, fused                          float64
	full, narrow, hits, cutCalcs, cutHits, delta, cutRefresh float64
	memoHits, memoMisses                                     float64
}

func (c *engineCounters) read(em *seg.EvalMetrics) engineSnap {
	s := engineSnap{
		skip: float64(c.m.ZoneSkip.Value()), take: float64(c.m.ZoneTake.Value()), scan: float64(c.m.ZoneScan.Value()),
		vector: float64(c.m.VectorKernels.Value()), fused: float64(c.m.FusedKernels.Value()),
	}
	if em != nil {
		s.full, s.narrow, s.hits = float64(em.FullEvals.Value()), float64(em.NarrowEvals.Value()), float64(em.CacheHits.Value())
		s.cutCalcs, s.cutHits = float64(em.CutPointCalcs.Value()), float64(em.CutCacheHits.Value())
		s.delta, s.cutRefresh = float64(em.DeltaRefreshes.Value()), float64(em.CutRefreshes.Value())
		s.memoHits, s.memoMisses = float64(em.PairMemoHits.Value()), float64(em.PairMemoMisses.Value())
	}
	return s
}

func (s engineSnap) minus(o engineSnap) engineSnap {
	return engineSnap{
		s.skip - o.skip, s.take - o.take, s.scan - o.scan, s.vector - o.vector, s.fused - o.fused,
		s.full - o.full, s.narrow - o.narrow, s.hits - o.hits, s.cutCalcs - o.cutCalcs, s.cutHits - o.cutHits,
		s.delta - o.delta, s.cutRefresh - o.cutRefresh, s.memoHits - o.memoHits, s.memoMisses - o.memoMisses,
	}
}

func (s engineSnap) plus(o engineSnap) engineSnap {
	neg := engineSnap{}.minus(o)
	return s.minus(neg)
}

func newEvalMetrics() *seg.EvalMetrics {
	return &seg.EvalMetrics{
		FullEvals: &obs.Counter{}, NarrowEvals: &obs.Counter{}, CacheHits: &obs.Counter{},
		CutPointCalcs: &obs.Counter{}, DeltaRefreshes: &obs.Counter{}, CutRefreshes: &obs.Counter{},
		CutCacheHits: &obs.Counter{}, PairMemoHits: &obs.Counter{}, PairMemoMisses: &obs.Counter{},
	}
}

// layerCounts reports the engine and seg per-op counts and ratios
// shared by every workload, over ops operations.
func layerCounts(rep *report, d engineSnap, ops float64) {
	per := func(v float64) float64 { return ratio{v, ops}.value() }
	rep.perLayer("engine.zone_skip_per_op", per(d.skip), "count")
	rep.perLayer("engine.zone_take_per_op", per(d.take), "count")
	rep.perLayer("engine.zone_scan_per_op", per(d.scan), "count")
	prune := ratio{d.skip + d.take, d.skip + d.take + d.scan}
	fused := ratio{d.fused, d.fused + d.vector}
	rep.perLayer("engine.zone_prune_ratio", prune.value(), "ratio")
	rep.perLayer("engine.fused_kernel_ratio", fused.value(), "ratio")
	rep.note("engine.zone_prune_ratio %s chunk verdicts; engine.fused_kernel_ratio %s kernels", prune, fused)
	rep.perLayer("seg.full_evals", per(d.full), "count")
	rep.perLayer("seg.narrow_evals", per(d.narrow), "count")
	hit := ratio{d.hits, d.hits + d.full + d.narrow}
	memo := ratio{d.memoHits, d.memoHits + d.memoMisses}
	rep.perLayer("seg.cache_hit_ratio", hit.value(), "ratio")
	rep.perLayer("seg.pair_memo_hit_ratio", memo.value(), "ratio")
	rep.note("seg.cache_hit_ratio %s lookups; seg.pair_memo_hit_ratio %s operand sides", hit, memo)
	rep.perLayer("seg.cut_point_calcs", per(d.cutCalcs), "count")
	rep.perLayer("seg.cut_cache_hits", per(d.cutHits), "count")
	rep.perLayer("seg.delta_refreshes", per(d.delta), "count")
	rep.perLayer("seg.cut_refreshes", per(d.cutRefresh), "count")
}

// coldOp is one measured cold_scan operation.
type coldOp struct {
	total, open, warm, parse, advise, render time.Duration
	stages                                   []obs.StageSummary
	out                                      string
}

// coldAdvise is the "first question on a big file": open the .chc,
// warm its summaries, build a fresh advisor, parse, advise and render
// one context, close. Nothing survives to the next op.
func coldAdvise(path, sdl string, root *openSpan, em *seg.EvalMetrics) (coldOp, error) {
	var op coldOp
	t0 := time.Now()
	sp := root.child("colfile.open")
	tab, err := charles.OpenColumnFile(path)
	sp.end()
	if err != nil {
		return op, err
	}
	defer tab.Close()
	t1 := time.Now()
	sp = root.child("engine.warm_summaries")
	tab.WarmSummaries()
	sp.end()
	t2 := time.Now()
	sp = root.child("core.new_advisor")
	adv := charles.NewAdvisor(tab, charles.DefaultConfig())
	if em != nil {
		adv.Evaluator().SetEvalMetrics(em)
	}
	sp.end()
	t3 := time.Now()
	sp = root.child("sdl.parse")
	q, err := adv.ParseContext(sdl)
	sp.end()
	if err != nil {
		return op, err
	}
	t4 := time.Now()
	sp = root.child("core.advise")
	var tr *obs.Trace
	if root != nil {
		tr = obs.NewTrace()
	}
	res, err := adv.AdviseCtx(obs.ContextWithTrace(context.Background(), tr), q, nil)
	t5 := time.Now()
	sp.endAt(t5)
	if err != nil {
		return op, err
	}
	op.stages = tr.Summary()
	at := t4
	for _, st := range op.stages {
		d := time.Duration(st.DurationNS)
		sp.addDerived("core."+st.Name, at, d)
		at = at.Add(d)
	}
	sp = root.child("ui.render")
	op.out = charles.RenderRanked(res, 0)
	sp.end()
	t6 := time.Now()
	sp = root.child("colfile.close")
	err = tab.Close()
	sp.end()
	if err != nil {
		return op, err
	}
	op.total = time.Since(t0)
	op.open, op.warm, op.parse, op.advise, op.render = t1.Sub(t0), t2.Sub(t1), t4.Sub(t3), t5.Sub(t4), t6.Sub(t5)
	return op, nil
}

func runColdScan(e *env) (*report, error) {
	rep := newReport("cold_scan")
	e.progress("cold_scan: generating %d VOC rows", tableRows)
	tab := charles.GenerateVOC(tableRows, tableSeed(e.seed))
	ctxs := coldContexts(e.seed, tab)
	path := filepath.Join(e.work, "voc.chc")
	var ingest latencies
	for i := 0; i < setupRepeats; i++ {
		os.Remove(path)
		t0 := time.Now()
		if err := charles.SaveColumnFile(path, tab, charles.ColumnFileOptions{ClusterBy: coldClusterBy}); err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}
		ingest.add(time.Since(t0))
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if err := syncFile(path); err != nil {
		return nil, err
	}
	// The generator's table is not part of the serving process:
	// release it before measuring, rebuild it for the checks.
	tab = nil
	runtime.GC()
	debug.FreeOSMemory()

	var counters *engineCounters
	if e.traced {
		counters = newEngineCounters()
		engine.SetMetrics(&counters.m)
		defer engine.SetMetrics(nil)
	}
	var (
		all, steps                    latencies
		tracedBy, untracedBy          = map[int]*latencies{}, map[int]*latencies{}
		perOp                         []coldSample
		opens, warms, parses, renders latencies
		stages                        = map[string]*latencies{}
		outs                          = map[int]string{} // first rendering per context
		sum                           engineSnap
		faults, allocMB, gcs, tracedN float64
		unattr                        ratio
		gaps                          latencies
	)
	e.progress("cold_scan: measuring %v over %d contexts", e.seconds, len(ctxs))
	rss := startRSSSampler(os.Getpid(), 5*time.Millisecond)
	cpu0 := selfUsage()
	start := time.Now()
	deadline := start.Add(e.seconds)
	prevEnd := start
	var resets time.Duration
	for i := 0; time.Now().Before(deadline); i++ {
		ci := i % len(ctxs)
		// Each op starts from an empty heap, as a CLI invocation
		// does; the reset is untimed and excluded from ops_per_s.
		r0 := time.Now()
		runtime.GC()
		debug.FreeOSMemory()
		rss.takePeak()
		resets += time.Since(r0)
		prevEnd = time.Now()
		// Traced runs alternate traced and untraced passes per
		// context, so the two halves see the same contexts.
		on := e.traced && (ci+i/len(ctxs))%2 == 0
		var root *openSpan
		var em *seg.EvalMetrics
		var before engineSnap
		var u0 procCPU
		var m0 runtime.MemStats
		if on {
			em = newEvalMetrics()
			before = counters.read(nil)
			runtime.ReadMemStats(&m0)
			u0 = selfUsage()
			root = e.rec.start(e.rec.newOp(), 0, "cold_scan.op")
		}
		gaps.add(time.Since(prevEnd))
		rep.attempted++
		op, err := coldAdvise(path, ctxs[ci], root, em)
		prevEnd = time.Now()
		if root != nil {
			root.endAt(prevEnd)
		}
		if err != nil {
			rep.fail("op %d %s: %v", i, ctxs[ci], err)
			continue
		}
		all.add(op.total)
		steps.add(op.open + op.warm)
		perOp = append(perOp, coldSample{ctx: ci, ms: ms(op.total), rssMB: rss.takePeak()})
		if _, ok := outs[ci]; !ok {
			outs[ci] = op.out
		}
		if !e.traced {
			continue
		}
		if !on {
			addTo(untracedBy, ci, op.total)
			continue
		}
		u1 := selfUsage()
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		addTo(tracedBy, ci, op.total)
		tracedN++
		faults += u1.minflt - u0.minflt
		allocMB += float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		gcs += float64(m1.NumGC - m0.NumGC)
		sum = sum.plus(counters.read(em).minus(before))
		opens.add(op.open)
		warms.add(op.warm)
		parses.add(op.parse)
		renders.add(op.render)
		leaves := op.open + op.warm + op.parse + op.render
		var advise time.Duration
		for _, s := range op.stages {
			advise += time.Duration(s.DurationNS)
			if stages[s.Name] == nil {
				stages[s.Name] = &latencies{}
			}
			stages[s.Name].add(time.Duration(s.DurationNS))
		}
		leaves += advise
		if stages["advise"] == nil {
			stages["advise"] = &latencies{}
		}
		stages["advise"].add(op.advise)
		unattr.base += float64(op.total)
		unattr.num += float64(op.total - min(leaves, op.total))
	}
	elapsed := time.Since(start) - resets
	cpu := selfUsage().cpu - cpu0.cpu
	peak := rss.finish()
	ops := float64(all.n())
	lat, opPeak := stratify(perOp)

	rep.endToEnd("setup_s", ingest.p50()/1000, "s")
	rep.endToEnd("peak_rss_mb", opPeak.quantile(0.5), "MB")
	rep.endToEnd("ops_per_s", ops/elapsed.Seconds(), "1/s")
	pct := tailPercentile(all.n())
	rep.endToEnd("op_p50_ms", lat.quantile(0.5), "ms")
	rep.endToEnd("op_tail_ms", lat.quantile(float64(pct)/100), "ms")
	rep.endToEnd("step_p50_ms", steps.p50(), "ms")
	rep.note("op = cold advise, open → render (advise_p50_ms/advise_p%d_ms), step = .chc open + warm", pct)
	rep.note("op_* and peak_rss_mb weigh every context of the design equally (1/ops of its context)")
	rep.note("peak_rss_mb: median over ops of each op's peak resident set (5 ms samples); the run's overall peak was %.1f MB", peak)
	rep.latency("advise (unweighted)", &all)
	rep.latency("open+warm", &steps)
	rep.note("setup_s: median of %d ingests to .chc (clustered by %s); stored_bytes_per_row %.2f B",
		setupRepeats, coldClusterBy, float64(st.Size())/tableRows)

	// Answer checks: the first rendering of a seeded sample of
	// contexts must be byte-identical to an untimed advise over a
	// memory-backed copy at Workers=1.
	e.progress("cold_scan: checking answers")
	ref := newRefAdvisor(charles.GenerateVOC(tableRows, tableSeed(e.seed)), 1)
	defer ref.close()
	for _, ci := range newRand(e.seed, streamChecks).Perm(len(ctxs))[:4] {
		got, ok := outs[ci]
		if !ok {
			continue
		}
		rep.attempted++
		_, want, err := ref.advise(ctxs[ci])
		if err != nil {
			return nil, err
		}
		if got != want {
			rep.fail("context %s: .chc rendering differs from the memory-backed Workers=1 reference", ctxs[ci])
		}
	}

	if !e.traced {
		return rep, nil
	}
	per := func(v float64) float64 { return ratio{v, tracedN}.value() }
	rep.perLayer("colfile.write_ms", ingest.p50(), "ms")
	rep.perLayer("colfile.open_ms", opens.p50(), "ms")
	rep.perLayer("colfile.minor_faults_per_op", per(faults), "count")
	rep.perLayer("colfile.stored_bytes_per_row", float64(st.Size())/tableRows, "B")
	rep.perLayer("engine.warm_summaries_ms", warms.p50(), "ms")
	layerCounts(rep, sum, tracedN)
	rep.perLayer("core.advise_ms", stageP50(stages, "advise"), "ms")
	rep.perLayer("core.initial_cuts_ms", stageP50(stages, "initial_cuts"), "ms")
	rep.perLayer("core.indep_pairs_ms", stageP50(stages, "indep_pairs"), "ms")
	rep.perLayer("core.compose_ms", stageP50(stages, "compose"), "ms")
	rep.perLayer("sdl.parse_ms", parses.p50(), "ms")
	rep.perLayer("ui.render_ms", renders.p50(), "ms")
	refJobs(rep, ref)
	rep.perLayer("go.alloc_mb_per_op", per(allocMB), "MB")
	rep.perLayer("go.gc_cycles_per_op", per(gcs), "count")
	rep.perLayer("server.cpu_ms_per_op", ratio{ms(cpu), ops}.value(), "ms")
	rep.perLayer("loadgen.late_ms", gaps.p50(), "ms")
	rep.perLayer("loadgen.polls_per_readvise", 0, "count")
	// Overhead pairs each context's traced and untraced ops, so the
	// estimate does not depend on which contexts each half reached.
	var pairs []float64
	for ci, t := range tracedBy {
		if u := untracedBy[ci]; u != nil {
			pairs = append(pairs, t.p50()/u.p50()-1)
		}
	}
	overhead := 0.0
	if len(pairs) > 0 {
		overhead = median(pairs)
	}
	rep.perLayer("trace.overhead_frac", overhead, "ratio")
	rep.perLayer("trace.unattributed_frac", unattr.value(), "ratio")
	verdict := "within"
	if unattr.value() > attributionTolerance {
		verdict = "EXCEEDS"
	}
	rep.note("trace.unattributed_frac %s ms of op time: %s the %.0f%% tolerance", ratio{unattr.num / 1e6, unattr.base / 1e6}, verdict, attributionTolerance*100)
	rep.note("trace.overhead_frac: median over %d contexts of traced/untraced op latency − 1", len(pairs))
	rep.note("server.cpu_ms_per_op: cold_scan is served in-process; this is the benchmark process's CPU per op")
	if err := ladderProbe(e, rep, path, ref.adv.Table(), nil); err != nil {
		return nil, err
	}
	return rep, serverProbe(e, rep, path, ctxs[:3])
}

// coldSample is one op's context, latency and peak resident set.
type coldSample struct {
	ctx       int
	ms, rssMB float64
}

// stratify weighs each op by 1/(ops of its context), so a run that
// stops part-way through a pass over the contexts does not tilt the
// quantiles toward the contexts it reached once more.
func stratify(ops []coldSample) (lat, rss *weighted) {
	n := map[int]float64{}
	for _, o := range ops {
		n[o.ctx]++
	}
	lat, rss = &weighted{}, &weighted{}
	for _, o := range ops {
		lat.add(o.ms, 1/n[o.ctx])
		rss.add(o.rssMB, 1/n[o.ctx])
	}
	return lat, rss
}

func addTo(m map[int]*latencies, k int, d time.Duration) {
	if m[k] == nil {
		m[k] = &latencies{}
	}
	m[k].add(d)
}

// refJobs reports the jobs layer as the in-process reference queue
// measured it.
func refJobs(rep *report, ref *refAdvisor) {
	rep.perLayer("jobs.queue_wait_ms", histMeanMS(ref.met.QueueWait), "ms")
	rep.perLayer("jobs.run_ms", histMeanMS(ref.met.Run), "ms")
	rep.perLayer("jobs.coalesced_ratio", 0, "ratio")
	rep.note("jobs.*: the in-process reference queue (1 worker, %d jobs); the workload itself bypasses jobs", ref.met.Run.Count())
}
