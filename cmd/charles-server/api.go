// The async advise API: long advises run as queued jobs with
// progress and cancellation instead of holding an HTTP request (and
// its goroutine) open for the whole computation.
//
//	POST   /advise?context=…   submit; 200 + result on a cache hit,
//	                           202 + job id otherwise, 503 when the
//	                           queue is full
//	POST   /append             append rows to a memory-backed table;
//	                           every cache re-keys on the new table
//	                           fingerprint (incremental advise)
//	GET    /jobs/{id}          state + progress (+ result when done)
//	DELETE /jobs/{id}          cancel (queued or mid-advise)
//	GET    /jobs               list every retained job
//	GET    /healthz            queue, worker, session, cache gauges
//
// Identical submissions — same canonical context and config
// fingerprint — coalesce onto one job, from this API and the web UI
// alike, and completed results land in the cross-session LRU both
// read, so the two front ends share every advise.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"charles"
	"charles/internal/engine"
	"charles/internal/jobs"
	"charles/internal/obs"
)

// jsonSegment is one segment of a rendered segmentation: the SDL
// query, its SQL drill-down, and its extent size.
type jsonSegment struct {
	SDL   string `json:"sdl"`
	SQL   string `json:"sql"`
	Count int    `json:"count"`
}

// jsonSegmentation is one ranked answer.
type jsonSegmentation struct {
	Rank       int           `json:"rank"`
	Score      float64       `json:"score"`
	Entropy    float64       `json:"entropy"`
	Balance    float64       `json:"balance"`
	Breadth    int           `json:"breadth"`
	Simplicity int           `json:"simplicity"`
	CutAttrs   []string      `json:"cut_attrs"`
	Segments   []jsonSegment `json:"segments"`
}

// jsonResult is the API rendering of a ranked advise result.
type jsonResult struct {
	Context       string             `json:"context"`
	Segmentations []jsonSegmentation `json:"segmentations"`
	SkippedAttrs  []string           `json:"skipped_attrs,omitempty"`
	Iterations    int                `json:"iterations"`
	IndepEvals    int                `json:"indep_evals"`
	StopReason    string             `json:"stop_reason"`
}

// jsonJob is the API rendering of a job snapshot. Result appears
// only on done jobs (and only where the endpoint includes it).
type jsonJob struct {
	ID       string            `json:"id"`
	State    string            `json:"state"`
	Cached   bool              `json:"cached,omitempty"`
	Progress *charles.Progress `json:"progress,omitempty"`
	Error    string            `json:"error,omitempty"`
	Created  string            `json:"created,omitempty"`
	Started  string            `json:"started,omitempty"`
	Finished string            `json:"finished,omitempty"`
	Result   *jsonResult       `json:"result,omitempty"`
	// Trace is the per-advise stage breakdown (queue wait, run, and
	// the core stages inside it). Included on single-job views; the
	// advise endpoint adds it only when the request asks ("trace").
	Trace []obs.StageSummary `json:"trace,omitempty"`
}

// renderResult converts a ranked result for JSON transport. The
// ordering and every number comes straight from the result, so the
// async rendering is byte-identical to rendering the sync path's
// result for the same context.
func (sv *server) renderResult(res *charles.Result) *jsonResult {
	out := &jsonResult{
		Context:      res.Context.String(),
		SkippedAttrs: res.SkippedAttrs,
		Iterations:   res.Iterations,
		IndepEvals:   res.IndepEvals,
		StopReason:   res.StopReason.String(),
	}
	table := sv.adv.Table().Name()
	for rank, sc := range res.Segmentations {
		js := jsonSegmentation{
			Rank:       rank + 1,
			Score:      sc.Score,
			Entropy:    sc.Metrics.Entropy,
			Balance:    sc.Metrics.Balance,
			Breadth:    sc.Metrics.Breadth,
			Simplicity: sc.Metrics.Simplicity,
			CutAttrs:   sc.Seg.CutAttrs,
		}
		for i, q := range sc.Seg.Queries {
			js.Segments = append(js.Segments, jsonSegment{
				SDL:   q.String(),
				SQL:   charles.SQLSelect(q, table),
				Count: sc.Seg.Counts[i],
			})
		}
		out.Segmentations = append(out.Segmentations, js)
	}
	return out
}

// renderJob converts a job snapshot for JSON transport.
func (sv *server) renderJob(snap jobs.Snapshot, includeResult bool) jsonJob {
	jj := jsonJob{
		ID:      snap.ID,
		State:   snap.State.String(),
		Created: rfc3339(snap.Created),
		Started: rfc3339(snap.Started),
	}
	if snap.State.Terminal() {
		jj.Finished = rfc3339(snap.Finished)
	}
	if snap.Progress.Phase != "" {
		p := snap.Progress
		jj.Progress = &p
	}
	if snap.Err != nil {
		jj.Error = snap.Err.Error()
	}
	if includeResult && snap.State == jobs.StateDone && snap.Result != nil {
		jj.Result = sv.renderResult(snap.Result)
	}
	if includeResult {
		jj.Trace = snap.Trace
	}
	return jj
}

func rfc3339(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.UTC().Format(time.RFC3339Nano)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("charles-server: encode: %v", err)
	}
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// adviseContext extracts the SDL context from a POST /advise
// request — a JSON body {"context": "…"} or the context form/query
// parameter — plus whether the caller opted into the stage trace
// ("trace": true in the body, or a truthy trace parameter) and an
// optional timeout_ms deadline override (the jobs layer clamps it to
// the server's -job-timeout; it can only tighten). Body reads go
// through the request's MaxBytesReader, so an oversized body surfaces
// here as *http.MaxBytesError — including on the form path, where
// FormValue alone would silently swallow it.
func adviseContext(r *http.Request) (ctx string, wantTrace bool, timeout time.Duration, err error) {
	parseTimeout := func(ms int64) (time.Duration, error) {
		if ms < 0 {
			return 0, fmt.Errorf("timeout_ms must be >= 0, got %d", ms)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var body struct {
			Context   string `json:"context"`
			Trace     bool   `json:"trace"`
			TimeoutMS int64  `json:"timeout_ms"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			var mbe *http.MaxBytesError
			if errors.As(err, &mbe) {
				return "", false, 0, err
			}
			return "", false, 0, errors.New("bad JSON body: " + err.Error())
		}
		timeout, err := parseTimeout(body.TimeoutMS)
		if err != nil {
			return "", false, 0, err
		}
		return body.Context, body.Trace || truthy(r.URL.Query().Get("trace")), timeout, nil
	}
	if err := r.ParseForm(); err != nil {
		return "", false, 0, err
	}
	timeout = 0
	if v := r.FormValue("timeout_ms"); v != "" {
		ms, perr := strconv.ParseInt(v, 10, 64)
		if perr != nil {
			return "", false, 0, fmt.Errorf("bad timeout_ms %q", v)
		}
		if timeout, err = parseTimeout(ms); err != nil {
			return "", false, 0, err
		}
	}
	return r.FormValue("context"), truthy(r.FormValue("trace")), timeout, nil
}

// clientID identifies the requester for quota purposes: an explicit
// X-Charles-Client header (how a fleet of API clients shares one
// egress IP honestly) or, absent that, the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Charles-Client"); c != "" {
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// retryAfterSeconds renders a wait as a whole-second Retry-After
// value, rounding up so "retry after" is never "retry immediately".
func retryAfterSeconds(d time.Duration) string {
	s := int64((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return strconv.FormatInt(s, 10)
}

// refuseTooLarge answers 413 for a body over the -max-body-bytes
// bound, counted; reports whether err was that refusal.
func (sv *server) refuseTooLarge(w http.ResponseWriter, err error) bool {
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		return false
	}
	sv.metrics.bodyTooLarge.Inc()
	jsonError(w, http.StatusRequestEntityTooLarge,
		fmt.Sprintf("request body exceeds the %d-byte limit (-max-body-bytes)", mbe.Limit))
	return true
}

func truthy(s string) bool {
	return s != "" && s != "0" && !strings.EqualFold(s, "false")
}

// handleAdvise submits an advise job. A result-cache hit answers
// immediately (200, cached: true); a coalesced or fresh submission
// answers 202 with the job to poll — unless the hit job already
// finished, which answers 200 with the result inline. Refusals are
// distinct on purpose (docs/ROBUSTNESS.md): 413 body too large, 429
// over quota (your bucket — back off per its Retry-After), 503 queue
// full (the server — everyone backs off).
func (sv *server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, sv.maxBody)
	qs, wantTrace, timeout, err := adviseContext(r)
	if err != nil {
		if sv.refuseTooLarge(w, err) {
			return
		}
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	q, err := sv.adv.ParseContext(qs)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := sv.cacheKey(q)
	if sv.results != nil {
		if res, ok := sv.results.get(key); ok {
			writeJSON(w, http.StatusOK, jsonJob{
				State:  jobs.StateDone.String(),
				Cached: true,
				Result: sv.renderResult(res),
			})
			return
		}
	}
	submitted := time.Now()
	j, he := sv.submitAdvise(r, key, q, timeout)
	if he != nil {
		he.setRetryAfter(w)
		jsonError(w, he.status, he.msg)
		return
	}
	snap := j.Snapshot()
	status := http.StatusAccepted
	// A TTL'd hot hit — a job created before this request that
	// already ran — answers 200. A job this request created answers
	// 202 even when it finished before the snapshot, so a fresh
	// submission's status never depends on how fast the advise ran.
	if snap.State == jobs.StateDone && snap.Created.Before(submitted) {
		status = http.StatusOK
	}
	jj := sv.renderJob(snap, true)
	if !wantTrace {
		// The trace is opt-in here so default advise responses stay
		// exactly what pre-trace clients parsed.
		jj.Trace = nil
	}
	writeJSON(w, status, jj)
}

// httpError is an advise that did not produce a result, with the
// HTTP status it answers: a refusal at admission (429 over quota, 503
// queue full or shutting down, with Retry-After where backing off
// helps) or a job that ended without a result (500 panicked, 503
// cancelled, 504 timed out; 200 when the advise failed on its input
// and the web page shows why).
type httpError struct {
	status     int
	retryAfter string // Retry-After value; "" sends none
	msg        string
}

func (e *httpError) setRetryAfter(w http.ResponseWriter) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
}

// submitAdvise is admission plus submission, shared by both front
// ends: the client's quota first, then a job that advises q and feeds
// the result LRU — or, when one is already queued, running or done
// under key, that job. Admission control sits after the LRU lookup
// (hits cost the server nothing worth rationing) and before the queue
// (a token spent on a queue-full rejection would punish the client
// twice).
func (sv *server) submitAdvise(r *http.Request, key string, q charles.Query, timeout time.Duration) (*jobs.Job, *httpError) {
	if ok, retry := sv.quota.Allow(clientID(r)); !ok {
		sv.metrics.overQuota.Inc()
		return nil, &httpError{http.StatusTooManyRequests, retryAfterSeconds(retry), "over quota"}
	}
	run := func(ctx context.Context, progress charles.ProgressFunc) (*charles.Result, error) {
		res, err := sv.runAdvise(ctx, q, progress)
		if err == nil && sv.results != nil {
			// Job results feed the LRU both front ends read; a failed
			// advise is never stored (it has no result to serve
			// later).
			sv.results.put(key, res)
		}
		return res, err
	}
	j, err := sv.jobs.SubmitTimeout(key, run, timeout)
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		sv.metrics.queueFull.Inc()
		return nil, &httpError{http.StatusServiceUnavailable, "1", "queue full"}
	case errors.Is(err, jobs.ErrClosed):
		return nil, &httpError{status: http.StatusServiceUnavailable, msg: "shutting down"}
	case err != nil:
		return nil, &httpError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	return j, nil
}

// handleJob serves one job: GET polls it, DELETE cancels it.
func (sv *server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/jobs/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		snap, err := sv.jobs.Get(id)
		if err != nil {
			jsonError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, sv.renderJob(snap, true))
	case http.MethodDelete:
		if err := sv.jobs.Cancel(id); err != nil {
			jsonError(w, http.StatusNotFound, err.Error())
			return
		}
		snap, err := sv.jobs.Get(id)
		if err != nil {
			jsonError(w, http.StatusNotFound, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, sv.renderJob(snap, false))
	default:
		w.Header().Set("Allow", "GET, HEAD, DELETE")
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
	}
}

// handleJobs lists every retained job, oldest first, without result
// payloads.
func (sv *server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	snaps := sv.jobs.List()
	out := make([]jsonJob, len(snaps))
	for i, snap := range snaps {
		out[i] = sv.renderJob(snap, false)
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

// healthzPayload is the /healthz body: queue and worker gauges, job
// counters, session count, and the result cache's size and hit/miss
// tallies.
type healthzPayload struct {
	Status        string           `json:"status"`
	QueueDepth    int              `json:"queue_depth"`
	QueueCap      int              `json:"queue_cap"`
	RunningJobs   int              `json:"running_jobs"`
	JobWorkers    int              `json:"job_workers"`
	JobsRetained  int              `json:"jobs_retained"`
	JobsSubmitted int              `json:"jobs_submitted"`
	JobsCoalesced int              `json:"jobs_coalesced"`
	Sessions      int              `json:"sessions"`
	Advises       int64            `json:"advises"`
	ResultCache   resultCacheStats `json:"result_cache"`
}

type resultCacheStats struct {
	Enabled bool `json:"enabled"`
	Size    int  `json:"size"`
	Hits    int  `json:"hits"`
	Misses  int  `json:"misses"`
}

// handleHealthz reports liveness plus the gauges an operator (or a
// load balancer) watches: queue saturation, running advises, cache
// effectiveness.
func (sv *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !requireGet(w, r) {
		return
	}
	st := sv.jobs.Stats()
	sv.mu.Lock()
	sessions := len(sv.sessions)
	sv.mu.Unlock()
	size, hits, misses := sv.results.stats()
	writeJSON(w, http.StatusOK, healthzPayload{
		Status:        "ok",
		QueueDepth:    st.Queued,
		QueueCap:      st.QueueCap,
		RunningJobs:   st.Running,
		JobWorkers:    st.Workers,
		JobsRetained:  st.Retained,
		JobsSubmitted: st.Submitted,
		JobsCoalesced: st.Coalesced,
		Sessions:      sessions,
		Advises:       sv.metrics.advises.Value(),
		ResultCache: resultCacheStats{
			Enabled: sv.results != nil,
			Size:    size,
			Hits:    hits,
			Misses:  misses,
		},
	})
}

// coerceValue converts one decoded JSON value to the engine value a
// column of the given kind accepts. JSON numbers arrive as float64;
// int columns additionally require them to be integral, and date
// columns take "YYYY-MM-DD" strings.
func coerceValue(kind engine.Kind, raw any) (charles.Value, error) {
	switch kind {
	case engine.KindInt:
		f, ok := raw.(float64)
		if !ok {
			return charles.Value{}, fmt.Errorf("want a number, got %T", raw)
		}
		if f != math.Trunc(f) || math.Abs(f) > 1<<53 {
			return charles.Value{}, fmt.Errorf("want an integer, got %v", f)
		}
		return charles.Int(int64(f)), nil
	case engine.KindFloat:
		f, ok := raw.(float64)
		if !ok {
			return charles.Value{}, fmt.Errorf("want a number, got %T", raw)
		}
		return charles.Float(f), nil
	case engine.KindString:
		s, ok := raw.(string)
		if !ok {
			return charles.Value{}, fmt.Errorf("want a string, got %T", raw)
		}
		return charles.Str(s), nil
	case engine.KindBool:
		b, ok := raw.(bool)
		if !ok {
			return charles.Value{}, fmt.Errorf("want a bool, got %T", raw)
		}
		return charles.Bool(b), nil
	case engine.KindDate:
		s, ok := raw.(string)
		if !ok {
			return charles.Value{}, fmt.Errorf("want a YYYY-MM-DD string, got %T", raw)
		}
		return charles.ParseDate(s)
	}
	return charles.Value{}, fmt.Errorf("unsupported column kind %v", kind)
}

// handleAppend appends rows to the served table — the HTTP face of
// the incremental-advise path. The body is {"rows": [{column:
// value, …}, …]}; every row must name every column exactly once.
// Validation is all-or-nothing (the engine applies nothing on error)
// and a file-backed table answers 409: .chc columns alias a
// read-only mapping and stay immutable. On success every layer
// re-keys automatically — the table fingerprint moved, so the result
// LRU and job coalescing both miss, while the shared evaluator
// refreshes its epoch-stamped caches chunk-at-a-time on the next
// advise instead of recomputing from scratch.
func (sv *server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		jsonError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, sv.maxBody)
	var body struct {
		Rows []map[string]any `json:"rows"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		if sv.refuseTooLarge(w, err) {
			return
		}
		jsonError(w, http.StatusBadRequest, "bad JSON body: "+err.Error())
		return
	}
	if len(body.Rows) == 0 {
		jsonError(w, http.StatusBadRequest, "no rows to append")
		return
	}
	tab := sv.adv.Table()
	rows := make([][]charles.Value, 0, len(body.Rows))
	for i, jr := range body.Rows {
		row := make([]charles.Value, tab.NumCols())
		for c := 0; c < tab.NumCols(); c++ {
			col := tab.Column(c)
			raw, ok := jr[col.Name()]
			if !ok {
				jsonError(w, http.StatusBadRequest, fmt.Sprintf("row %d: missing column %q", i, col.Name()))
				return
			}
			v, err := coerceValue(col.Kind(), raw)
			if err != nil {
				jsonError(w, http.StatusBadRequest, fmt.Sprintf("row %d, column %q: %v", i, col.Name(), err))
				return
			}
			row[c] = v
		}
		if len(jr) != tab.NumCols() {
			for name := range jr {
				if _, ok := tab.ColumnByName(name); !ok {
					jsonError(w, http.StatusBadRequest, fmt.Sprintf("row %d: unknown column %q", i, name))
					return
				}
			}
		}
		rows = append(rows, row)
	}
	sv.tabMu.Lock()
	err := tab.AppendRows(rows...)
	sv.tabMu.Unlock()
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "read-only") {
			status = http.StatusConflict
		}
		jsonError(w, status, err.Error())
		return
	}
	sv.invalidateSessions()
	writeJSON(w, http.StatusOK, map[string]any{
		"appended":    len(rows),
		"rows":        tab.NumRows(),
		"fingerprint": tab.Fingerprint(),
	})
}
