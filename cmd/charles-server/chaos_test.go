// Chaos and survivability tests for the serving plane: with
// failpoints armed the server answers descriptive errors and keeps
// serving — never crashes, never leaks — and once faults are disabled
// its advise output is byte-identical to an unfaulted server's. Also
// here: the shutdown-ordering regression test, request-body bounds,
// the 429-vs-503 admission contract, and per-request deadlines.
//
// Everything named TestChaos* runs under `make chaos` (with -race);
// the rest rides the ordinary test gate.
package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"charles"
	"charles/internal/fault"
	"charles/internal/jobs"
	"charles/internal/leakcheck"
)

// armFault enables one failpoint for the duration of the test.
func armFault(t *testing.T, site, spec string) {
	t.Helper()
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Enable(site, spec); err != nil {
		t.Fatal(err)
	}
}

// doFormAs is doForm with a client identity header, for quota tests.
func (c *client) doFormAs(clientID, target string, form url.Values) (*http.Response, string) {
	c.t.Helper()
	req := httptest.NewRequest(http.MethodPost, target, strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("X-Charles-Client", clientID)
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	return rec.Result(), rec.Body.String()
}

// resultJSON renders a job's result deterministically for
// byte-identity comparisons.
func resultJSON(t *testing.T, jj jsonJob) string {
	t.Helper()
	if jj.Result == nil {
		t.Fatalf("job carries no result: %+v", jj)
	}
	b, err := json.Marshal(jj.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// recordedShutdowner logs the instant it was shut down.
type recordedShutdowner struct {
	name  string
	order *[]string
}

func (r *recordedShutdowner) Shutdown(ctx context.Context) error {
	*r.order = append(*r.order, r.name)
	return nil
}

// TestShutdownOrderListenerBeforeQueue is the regression test for
// the shutdown-ordering bug: the queue used to drain before the
// listener stopped accepting, so requests landing mid-drain hit a
// dying queue and answered "shutting down" from a server that still
// looked alive. The listener must always stop first.
func TestShutdownOrderListenerBeforeQueue(t *testing.T) {
	var order []string
	hs := &recordedShutdowner{name: "listener", order: &order}
	q := &recordedShutdowner{name: "queue", order: &order}
	if err := shutdownServing(context.Background(), hs, q); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "listener" || order[1] != "queue" {
		t.Fatalf("shutdown order = %v, want [listener queue]", order)
	}
}

// TestShutdownClosedQueueStillAnswers pins what a client sees if a
// submission does race the drain: a descriptive 503, not a hang or a
// crash.
func TestShutdownClosedQueueStillAnswers(t *testing.T) {
	sv := testServer(t)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sv.jobs.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
	c := newClient(t, sv)
	res, body := c.doForm(http.MethodPost, "/advise", url.Values{"context": {"(tonnage:)"}})
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "shutting down") {
		t.Fatalf("post-shutdown submit: %d %s, want 503 shutting down", res.StatusCode, body)
	}
}

func TestMaxBodyBytesAdvise413(t *testing.T) {
	sv := testServer(t)
	sv.maxBody = 128
	c := newClient(t, sv)
	big := url.Values{"context": {"(tonnage:" + strings.Repeat("x", 4096) + ")"}}
	res, body := c.doForm(http.MethodPost, "/advise", big)
	if res.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized form body: %d\n%s", res.StatusCode, body)
	}
	if !strings.Contains(body, "128-byte limit") || !strings.Contains(body, "max-body-bytes") {
		t.Fatalf("413 not descriptive: %s", body)
	}
	if got := sv.metrics.bodyTooLarge.Value(); got != 1 {
		t.Fatalf("charles_http_body_too_large_total = %d, want 1", got)
	}
	// A JSON body over the bound is refused identically.
	req := httptest.NewRequest(http.MethodPost, "/advise",
		strings.NewReader(`{"context": "(tonnage:`+strings.Repeat("x", 4096)+`)"}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized JSON body: %d\n%s", rec.Code, rec.Body.String())
	}
	// Within the bound still works.
	if res, body := c.doForm(http.MethodPost, "/advise", url.Values{"context": {"(tonnage:)"}}); res.StatusCode >= 400 {
		t.Fatalf("small body refused: %d\n%s", res.StatusCode, body)
	}
}

func TestMaxBodyBytesAppend413(t *testing.T) {
	sv := testServer(t)
	sv.maxBody = 64
	c := newClient(t, sv)
	req := httptest.NewRequest(http.MethodPost, "/append",
		strings.NewReader(`{"rows": [{"pad": "`+strings.Repeat("x", 1024)+`"}]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	c.mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "64-byte limit") {
		t.Fatalf("oversized append: %d %s, want descriptive 413", rec.Code, rec.Body.String())
	}
	if got := sv.metrics.bodyTooLarge.Value(); got != 1 {
		t.Fatalf("charles_http_body_too_large_total = %d, want 1", got)
	}
}

// TestAdmission429Vs503 pins the status-code contract: an exhausted
// per-client bucket answers 429 "over quota", a saturated queue 503
// "queue full" — both with Retry-After, each on its own counter.
func TestAdmission429Vs503(t *testing.T) {
	// Queue depth 2: the occupied worker leaves room for both of
	// alice's burst submissions, so her third refusal is purely quota.
	sv := testServerOpts(t, charles.DefaultConfig(), jobs.Options{Workers: 1, QueueDepth: 2})
	sv.quota = jobs.NewQuota(0.01, 2) // 2 requests, then a long wait
	release := occupyWorkers(t, sv, 1)
	defer close(release)
	c := newClient(t, sv)

	// Distinct contexts so neither the result cache nor coalescing
	// answers before admission control runs.
	contexts := []string{"(tonnage:)", "(type_of_boat:)", "(departure_harbour:)"}
	for i, ctx := range contexts[:2] {
		res, body := c.doFormAs("alice", "/advise", url.Values{"context": {ctx}})
		if res.StatusCode != http.StatusAccepted {
			t.Fatalf("burst request %d: %d %s, want 202", i, res.StatusCode, body)
		}
	}
	// Third token does not exist: 429. The queue is also full at this
	// point — the quota verdict must win, because "you are over
	// quota" is actionable for this client where "server full" is
	// not.
	res, body := c.doFormAs("alice", "/advise", url.Values{"context": {contexts[2]}})
	if res.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, "over quota") {
		t.Fatalf("over-quota submit: %d %s, want 429 over quota", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// A different client is admitted past quota — and meets the full
	// queue: 503.
	res, body = c.doFormAs("bob", "/advise", url.Values{"context": {contexts[2]}})
	if res.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "queue full") {
		t.Fatalf("full-queue submit: %d %s, want 503 queue full", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}
	if oq, qf := sv.metrics.overQuota.Value(), sv.metrics.queueFull.Value(); oq != 1 || qf != 1 {
		t.Fatalf("overQuota=%d queueFull=%d, want 1 and 1", oq, qf)
	}
}

// TestAdviseTimeoutMsOverHTTP drives the per-request deadline end to
// end: a slow advise submitted with timeout_ms lands in timed_out —
// not cancelled, not failed — with a deadline in its error.
func TestAdviseTimeoutMsOverHTTP(t *testing.T) {
	armFault(t, "server.advise", "sleep(300ms)")
	sv := testServer(t)
	c := newClient(t, sv)
	res, body := c.doForm(http.MethodPost, "/advise",
		url.Values{"context": {"(tonnage:)"}, "timeout_ms": {"50"}})
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d\n%s", res.StatusCode, body)
	}
	var jj jsonJob
	if err := json.Unmarshal([]byte(body), &jj); err != nil {
		t.Fatal(err)
	}
	done := c.pollJob(jj.ID)
	if done.State != "timed_out" {
		t.Fatalf("state = %s, want timed_out", done.State)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Fatalf("timed_out error %q does not name its deadline", done.Error)
	}
	// Negative and malformed overrides are refused up front.
	if res, _ := c.doForm(http.MethodPost, "/advise",
		url.Values{"context": {"(tonnage:)"}, "timeout_ms": {"-1"}}); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_ms=-1: %d, want 400", res.StatusCode)
	}
	if res, _ := c.doForm(http.MethodPost, "/advise",
		url.Values{"context": {"(tonnage:)"}, "timeout_ms": {"soon"}}); res.StatusCode != http.StatusBadRequest {
		t.Fatalf("timeout_ms=soon: %d, want 400", res.StatusCode)
	}
}

// TestChaosAdviseErrorFault: with an error failpoint on the advise
// path every submission fails descriptively, the server keeps
// serving, and once the fault is disabled the same context advises to
// output byte-identical to an unfaulted server's.
func TestChaosAdviseErrorFault(t *testing.T) {
	leakcheck.Check(t)
	armFault(t, "server.advise", "error(simulated advise failure)")
	sv := testServer(t)
	c := newClient(t, sv)

	status, jj := c.submitAdvise("(tonnage:)")
	if status != http.StatusOK && status != http.StatusAccepted {
		t.Fatalf("submit under fault: %d", status)
	}
	done := c.pollJob(jj.ID)
	if done.State != "failed" {
		t.Fatalf("state = %s, want failed", done.State)
	}
	for _, want := range []string{"injected fault at server.advise", "simulated advise failure"} {
		if !strings.Contains(done.Error, want) {
			t.Fatalf("error %q missing %q", done.Error, want)
		}
	}
	// Still serving: health and metrics answer normally.
	if h := c.fetchHealthz(); h.Status != "ok" {
		t.Fatalf("healthz under fault: %+v", h)
	}

	// Fault off: the advise runs clean and matches a never-faulted
	// server byte for byte.
	fault.Reset()
	_, jj = c.submitAdvise("(tonnage:)")
	got := resultJSON(t, c.pollJob(jj.ID))

	pristine := testServer(t)
	pc := newClient(t, pristine)
	_, pj := pc.submitAdvise("(tonnage:)")
	want := resultJSON(t, pc.pollJob(pj.ID))
	if got != want {
		t.Errorf("post-fault advise differs from pristine server:\n got: %s\nwant: %s", got, want)
	}
	if fault.Triggered("server.advise") != 0 {
		t.Error("Reset did not clear trigger counts")
	}
}

// TestChaosJobPanicContained: an injected panic inside an advise job
// marks that job failed with a descriptive error, increments
// charles_panics_recovered_total, and leaves the process serving.
func TestChaosJobPanicContained(t *testing.T) {
	leakcheck.Check(t)
	armFault(t, "server.advise", "panic(chaos monkey)")
	sv := testServer(t)
	c := newClient(t, sv)

	status, jj := c.submitAdvise("(tonnage:)")
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	done := c.pollJob(jj.ID)
	if done.State != "failed" {
		t.Fatalf("state = %s, want failed", done.State)
	}
	for _, want := range []string{"panic recovered", "chaos monkey"} {
		if !strings.Contains(done.Error, want) {
			t.Fatalf("error %q missing %q", done.Error, want)
		}
	}
	if got := sv.metrics.panicsRecovered.Value(); got != 1 {
		t.Fatalf("charles_panics_recovered_total = %d, want 1", got)
	}
	// The family is on /metrics, where the chaos drill's dashboard
	// reads it.
	if _, body := c.get("/metrics"); !strings.Contains(body, "charles_panics_recovered_total 1") {
		t.Fatal("/metrics does not expose the containment counter")
	}
	// The worker survived: the same pool runs the next advise.
	fault.Reset()
	_, jj = c.submitAdvise("(tonnage:)")
	if done := c.pollJob(jj.ID); done.State != "done" {
		t.Fatalf("advise after contained panic: %s (%s)", done.State, done.Error)
	}
}

// TestChaosSyncPanicRecovered: a panic in an advise the web UI
// waits on is contained by the job worker into a failed job, rendered
// as a counted 500 page; the next request is served normally.
func TestChaosSyncPanicRecovered(t *testing.T) {
	leakcheck.Check(t)
	armFault(t, "server.advise", "panic(sync chaos)")
	sv := testServer(t)
	c := newHandlerClient(t, sv)

	res, body := c.get("/")
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking sync advise: %d, want 500", res.StatusCode)
	}
	if !strings.Contains(body, "panic recovered") || !strings.Contains(body, "sync chaos") {
		t.Fatalf("500 body not descriptive: %s", body)
	}
	if got := sv.metrics.panicsRecovered.Value(); got != 1 {
		t.Fatalf("charles_panics_recovered_total = %d, want 1", got)
	}
	fault.Reset()
	if res, _ := c.get("/"); res.StatusCode != http.StatusOK {
		t.Fatalf("request after contained panic: %d, want 200", res.StatusCode)
	}
}

// TestChaosSyncAdviseHonoursJobTimeout holds the web UI to the
// deadline contract: GET / advises through the job queue, so with a
// -job-timeout shorter than the advise (slowed by a latency fault)
// the page answers 504 with the timed-out error once the job's
// deadline has fired, caches nothing, and a client that gives up
// stops waiting at once. No goroutine outlives the server.
func TestChaosSyncAdviseHonoursJobTimeout(t *testing.T) {
	leakcheck.Check(t)
	armFault(t, "server.advise", "sleep(300ms)")
	sv := testServerOpts(t, charles.DefaultConfig(), jobs.Options{Timeout: 50 * time.Millisecond})
	c := newHandlerClient(t, sv)

	start := time.Now()
	res, body := c.get("/")
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("GET / took %v under a 50ms job deadline", d)
	}
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("GET / past the job deadline: %d, want 504\n%s", res.StatusCode, body)
	}
	if !strings.Contains(body, "exceeded its 50ms deadline") {
		t.Fatalf("page does not name the timeout:\n%s", body)
	}
	if snaps := sv.jobs.List(); len(snaps) != 1 || snaps[0].State != jobs.StateTimedOut {
		t.Fatalf("jobs = %+v, want one timed_out job", snaps)
	}
	if size, _, _ := sv.results.stats(); size != 0 {
		t.Fatal("a timed-out advise was cached")
	}

	// A client that disconnects stops the wait before the job ends.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rec := httptest.NewRecorder()
	start = time.Now()
	sv.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil).WithContext(ctx))
	if d := time.Since(start); d > 250*time.Millisecond {
		t.Fatalf("handler kept waiting %v after its client left", d)
	}
}

// TestChaosLatencyFault: a latency failpoint slows advises down but
// changes nothing else — the job completes with the usual result.
func TestChaosLatencyFault(t *testing.T) {
	armFault(t, "server.advise", "sleep(50ms)")
	sv := testServer(t)
	c := newClient(t, sv)
	start := time.Now()
	_, jj := c.submitAdvise("(tonnage:)")
	done := c.pollJob(jj.ID)
	if done.State != "done" {
		t.Fatalf("state = %s (%s), want done", done.State, done.Error)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("advise finished in %v, latency fault did not engage", d)
	}
	if fault.Triggered("server.advise") == 0 {
		t.Fatal("latency failpoint never fired")
	}
	_ = sv
}

// TestChaosFailpointFlagBoot pins the -failpoints/-CHARLES_FAILPOINTS
// spec format end to end through fault.Configure, including rejection
// of malformed specs at boot.
func TestChaosFailpointFlagBoot(t *testing.T) {
	fault.Reset()
	t.Cleanup(fault.Reset)
	if err := fault.Configure("server.advise=error(drill); colfile.readPage=2*sleep(1ms)"); err != nil {
		t.Fatal(err)
	}
	if got := fault.Enabled(); len(got) != 2 {
		t.Fatalf("Enabled() = %v", got)
	}
	if err := fault.Configure("server.advise=explode(now)"); err == nil {
		t.Fatal("malformed spec accepted — the server would boot with a typo'd drill silently disarmed")
	}
}

// TestChaosGoroutineHygiene floods a small server with mixed work —
// including contained panics — then shuts down and demands every
// goroutine back.
func TestChaosGoroutineHygiene(t *testing.T) {
	leakcheck.Check(t)
	armFault(t, "server.advise", "3*panic(intermittent)")
	sv := testServerOpts(t, charles.DefaultConfig(), jobs.Options{Workers: 2, QueueDepth: 8})
	c := newClient(t, sv)
	contexts := []string{"(tonnage:)", "(type_of_boat:)", "(departure_harbour:)", "(tonnage:)(type_of_boat:)"}
	for i := 0; i < 8; i++ {
		res, body := c.doForm(http.MethodPost, "/advise",
			url.Values{"context": {contexts[i%len(contexts)]}})
		if res.StatusCode >= 500 {
			t.Fatalf("submit %d: %d\n%s", i, res.StatusCode, body)
		}
		var jj jsonJob
		if err := json.Unmarshal([]byte(body), &jj); err != nil {
			t.Fatal(err)
		}
		if jj.ID != "" {
			c.pollJob(jj.ID)
		}
	}
	// The deferred cleanups shut the manager down; leakcheck then
	// holds the baseline.
}

// TestRetryAfterSecondsRounding pins the header math: waits round up
// to whole seconds and never read "retry immediately".
func TestRetryAfterSecondsRounding(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{300 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1100 * time.Millisecond, "2"},
		{90 * time.Second, "90"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", c.d, got, c.want)
		}
	}
}

// TestClientID pins quota identity resolution.
func TestClientID(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/advise", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := clientID(r); got != "10.1.2.3" {
		t.Errorf("clientID by addr = %q", got)
	}
	r.Header.Set("X-Charles-Client", "tenant-7")
	if got := clientID(r); got != "tenant-7" {
		t.Errorf("clientID by header = %q", got)
	}
	r2 := httptest.NewRequest(http.MethodPost, "/advise", nil)
	r2.RemoteAddr = "bare-host"
	if got := clientID(r2); got != "bare-host" {
		t.Errorf("clientID fallback = %q", got)
	}
}
