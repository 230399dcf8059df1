package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"charles/internal/obs"
)

// serverProc is one charles-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	logf   *os.File
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// spawnServer starts charles-server with its default flags plus
// args, and returns once /healthz answers 200, with the time that
// took (spawn → ready, loading included).
func spawnServer(e *env, args ...string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.CreateTemp(e.work, "server-*.log")
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &serverProc{base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	s.cmd = exec.Command(e.server, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	// The server dies with the benchmark, even one that crashes.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	probe := &http.Client{Timeout: 2 * time.Second}
	for {
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("charles-server exited during start-up (%v): %s", s.err, tail(logf.Name()))
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		if time.Since(start) > 2*time.Minute {
			s.stop()
			return nil, 0, errors.New("charles-server not ready after 2 minutes")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM (the server drains and exits) and waits; a
// server that will not exit is killed.
func (s *serverProc) stop() error {
	defer s.logf.Close()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
		return errors.New("charles-server ignored SIGTERM; killed")
	}
	return nil
}

func (s *serverProc) pid() int { return s.cmd.Process.Pid }

// peakRSSMB is the server's VmHWM: its lifetime peak resident set,
// table load included.
func (s *serverProc) peakRSSMB() (float64, error) {
	kb, err := statusKB(s.pid(), "VmHWM")
	return kb / 1024, err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func tail(path string) string {
	b, _ := os.ReadFile(path)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// medianSetup spawns the server setupRepeats times with the same
// flags, keeps the last one serving and returns it with the median
// spawn → ready time.
func medianSetup(e *env, args ...string) (*serverProc, float64, error) {
	var ready latencies
	for i := 0; ; i++ {
		s, d, err := spawnServer(e, args...)
		if err != nil {
			return nil, 0, err
		}
		ready.add(d)
		if i == setupRepeats-1 {
			return s, ready.p50() / 1000, nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
}

// client is one benchmark HTTP client: its own connection and, for
// the web UI, its own session cookie. It counts the client-side time
// of every request for the server.client_overhead_ms metric.
type client struct {
	base string
	hc   *http.Client
	mu   sync.Mutex
	n    int
	sum  time.Duration
}

func newClient(base string) *client {
	jar, _ := cookiejar.New(nil) // nil options cannot fail
	return &client{base: base, hc: &http.Client{
		Jar:       jar,
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		// Redirects are followed by hand, so each hop is timed.
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}}
}

// do sends one request and reads the whole body.
func (c *client) do(method, path, ctype string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	c.mu.Lock()
	c.n++
	c.sum += d
	c.mu.Unlock()
	return resp.StatusCode, resp.Header, b, err
}

func (c *client) get(path string) (int, http.Header, []byte, error) {
	return c.do(http.MethodGet, path, "", nil)
}

func (c *client) postJSON(path string, v any) (int, []byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return 0, nil, err
	}
	code, _, body, err := c.do(http.MethodPost, path, "application/json", b)
	return code, body, err
}

// requests returns the request count and summed client time.
func (c *client) requests() (int, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n, c.sum
}

// scrape reads /metrics as name → value, summing label sets.
func scrape(c *client) (map[string]float64, error) {
	code, _, body, err := c.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, nil
}

// serverSnap is the server-side state a workload diffs around its
// measured window.
type serverSnap struct {
	m   map[string]float64
	cpu procCPU
}

func snapServer(s *serverProc, c *client) (serverSnap, error) {
	m, err := scrape(c)
	if err != nil {
		return serverSnap{}, err
	}
	cpu, err := readProcCPU(s.pid())
	return serverSnap{m: m, cpu: cpu}, err
}

// engineDelta maps the /metrics engine and seg families onto the
// counters the in-process workloads read.
func engineDelta(a, b serverSnap) engineSnap {
	d := func(n string) float64 { return b.m[n] - a.m[n] }
	return engineSnap{
		skip: d("charles_engine_zone_skip_total"), take: d("charles_engine_zone_take_total"),
		scan: d("charles_engine_zone_scan_total"), vector: d("charles_engine_vector_kernels_total"),
		fused: d("charles_engine_fused_kernels_total"), full: d("charles_seg_full_evals_total"),
		narrow: d("charles_seg_narrow_evals_total"), hits: d("charles_seg_cache_hits_total"),
		cutCalcs: d("charles_seg_cut_point_calcs_total"), cutHits: d("charles_seg_cut_cache_hits_total"),
		delta: d("charles_delta_refreshes_total"), cutRefresh: d("charles_delta_cut_refreshes_total"),
		memoHits: d("charles_seg_pair_memo_hits_total"), memoMisses: d("charles_seg_pair_memo_misses_total"),
	}
}

// serverLayer reports the server plane from two snapshots around ops
// operations and the clients' request times, and returns the summed
// client-side and handler time in ms.
func serverLayer(rep *report, a, b serverSnap, ops float64, clients ...*client) (clientMS, handlerMS float64) {
	d := func(n string) float64 { return b.m[n] - a.m[n] }
	var n int
	var sum time.Duration
	for _, c := range clients {
		cn, cs := c.requests()
		n += cn
		sum += cs
	}
	handler := ratio{d("charles_http_request_seconds_sum") * 1000, d("charles_http_request_seconds_count")}
	clientMean := ratio{ms(sum), float64(n)}
	advises := d("charles_advises_total")
	hits := ratio{d("charles_result_cache_hits_total"), d("charles_result_cache_hits_total") + d("charles_result_cache_misses_total")}
	rep.perLayer("server.handler_ms_mean", handler.value(), "ms")
	rep.perLayer("server.client_overhead_ms", clientMean.value()-handler.value(), "ms")
	rep.perLayer("server.result_cache_hit_ratio", hits.value(), "ratio")
	rep.perLayer("server.advises_per_op", ratio{advises, ops}.value(), "count")
	rep.note("server: handler mean %.3f ms over %.0f requests, client mean %.3f ms over %d; result cache %s lookups; %.0f advises for %.0f ops",
		handler.value(), handler.base, clientMean.value(), n, hits, advises, ops)
	return ms(sum), handler.num
}

// servedLayers reports what an HTTP workload reads off the server:
// the server plane, the engine and seg counts per advise the server
// ran, and, as unattributed time, the share of client time the
// handlers do not account for (network, HTTP framing, the client).
func servedLayers(rep *report, a, b serverSnap, ops float64, clients ...*client) {
	clientMS, handlerMS := serverLayer(rep, a, b, ops, clients...)
	layerCounts(rep, engineDelta(a, b), b.m["charles_advises_total"]-a.m["charles_advises_total"])
	rep.perLayer("trace.unattributed_frac", ratio{clientMS - handlerMS, clientMS}.value(), "ratio")
}

// jobsLayer reports the server's job-queue histograms.
func jobsLayer(rep *report, a, b serverSnap) {
	d := func(n string) float64 { return b.m[n] - a.m[n] }
	wait := ratio{d("charles_jobs_queue_wait_seconds_sum") * 1000, d("charles_jobs_queue_wait_seconds_count")}
	run := ratio{d("charles_jobs_run_seconds_sum") * 1000, d("charles_jobs_run_seconds_count")}
	co := ratio{d("charles_jobs_coalesced_total"), d("charles_jobs_coalesced_total") + d("charles_jobs_submitted_total")}
	rep.perLayer("jobs.queue_wait_ms", wait.value(), "ms")
	rep.perLayer("jobs.run_ms", run.value(), "ms")
	rep.perLayer("jobs.coalesced_ratio", co.value(), "ratio")
	rep.note("jobs: queue wait mean %.3f ms and run mean %.3f ms over %.0f jobs; coalesced %s submissions", wait.value(), run.value(), run.base, co)
}

// serverProbe is the HTTP rung for cold_scan, which has no server of
// its own: a charles-server over the same .chc answers result-cache
// hits on POST /advise, so the traced run can report the server
// plane's handler and client-side cost.
func serverProbe(e *env, rep *report, chc string, ctxs []string) error {
	s, _, err := spawnServer(e, "-table", chc)
	if err != nil {
		return err
	}
	defer s.stop()
	admin, warm, c := newClient(s.base), newClient(s.base), newClient(s.base)
	for _, ctx := range ctxs {
		if _, err := adviseOver(warm, ctx, time.Millisecond, nil); err != nil {
			return err
		}
	}
	a, err := snapServer(s, admin)
	if err != nil {
		return err
	}
	const hits = 60
	for i := 0; i < hits; i++ {
		r, err := adviseOver(c, ctxs[i%len(ctxs)], time.Millisecond, nil)
		if err != nil {
			return err
		}
		if !r.cached {
			rep.fail("server probe: a repeated context was not a result-cache hit")
		}
	}
	b, err := snapServer(s, admin)
	if err != nil {
		return err
	}
	serverLayer(rep, a, b, hits, c)
	rep.note("server.*: a charles-server probe over the same .chc (%d result-cache hits); cold_scan itself bypasses HTTP", hits)
	return nil
}

// adviseResult is the outcome of one POST /advise plus polling.
type adviseResult struct {
	cached  bool
	polls   int
	answers []answer
	trace   []obs.StageSummary // the job's stage trace, on re-advises
}

// jobJSON is the part of the server's job rendering the benchmark
// reads.
type jobJSON struct {
	ID     string             `json:"id"`
	State  string             `json:"state"`
	Cached bool               `json:"cached"`
	Error  string             `json:"error"`
	Trace  []obs.StageSummary `json:"trace"`
	Result *struct {
		Segmentations []struct {
			Score    float64  `json:"score"`
			CutAttrs []string `json:"cut_attrs"`
			Segments []struct {
				SDL   string `json:"sdl"`
				Count int    `json:"count"`
			} `json:"segments"`
		} `json:"segmentations"`
	} `json:"result"`
}

func (j jobJSON) answers() []answer {
	if j.Result == nil {
		return nil
	}
	out := make([]answer, len(j.Result.Segmentations))
	for i, s := range j.Result.Segmentations {
		a := answer{Attrs: s.CutAttrs, Score: s.Score}
		for _, sg := range s.Segments {
			a.SDL = append(a.SDL, sg.SDL)
			a.Counts = append(a.Counts, sg.Count)
		}
		out[i] = a
	}
	return out
}

// adviseOver submits ctx to POST /advise and, on 202, polls
// GET /jobs/{id} every poll until the job is terminal. Each request
// is a child span of sp.
func adviseOver(c *client, ctx string, poll time.Duration, sp *openSpan) (adviseResult, error) {
	hop := sp.child("http.post_advise")
	code, body, err := c.postJSON("/advise", map[string]string{"context": ctx})
	hop.end()
	if err != nil {
		return adviseResult{}, err
	}
	var j jobJSON
	if err := json.Unmarshal(body, &j); err != nil {
		return adviseResult{}, fmt.Errorf("POST /advise %s: HTTP %d: %v", ctx, code, err)
	}
	r := adviseResult{cached: code == http.StatusOK}
	switch code {
	case http.StatusOK:
	case http.StatusAccepted:
		for j.State != "done" {
			if j.State == "failed" || j.State == "timed_out" || j.State == "cancelled" {
				return r, fmt.Errorf("job %s for %s: %s %s", j.ID, ctx, j.State, j.Error)
			}
			time.Sleep(poll)
			r.polls++
			hop := sp.child("http.get_job")
			code, _, body, err := c.get("/jobs/" + j.ID)
			hop.end()
			if err != nil {
				return r, err
			}
			if code != http.StatusOK {
				return r, fmt.Errorf("GET /jobs/%s: HTTP %d", j.ID, code)
			}
			if err := json.Unmarshal(body, &j); err != nil {
				return r, err
			}
		}
	default:
		return r, fmt.Errorf("POST /advise %s: HTTP %d: %s", ctx, code, body)
	}
	if j.State != "done" {
		return r, fmt.Errorf("POST /advise %s: state %q", ctx, j.State)
	}
	r.answers = j.answers()
	r.trace = j.Trace
	return r, nil
}
