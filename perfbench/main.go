// Command perfbench is Charles' end-to-end benchmark. It generates
// its inputs from a seed, drives one workload for a fixed time,
// checks every answer against an in-process reference, and prints a
// report whose last line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; traced runs
// (-trace 1) record spans around every call into a layer, write them
// to .bench_build/traces/, and report the per-layer metrics instead.
// workloads.json records why each workload exists, what it loads and
// which per-layer metric should move which end-to-end metric.
//
// Run it from the repository root through run.sh, which builds the
// benchmark and charles-server from the checkout first:
//
//	bash perfbench/run.sh --workload cold_scan --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*env) (*report, error){
	"cold_scan":  runColdScan,
	"explore":    runExplore,
	"append_mix": runAppendMix,
}

// workloadOrder is the order "all" runs them in.
var workloadOrder = []string{"cold_scan", "explore", "append_mix"}

// env is what every workload function gets.
type env struct {
	seed    int64
	seconds time.Duration
	traced  bool
	root    string // checkout root
	work    string // directory for generated inputs, removed at exit
	server  string // charles-server binary
	rec     *recorder
	log     io.Writer // progress notes, on stderr
}

func main() {
	var (
		workload = flag.String("workload", "", "cold_scan, explore, append_mix, or all")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 20, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root     = flag.String("root", ".", "checkout root")
		server   = flag.String("server", ".bench_build/charles-server", "charles-server binary, relative to -root")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatalf("bad -seconds or -trace")
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace))
	}
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want cold_scan, explore, append_mix or all)", *workload)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fatalf("%v", err)
	}
	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		root:    abs,
		server:  *server,
		log:     os.Stderr,
	}
	if !filepath.IsAbs(e.server) {
		e.server = filepath.Join(abs, e.server)
	}
	if _, err := os.Stat(e.server); err != nil {
		fatalf("charles-server binary: %v (run through run.sh)", err)
	}
	e.work, err = os.MkdirTemp(filepath.Join(abs, ".bench_build"), "work-")
	if err != nil {
		fatalf("%v", err)
	}
	if e.traced {
		e.rec = newRecorder()
	}
	rep, err := run(e)
	os.RemoveAll(e.work)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	if e.traced {
		dir := filepath.Join(abs, ".bench_build", "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := os.MkdirAll(dir, 0o755); err == nil {
			err = e.rec.write(path)
		}
		if err != nil {
			fatalf("write spans: %v", err)
		}
		fmt.Printf("# spans written to %s\n", path)
		printLayers(os.Stdout, e.rec)
	}
	if err := rep.emit(os.Stdout, e.traced); err != nil {
		fatalf("%v", err)
	}
	if !rep.correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload as a child process of this binary and
// prints their reports, then one combined result line whose metric
// names are prefixed by workload.
func runAll(seed int64, seconds, trace int) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	code := 0
	for _, w := range workloadOrder {
		fmt.Printf("## workload %s\n", w)
		var out bytes.Buffer
		cmd := exec.Command(self, append(childArgs(), "-workload", w,
			"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			code = 1
		}
		var r result
		if err := json.Unmarshal(lastLine(out.Bytes()), &r); err != nil {
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && r.Correct
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		for k, v := range r.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	b, _ := json.Marshal(all) // plain floats and strings cannot fail
	fmt.Println(string(b))
	if !all.Correct {
		code = 1
	}
	return code
}

// childArgs passes -root and -server through to workload children.
func childArgs() []string {
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "root" || f.Name == "server" {
			args = append(args, "-"+f.Name, f.Value.String())
		}
	})
	return args
}

func lastLine(b []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	return last
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one workload run's outcome.
type report struct {
	workload  string
	attempted int
	failed    int
	correct   bool
	mismatch  []string
	e2e       []namedMetric
	layer     []namedMetric
	lines     []string // human-readable report lines
}

type namedMetric struct {
	name string
	metric
}

func newReport(workload string) *report { return &report{workload: workload, correct: true} }

func (r *report) endToEnd(name string, v float64, unit string) {
	r.e2e = append(r.e2e, namedMetric{name, metric{v, unit}})
}

func (r *report) perLayer(name string, v float64, unit string) {
	r.layer = append(r.layer, namedMetric{name, metric{v, unit}})
}

// note adds a line to the printed report.
func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// latency prints one latency under its own name, with
// its sample count and tail percentile.
func (r *report) latency(name string, l *latencies) {
	if l.n() == 0 {
		r.note("%-24s no samples", name)
		return
	}
	pct, tail := l.tail()
	r.note("%-24s p50 %.3f ms  p%d %.3f ms  n=%d", name, l.p50(), pct, tail, l.n())
}

// fail records a wrong or failed operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.correct = false
	if len(r.mismatch) < 20 {
		r.mismatch = append(r.mismatch, fmt.Sprintf(format, args...))
	}
}

// emit prints the report and the result line: end-to-end metrics
// untraced, per-layer metrics traced.
func (r *report) emit(w io.Writer, traced bool) error {
	fmt.Fprintf(w, "# workload %s\n", r.workload)
	for _, l := range r.lines {
		fmt.Fprintf(w, "#   %s\n", l)
	}
	for _, m := range r.mismatch {
		fmt.Fprintf(w, "# FAILED: %s\n", m)
	}
	ms := r.e2e
	if traced {
		ms = r.layer
	}
	res := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range ms {
		if !validMetricName(m.name) {
			return fmt.Errorf("metric name %q breaks the name grammar", m.name)
		}
		if _, dup := res.Metrics[m.name]; dup {
			return fmt.Errorf("metric %q reported twice", m.name)
		}
		res.Metrics[m.name] = m.metric
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "# error_frac %s (failed of attempted)\n", ratio{float64(r.failed), float64(r.attempted)})
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// progress writes a timestamped note to stderr.
func (e *env) progress(format string, args ...any) {
	fmt.Fprintf(e.log, "perfbench %s: %s\n", time.Now().Format("15:04:05.000"), strings.TrimSpace(fmt.Sprintf(format, args...)))
}
