// Command perfbench is the repository benchmark: one command per workload
// that runs the program as a user would, checks its outputs, and prints
// every end-to-end metric (tracing off) or every per-layer metric
// (tracing on) by name and unit.
//
//	go run . --workload circuit-raycast --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; earlier lines carry the run's
// metadata and diagnostics. The command exits 1 when an output check
// fails and 2 on a usage or set-up error.
//
// Layers are timed from outside: the benchmark times its own calls into
// public entry points, wraps the analyzer stack in timing decorators, and
// reads the program's span buffers, registries and a CPU profile. See
// README.md in this directory for the workloads and why each exists.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced.
type outcome struct {
	attempted int64
	failed    int64
	// problems lists every failed output check; any entry makes the run
	// incorrect.
	problems []string
	metrics  map[string]metric
	// notes are diagnostic key/values printed before the result line.
	notes map[string]any
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, notes: map[string]any{}}
}

func (o *outcome) set(name, unit string, v float64) { o.metrics[name] = metric{Value: v, Unit: unit} }

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

type workload struct {
	name string
	run  func(opts options) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"circuit-raycast", func(o options) (*outcome, error) { return runDES(circuitRaycast, o) }},
		{"pennant-sweep", func(o options) (*outcome, error) { return runDES(pennantSweep, o) }},
		{"pennant-replay", func(o options) (*outcome, error) { return runDES(pennantReplay, o) }},
		{"serve-mixed", runServe},
	}
}

// endToEnd names the metrics an untraced run reports, those a user of
// the system sees, with their units. Every workload reports every one;
// an operation is one Driver.Launch in the DES workloads and one HTTP
// request in serve-mixed.
var endToEnd = map[string]string{
	"ops_per_s": "1/s", "op_p50_us": "us",
	"setup_s": "s", "alloc_bytes_per_op": "B", "live_heap_mb": "MB",
	"ok_frac": "ratio",
}

// perLayer names the metrics a traced run reports, with their units. A
// metric of a layer a workload does not time reads 0 and is listed as
// unmeasured on the notes line.
var perLayer = map[string]string{
	"trace.overhead_frac": "ratio", "residual_frac": "ratio",
	"virt_init_s": "virt_s", "virt_iter_s": "virt_s",
	"apps.build_s": "s", "apps.emit_us_per_launch": "us",
	"raycast.us_per_launch": "us", "raycast.analyze.self_us_per_launch": "us",
	"raycast.refine.self_us_per_launch": "us", "raycast.bvh_query.self_us_per_launch": "us",
	"raycast.coalesce.self_us_per_launch": "us",
	"warnock.us_per_launch":               "us", "warnock.analyze.self_us_per_launch": "us",
	"warnock.refine.self_us_per_launch": "us", "warnock.bvh_query.self_us_per_launch": "us",
	"paint.us_per_launch": "us", "paint.analyze.self_us_per_launch": "us",
	"paint.traverse.self_us_per_launch": "us", "paint.hoist.self_us_per_launch": "us",
	"paint.scan.self_us_per_launch": "us", "paint.prune.self_us_per_launch": "us",
	"analyzer.entries_scanned_per_launch": "count", "analyzer.overlap_tests_per_launch": "count",
	"analyzer.bvh_visited_per_launch": "count", "analyzer.sets_created_per_launch": "count",
	"analyzer.sets_coalesced_per_launch": "count", "analyzer.views_created_per_launch": "count",
	"index.cpu_frac": "ratio", "geometry.cpu_frac": "ratio", "bvh.cpu_frac": "ratio",
	"gc.cpu_frac": "ratio", "analyzer.cpu_frac": "ratio",
	"autotrace.us_per_launch": "us", "trace.record.self_us_per_launch": "us",
	"trace.replay.self_us_per_launch": "us", "autotrace.replay_frac": "ratio",
	"autotrace.aborts":   "count",
	"dist.us_per_launch": "us", "dist.remote_roundtrips_per_launch": "count",
	"cluster.messages_per_launch": "count", "cluster.message_bytes_per_launch": "B",
	"wire.decode_us_per_req": "us", "wire.apply_us_per_task": "us",
	"server.http.workloads.p50_us": "us", "server.http.workloads.p99_us": "us",
	"server.http.snapshot.p50_us": "us", "server.http.snapshot.p99_us": "us",
	"server.http.explain.p50_us": "us", "server.http.explain.p99_us": "us",
	"server.queue_wait_p99_us": "us", "server.admission_rejected": "count",
	"sched.cache_hit_frac":   "ratio",
	"client.gen_late_p99_ms": "ms", "client.overhead_p50_us": "us",
}

// metricName is the form every reported metric name takes.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement length in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			c := c
			w = &c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	emit(out, map[string]any{"meta": runMeta(w.name, opts)})

	res, err := w.run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 2
	}
	check(res, opts.trace)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "perfbench: %s: check failed: %s\n", w.name, p)
	}
	if len(res.notes) > 0 {
		emit(out, map[string]any{"notes": res.notes})
	}
	if res.attempted < 1 {
		res.attempted = 1
	}
	emit(out, map[string]any{
		"correct":   len(res.problems) == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if len(res.problems) > 0 {
		return 1
	}
	return 0
}

// check keeps the metrics of the run's kind, end-to-end or per-layer,
// and holds them to the declared names and units: a reported metric
// that is not declared, a value that is not finite, and a missing or
// non-positive end-to-end metric are failed checks. Missing per-layer metrics read 0 (see perLayer).
func check(res *outcome, trace bool) {
	want, other := endToEnd, perLayer
	if trace {
		want, other = perLayer, endToEnd
	}
	for name, m := range res.metrics {
		unit, ok := want[name]
		switch {
		case ok && unit != m.Unit:
			res.problem("metric %s is in %s, declared in %s", name, m.Unit, unit)
		case ok && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!trace && m.Value <= 0)):
			// End-to-end metrics are positive in every healthy run.
			res.problem("metric %s reads %v", name, m.Value)
			delete(res.metrics, name)
		case !ok:
			if _, known := other[name]; !known {
				res.problem("metric %s is not declared", name)
			}
			delete(res.metrics, name)
		}
	}
	var unmeasured []string
	for name, unit := range want {
		if _, ok := res.metrics[name]; ok {
			continue
		}
		if !trace {
			res.problem("end-to-end metric %s was not measured", name)
			continue
		}
		res.set(name, unit, 0)
		unmeasured = append(unmeasured, name)
	}
	if len(unmeasured) > 0 {
		sort.Strings(unmeasured)
		res.notes["unmeasured"] = unmeasured
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads() {
		out = append(out, w.name)
	}
	return out
}

func emit(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only finite numbers and strings are marshaled
	}
	fmt.Fprintf(w, "%s\n", b)
}

// runMeta describes the machine and source the run measured. Commit and
// dirty flag are null outside a git checkout.
func runMeta(workload string, opts options) map[string]any {
	meta := map[string]any{
		"workload":   workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     nil,
		"dirty":      nil,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		meta["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			meta["dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return meta
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// --- small statistics helpers ---------------------------------------------

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place). NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clockBase anchors now(), the monotonic nanosecond clock every benchmark
// span and every span buffer the benchmark creates share, so intervals
// from both sources nest on one axis.
var clockBase = time.Now()

func now() int64 { return time.Since(clockBase).Nanoseconds() }
