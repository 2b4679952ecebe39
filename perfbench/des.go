package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"

	"visibility/internal/algo"
	"visibility/internal/apps"
	_ "visibility/internal/apps/circuit"
	_ "visibility/internal/apps/pennant"
	"visibility/internal/autotrace"
	"visibility/internal/cluster"
	"visibility/internal/core"
	"visibility/internal/dist"
	"visibility/internal/harness"
	"visibility/internal/obs"
	"visibility/internal/region"
)

// desCell is one configuration of the simulated-cluster (DES) driver.
type desCell struct {
	app       string
	algorithm string
	dcr       bool
	auto      bool
}

func (c desCell) String() string {
	s := harness.SystemName(c.algorithm, c.dcr)
	if c.auto {
		s = harness.AutoSystemName(c.algorithm, c.dcr)
	}
	return c.app + "/" + s
}

// desSpec is a DES workload: its cells run back to back in every
// episode, each for iters steady iterations after its set-up.
type desSpec struct {
	nodes int
	iters int
	cells []desCell
	// spanCap sizes the program span ring per traced cell episode; a
	// dropped span fails the run.
	spanCap int
}

// circuitRaycast spends almost all of its steady wall time inside the
// ray-casting analyzer and the index-space algebra under it: circuit's
// aliased many-rectangle ghost spaces make every launch refine and query.
var circuitRaycast = desSpec{
	nodes: 32, iters: 10, spanCap: 1 << 17,
	cells: []desCell{{app: "circuit", algorithm: "raycast", dcr: true}},
}

// pennantSweep runs the paper's five configurations back to back with
// equal iteration counts, so each analyzer gets a comparable share of the
// wall and warnock and painter changes show. Pennant's few-rectangle
// spaces barely load the index algebra.
var pennantSweep = desSpec{
	nodes: 32, iters: 20, spanCap: 1 << 16,
	cells: []desCell{
		{app: "pennant", algorithm: "raycast", dcr: true},
		{app: "pennant", algorithm: "raycast", dcr: false},
		{app: "pennant", algorithm: "warnock", dcr: true},
		{app: "pennant", algorithm: "warnock", dcr: false},
		{app: "pennant", algorithm: "paint", dcr: false},
	},
}

// pennantReplay measures automatic trace replay after the warm-up
// iterations: the analyzer is bypassed, so autotrace, the DES driver and
// the app's emission are what remains.
var pennantReplay = desSpec{
	nodes: 32, iters: 200, spanCap: 1 << 18,
	cells: []desCell{{app: "pennant", algorithm: "raycast", dcr: true, auto: true}},
}

// goldenDigests holds the expected dependence digest of every DES cell at
// its workload's iteration count; see digestKey.
//
//go:embed digests.json
var goldenDigests []byte

func digestKey(c desCell, nodes, iters int) string {
	return fmt.Sprintf("%s/n%d/i%d", c, nodes, iters)
}

// --- analyzer decorators ----------------------------------------------------

// digestAnalyzer is the outermost layer of every analyzer stack: it folds
// each launch's Result.Deps, in program order, into an FNV-1a digest.
type digestAnalyzer struct {
	core.Analyzer
	h uint64
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

func (d *digestAnalyzer) Analyze(t *core.Task) *core.Result {
	r := d.Analyzer.Analyze(t)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			d.h ^= v & 0xff
			d.h *= fnvPrime
			v >>= 8
		}
	}
	mix(uint64(len(r.Deps)))
	for _, dep := range r.Deps {
		mix(uint64(dep))
	}
	return r
}

// timedAnalyzer records a span named name around every Analyze call of
// the analyzer it wraps.
type timedAnalyzer struct {
	core.Analyzer
	name string
	log  *spanLog
}

func (t *timedAnalyzer) Analyze(task *core.Task) *core.Result {
	start := now()
	r := t.Analyzer.Analyze(task)
	t.log.since(t.name, start)
	return r
}

// --- one cell episode ---------------------------------------------------------

// episode is one cell run from application build to its last steady
// barrier.
type episode struct {
	cell     desCell
	buildNs  int64
	setupNs  int64 // build + init (+ autotrace warm-up)
	steadyNs int64
	launches int // every launch, as harness.Run counts them
	steady   int // launches in the timed window
	virtInit float64
	virtIter float64
	digest   uint64
	allocB   float64 // heap bytes allocated in the timed window
	// latNs holds the wall time of every steady Driver.Launch call; runDES
	// drops it once the episode's quantiles are taken. It is allocated
	// before the timed window, so that no benchmark allocation falls in it.
	latNs []float64

	// Steady-window deltas of the program's own counters.
	stats    core.Stats
	counters map[string]int64

	// Traced episodes only: exclusive and inclusive time per span name,
	// and CPU profile samples per layer.
	self, total map[string]int64
	dropped     int64
	cpu         cpuCounts

	// state keeps the program's state reachable until the episode is
	// dropped, so the live heap can be measured with it.
	state any
}

// counterNames are the registry counters whose steady-window deltas feed
// per-layer metrics.
var counterNames = []string{"dist/remote_roundtrips", "cluster/messages", "cluster/message_bytes", "trace/replayed", "autotrace/aborts"}

// runEpisode builds c's application, drives it through initialization
// (and autotrace warm-up) exactly as harness.Run does, then times iters
// steady iterations. maxLaunches bounds the launches of the whole
// episode (harness.Run's count). When traced, the analyzer stack carries
// timing decorators, the driver records program spans, and the steady
// window is CPU-profiled.
func runEpisode(c desCell, spec desSpec, traced bool, maxLaunches int) (*episode, error) {
	builder, ok := apps.Lookup(c.app)
	if !ok {
		return nil, fmt.Errorf("unknown app %q", c.app)
	}
	newAn, err := algo.Lookup(c.algorithm)
	if err != nil {
		return nil, err
	}
	ep := &episode{cell: c}
	var log *spanLog
	var buf *obs.Buffer
	if traced {
		log = &spanLog{}
		buf = obs.NewBufferClock(spec.spanCap, now)
	}

	t0 := now()
	inst := builder(spec.nodes)
	ep.buildNs = now() - t0

	reg := obs.NewRegistry()
	ccfg := cluster.DefaultConfig(spec.nodes)
	ccfg.Metrics = reg
	machine := cluster.New(ccfg)
	owner := dist.OwnerByPartition(inst.Owned, spec.nodes)

	// The stack mirrors harness.Run: algorithm, optionally autotrace over
	// it; timing decorators sit at each boundary and the digest outermost.
	digest := &digestAnalyzer{h: fnvOffset}
	wrap := func(name string, an core.Analyzer) core.Analyzer {
		if !traced {
			return an
		}
		return &timedAnalyzer{Analyzer: an, name: name, log: log}
	}
	inner := dist.NewAnalyzerFunc(newAn)
	build := func(tree *region.Tree, opts core.Options) core.Analyzer {
		an := wrap(c.algorithm, inner(tree, opts))
		if c.auto {
			an = wrap("autotrace", autotrace.New(an, opts))
		}
		digest.Analyzer = an
		return digest
	}
	dcfg := dist.DefaultConfig(c.dcr)
	dcfg.Metrics = reg
	dcfg.Spans = buf
	driver := dist.New(machine, inst.Tree, build, owner, dcfg)
	stream := core.NewStream(inst.Tree)
	mapper := dist.OwnerMapper{}

	timed := false
	launchAll := func(ls []apps.Launch) {
		for _, l := range ls {
			node := mapper.Place(l.Task, l.Node, spec.nodes)
			start := now()
			driver.Launch(l.Task, node, l.Duration)
			if timed {
				end := now()
				ep.latNs = append(ep.latNs, float64(end-start))
				if log != nil {
					log.spans = append(log.spans, span{name: "dist.launch", start: start, end: end})
				}
			}
			ep.launches++
		}
	}
	emit := func(iter int) {
		start := now()
		ls := inst.Emit(stream, iter)
		if timed {
			log.since("apps.emit", start)
		}
		launchAll(ls)
	}
	barrier := func() cluster.Time {
		start := now()
		t := driver.Barrier()
		if timed {
			log.since("dist.barrier", start)
		}
		return t
	}

	if inst.EmitInit != nil {
		launchAll(inst.EmitInit(stream))
	}
	emit(0)
	initTime := barrier()
	warm := 0
	if c.auto {
		warm = 2
	}
	for k := 0; k < warm; k++ {
		emit(1 + k)
	}
	if warm > 0 {
		initTime = barrier()
	}
	ep.setupNs = now() - t0

	statsBefore := *driver.Analyzer().Stats()
	before := reg.Snapshot()
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("starting CPU profile: %w", err)
		}
	}
	ep.latNs = make([]float64, 0, maxLaunches)
	allocBefore := heapAllocBytes()
	if traced {
		log.spans = log.spans[:0]
	}
	timed = true
	steadyStart := now()
	first := 1 + warm
	launchesBefore := ep.launches
	for k := 0; k < spec.iters; k++ {
		emit(first + k)
	}
	total := barrier()
	ep.steadyNs = now() - steadyStart
	timed = false
	ep.allocB = float64(heapAllocBytes() - allocBefore)
	if traced {
		pprof.StopCPUProfile()
	}
	ep.steady = ep.launches - launchesBefore
	ep.virtInit = initTime
	ep.virtIter = (total - initTime) / float64(spec.iters)
	ep.digest = digest.h

	ep.stats = *driver.Analyzer().Stats()
	subStats(&ep.stats, &statsBefore)
	after := reg.Snapshot()
	ep.counters = make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		ep.counters[n] = after[n] - before[n]
	}
	if traced {
		spans := log.spans
		for _, s := range buf.Snapshot() {
			if s.Start >= steadyStart {
				spans = append(spans, span{name: s.Name, track: submitTrack, start: s.Start, end: s.End})
			}
		}
		ep.self = selfTimes(spans, submitTrack)
		ep.total = map[string]int64{}
		for _, s := range spans {
			ep.total[s.name] += s.end - s.start
		}
		ep.dropped = buf.Dropped()
		if ep.cpu, err = cpuByLayer(prof.Bytes()); err != nil {
			return nil, err
		}
	}
	ep.state = driver
	return ep, nil
}

func subStats(s, o *core.Stats) {
	s.Launches -= o.Launches
	s.OverlapTests -= o.OverlapTests
	s.EntriesScanned -= o.EntriesScanned
	s.DepsReported -= o.DepsReported
	s.ViewsCreated -= o.ViewsCreated
	s.ViewEntries -= o.ViewEntries
	s.ItemsPruned -= o.ItemsPruned
	s.SetsCreated -= o.SetsCreated
	s.SetsVisited -= o.SetsVisited
	s.SetsCoalesced -= o.SetsCoalesced
	s.BVHVisited -= o.BVHVisited
}

// --- the workload ---------------------------------------------------------------

// minEpisodes is the fewest episodes a run makes however short, so that
// set-up time is always a median of several set-ups.
const minEpisodes = 3

// runDES runs spec's cells in episodes until the run length is used up,
// then checks every episode against harness.Run and the golden digests.
// Timings are per-episode figures, reported as their median over the
// run's episodes, so a burst of interference on the host moves only the
// episodes it hits.
// A traced run alternates traced and untraced episodes, so the tracing
// overhead is measured within the run.
func runDES(spec desSpec, opts options) (*outcome, error) {
	out := newOutcome()
	var golden map[string]string
	if err := json.Unmarshal(goldenDigests, &golden); err != nil {
		return nil, fmt.Errorf("reading golden digests: %w", err)
	}

	// harness.Run on each cell gives the launch counts and virtual times
	// every episode must reproduce.
	wants := make([]*harness.Result, len(spec.cells))
	for ci, c := range spec.cells {
		builder, ok := apps.Lookup(c.app)
		if !ok {
			return nil, fmt.Errorf("unknown app %q", c.app)
		}
		want, err := harness.Run(harness.Config{
			App: builder, AppName: c.app, Algorithm: c.algorithm, DCR: c.dcr,
			AutoTrace: c.auto, Nodes: spec.nodes, MeasureIters: spec.iters,
		})
		if err != nil {
			return nil, fmt.Errorf("%s: harness.Run: %w", c, err)
		}
		wants[ci] = want
	}

	var (
		episodes [][]*episode // [episode][cell]
		last     []*episode
		// Launch latency quantiles of each untraced episode, in µs.
		p50s, p90s, p99s []float64
	)
	deadline := now() + int64(opts.seconds*1e9)
	for len(episodes) < minEpisodes || now() < deadline {
		traced := opts.trace && len(episodes)%2 == 0
		var eps []*episode
		for ci, c := range spec.cells {
			// Each episode starts from a collected heap, so the collector
			// runs at the same points of every episode.
			runtime.GC()
			ep, err := runEpisode(c, spec, traced, wants[ci].Launches)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c, err)
			}
			eps = append(eps, ep)
		}
		if !traced {
			var lat []float64
			for _, ep := range eps {
				lat = append(lat, ep.latNs...)
			}
			p50s = append(p50s, quantile(lat, 0.50)/1e3)
			p90s = append(p90s, quantile(lat, 0.90)/1e3)
			p99s = append(p99s, quantile(lat, 0.99)/1e3)
		}
		for _, ep := range eps {
			ep.latNs = nil
		}
		for _, ep := range last {
			ep.state = nil
		}
		episodes = append(episodes, eps)
		last = eps
	}
	out.set("live_heap_mb", "MB", liveHeapMB())
	runtime.KeepAlive(last)

	// Output checks: every episode of a cell matches harness.Run's launch
	// count and virtual times, and the golden dependence digest.
	for ci, c := range spec.cells {
		want := wants[ci]
		key := digestKey(c, spec.nodes, spec.iters)
		wantDigest, haveGolden := golden[key]
		if !haveGolden {
			out.problem("%s: no golden digest", key)
		}
		for _, eps := range episodes {
			ep := eps[ci]
			out.attempted += int64(ep.steady)
			bad := false
			if ep.launches != want.Launches || ep.virtInit != want.InitTime || ep.virtIter != want.IterTime {
				out.problem("%s: launches/virt_init/virt_iter %d/%v/%v, harness.Run %d/%v/%v",
					c, ep.launches, ep.virtInit, ep.virtIter, want.Launches, want.InitTime, want.IterTime)
				bad = true
			}
			if got := fmt.Sprintf("%016x", ep.digest); haveGolden && got != wantDigest {
				out.problem("%s: dependence digest %s, golden %s", key, got, wantDigest)
				bad = true
			}
			if ep.dropped > 0 {
				out.problem("%s: %d program spans dropped", c, ep.dropped)
				bad = true
			}
			if bad {
				out.failed += int64(ep.steady)
			}
		}
	}
	out.set("ok_frac", "ratio", 1-ratio(float64(out.failed), float64(out.attempted)))

	first := episodes[0]
	var virtInit, virtIter float64
	for _, ep := range first {
		virtInit += ep.virtInit
		virtIter += ep.virtIter
	}
	out.set("virt_init_s", "virt_s", virtInit)
	out.set("virt_iter_s", "virt_s", virtIter)

	var plain, traced [][]*episode
	for i, eps := range episodes {
		if opts.trace && i%2 == 0 {
			traced = append(traced, eps)
		} else {
			plain = append(plain, eps)
		}
	}
	out.notes["episodes"] = len(episodes)
	out.notes["launches_per_episode"] = sumInt(first, func(e *episode) int { return e.steady })
	if !opts.trace {
		reportDESEndToEnd(out, plain)
		out.set("op_p50_us", "us", median(p50s))
		out.notes["op_p90_us"] = median(p90s)
		out.notes["op_p99_us"] = median(p99s)
		return out, nil
	}
	rateTraced, ratePlain := launchRate(traced), launchRate(plain)
	out.notes["ops_per_s_traced"] = rateTraced
	out.notes["ops_per_s_untraced"] = ratePlain
	out.set("trace.overhead_frac", "ratio", 1-ratio(rateTraced, ratePlain))
	reportDESLayers(out, spec, traced)
	return out, nil
}

func sumInt(eps []*episode, f func(*episode) int) int {
	n := 0
	for _, ep := range eps {
		n += f(ep)
	}
	return n
}

func sumNs(eps []*episode, f func(*episode) int64) int64 {
	var n int64
	for _, ep := range eps {
		n += f(ep)
	}
	return n
}

// launchRate is the median over episodes of steady launches per second.
func launchRate(episodes [][]*episode) float64 {
	var rates []float64
	for _, eps := range episodes {
		launches := sumInt(eps, func(e *episode) int { return e.steady })
		rates = append(rates, float64(launches)/(float64(sumNs(eps, func(e *episode) int64 { return e.steadyNs }))/1e9))
	}
	return median(rates)
}

func reportDESEndToEnd(out *outcome, episodes [][]*episode) {
	var setups, allocs []float64
	for _, eps := range episodes {
		setups = append(setups, float64(sumNs(eps, func(e *episode) int64 { return e.setupNs }))/1e9)
		var bytes float64
		for _, ep := range eps {
			bytes += ep.allocB
		}
		allocs = append(allocs, bytes/float64(sumInt(eps, func(e *episode) int { return e.steady })))
	}
	out.set("ops_per_s", "1/s", launchRate(episodes))
	out.set("setup_s", "s", median(setups))
	out.set("alloc_bytes_per_op", "B", median(allocs))
}

// analyzerPhases are the program spans each analyzer records per launch.
var analyzerPhases = map[string][]string{
	"raycast": {"analyze", "refine", "bvh_query", "coalesce"},
	"warnock": {"analyze", "refine", "bvh_query"},
	"paint":   {"analyze", "traverse", "hoist", "scan", "prune"},
}

// reportDESLayers turns the traced episodes' spans, counters and CPU
// profiles into per-layer metrics. Times are per steady launch; a
// layer's time is the exclusive time of its spans (see selfTimes).
func reportDESLayers(out *outcome, spec desSpec, episodes [][]*episode) {
	self := map[string]int64{}
	total := map[string]int64{}
	algLaunches := map[string]int{}
	var cpu cpuCounts
	counters := map[string]int64{}
	var stats core.Stats
	var wall int64
	var launches int
	var builds []float64
	for _, eps := range episodes {
		builds = append(builds, float64(sumNs(eps, func(e *episode) int64 { return e.buildNs }))/1e9)
		for _, ep := range eps {
			for n, v := range ep.self {
				self[n] += v
			}
			for n, v := range ep.total {
				total[n] += v
			}
			cpu.add(ep.cpu)
			for n, v := range ep.counters {
				counters[n] += v
			}
			stats.Add(&ep.stats)
			wall += ep.steadyNs
			launches += ep.steady
			algLaunches[ep.cell.algorithm] += ep.steady
		}
	}
	perLaunch := func(ns int64) float64 { return float64(ns) / 1e3 / float64(launches) }
	perCount := func(v int64) float64 { return float64(v) / float64(launches) }

	out.set("apps.build_s", "s", median(builds))
	out.set("apps.emit_us_per_launch", "us", perLaunch(self["apps.emit"]))
	for alg, phases := range analyzerPhases {
		n := algLaunches[alg]
		if n == 0 {
			continue
		}
		out.set(alg+".us_per_launch", "us", float64(total[alg])/1e3/float64(n))
		for _, p := range phases {
			out.set(alg+"."+p+".self_us_per_launch", "us", float64(self[alg+"."+p])/1e3/float64(n))
		}
	}
	out.set("analyzer.entries_scanned_per_launch", "count", perCount(stats.EntriesScanned))
	out.set("analyzer.overlap_tests_per_launch", "count", perCount(stats.OverlapTests))
	out.set("analyzer.bvh_visited_per_launch", "count", perCount(stats.BVHVisited))
	out.set("analyzer.sets_created_per_launch", "count", perCount(stats.SetsCreated))
	out.set("analyzer.sets_coalesced_per_launch", "count", perCount(stats.SetsCoalesced))
	out.set("analyzer.views_created_per_launch", "count", perCount(stats.ViewsCreated))

	cpu.report(out)

	if algLaunches[spec.cells[0].algorithm] > 0 && spec.cells[0].auto {
		inner := total[spec.cells[0].algorithm]
		out.set("autotrace.us_per_launch", "us", perLaunch(total["autotrace"]-inner))
		out.set("trace.record.self_us_per_launch", "us", perLaunch(self["trace.record"]))
		out.set("trace.replay.self_us_per_launch", "us", perLaunch(self["trace.replay"]))
		out.set("autotrace.replay_frac", "ratio", perCount(counters["trace/replayed"]))
		out.set("autotrace.aborts", "count", float64(counters["autotrace/aborts"]))
	}
	out.set("dist.us_per_launch", "us", perLaunch(self["dist.launch"]+self["dist.barrier"]))
	out.set("dist.remote_roundtrips_per_launch", "count", perCount(counters["dist/remote_roundtrips"]))
	out.set("cluster.messages_per_launch", "count", perCount(counters["cluster/messages"]))
	out.set("cluster.message_bytes_per_launch", "B", perCount(counters["cluster/message_bytes"]))

	var named int64
	for _, v := range self {
		named += v
	}
	out.set("residual_frac", "ratio", 1-ratio(float64(named), float64(wall)))
	layers := map[string]float64{}
	for n, v := range self {
		layers[n] = ratio(float64(v), float64(wall))
	}
	out.notes["self_frac"] = layers
}
