package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"visibility"
	"visibility/internal/obs"
	"visibility/internal/server"
	"visibility/internal/server/client"
	"visibility/internal/wire"
)

// The serve-mixed workload: an in-process visserve on loopback serving
// serveTenants sessions, driven by one generator over at most nproc
// connections: open-loop at serveRate, then closed-loop to measure the
// service's capacity. Writes are halo-program iterations (POST
// /workloads); snapshot and explain reads queue FIFO behind them on the
// tenant's session worker. Set-up, the output check and the debug reads
// go through the repository's client package; the scheduled requests use
// plain net/http, because the client retries refused requests and the
// load must see them.
const (
	// serveRate is the fixed offered load of the main phase, in requests
	// per second. It is a chosen operating point, not a measured
	// production rate: about a fifth of the capacity the closed-loop
	// episodes measure on a two-core host, so no request is refused and
	// queues stay short.
	serveRate = 500.0
	// serveEpisode is how long one service serves serveRate.
	serveEpisode = 2 * time.Second
	// mainShare is the share of an untraced run spent in serveRate
	// episodes; capacity episodes take the rest. A traced run has no
	// capacity episodes.
	mainShare = 0.5
	// capacityRequests is how many requests one capacity episode sends.
	capacityRequests = 1500
)

// measureCapacity runs closed-loop episodes until the deadline, at least
// minEpisodes of them, each on a fresh service so that episodes do not
// inherit each other's session state: every connection sends its
// tenants' next request as soon as the previous reply is in. An
// episode's capacity is its successful requests per second from the
// first send to the last reply. The episodes' outputs are checked like
// those of the open-loop episodes. It returns the capacities and the
// set-up times.
func measureCapacity(out *outcome, seed int64, deadline int64, cfg server.Config, conns int, decls []*wire.Workload, declBodies [][]byte, ws *wireStats) ([]float64, []float64, error) {
	var rates, setups []float64
	for k := 0; k < minEpisodes || now() < deadline; k++ {
		reqs := genSchedule(seed*1000+500+int64(k), serveRate, capacityRequests)
		runtime.GC()
		start := now()
		svc, err := startService(cfg, conns, decls)
		if err != nil {
			if svc != nil {
				_ = svc.stop() // the set-up error is the one to report
			}
			return nil, nil, fmt.Errorf("starting service: %w", err)
		}
		setups = append(setups, float64(now()-start)/1e9)
		state := newTenantStates()
		replies := svc.drive(reqs, conns, true, false, state)
		ps := summarize(reqs, replies)
		out.attempted += ps.attempted
		out.failed += ps.fail
		first, last := replies[0].sent, replies[0].done
		for _, rep := range replies {
			first, last = min(first, rep.sent), max(last, rep.done)
		}
		rates = append(rates, float64(ps.attempted-ps.fail)/(float64(last-first)/1e9))
		err = svc.checkTenants(out, fmt.Sprintf("capacity episode %d", k), declBodies, state, ws)
		if serr := svc.stop(); err == nil && serr != nil {
			err = fmt.Errorf("stopping service: %w", serr)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return rates, setups, nil
}

// service is one in-process server with its tenant sessions.
type service struct {
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	base     string
	hc       *http.Client // the scheduled requests
	c        *client.Client
	sessions []*client.Session
}

func startService(cfg server.Config, conns int, decls []*wire.Workload) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(cfg)
	// A write batch (about 4.8 KB) is larger than the transport's default
	// 4 KB write buffer; a larger buffer sends each request in one write.
	transport := &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, WriteBufferSize: 64 << 10}
	s := &service{
		srv:      srv,
		hs:       &http.Server{Handler: srv.Handler()},
		serveErr: make(chan error, 1),
		base:     "http://" + ln.Addr().String(),
		hc:       &http.Client{Transport: transport},
	}
	s.c = client.New(s.base)
	s.c.RetryWait = 20 * time.Millisecond // as visserve -load sets it
	go func() { s.serveErr <- s.hs.Serve(ln) }()
	for _, decl := range decls {
		sess, err := s.c.CreateSession(client.SessionConfig{})
		if err != nil {
			return s, err
		}
		s.sessions = append(s.sessions, sess)
		if err := sess.Submit(decl); err != nil {
			return s, err
		}
	}
	// A read queues behind the declaration, so it returns once the
	// declaration has been applied.
	for _, sess := range s.sessions {
		if _, err := sess.Snapshot("cells", "u"); err != nil {
			return s, err
		}
	}
	return s, nil
}

func snapshotPath(session, field string) string {
	return "/v1/sessions/" + session + "/snapshot?region=cells&field=" + field
}

// stop drains the sessions and closes the listener, then waits for the
// serving goroutine to return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if herr := s.hs.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.serveErr; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	s.hc.CloseIdleConnections()
	return err
}

// reply is the outcome of one scheduled request; times are on the
// benchmark clock.
type reply struct {
	due, sent, done int64
	// Traced phases only: when the client finished writing the request
	// and when the first byte of the reply arrived.
	wrote, firstByte int64
	status           int
	err              error
	trace            string // traceparent trace ID
}

func (r reply) ok() bool { return r.err == nil && r.status >= 200 && r.status < 300 }

// tenantState is what the load has done to one tenant so far; only the
// sender goroutine that owns the tenant touches it during a phase.
type tenantState struct {
	launched int      // tasks launched in the session
	accepted [][]byte // write batches the server accepted, in order
}

// drive offers reqs over conns connections: one sender goroutine per
// connection issues its tenants' requests in schedule order. Open-loop,
// each leaves at its due time or, when the connection is still busy, as
// soon as it is free; closed-loop, each leaves as soon as the
// connection is free, and its due time is its send time. Go's time.Sleep
// wakes in whole milliseconds on Linux, so open-loop requests leave up to
// a millisecond late; that lateness is part of every latency measured
// from the due time, and the traced run reports it as
// client.gen_late_p99_ms. It returns once every request has completed.
func (s *service) drive(reqs []request, conns int, closed, traced bool, tenants []tenantState) []reply {
	replies := make([]reply, len(reqs))
	start := now() + int64(time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, r := range reqs {
				if r.tenant%conns != c {
					continue
				}
				due := start + int64(r.due)
				if closed {
					due = now()
				} else if d := due - now(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				replies[i].due = due
				s.send(r, &replies[i], traced, &tenants[r.tenant])
			}
		}(c)
	}
	wg.Wait()
	return replies
}

func (s *service) send(r request, rep *reply, traced bool, st *tenantState) {
	session := s.sessions[r.tenant].ID
	method, path, body := "GET", "", []byte(nil)
	switch r.kind {
	case "write":
		method, path, body = "POST", "/v1/sessions/"+session+"/workloads", r.body
	case "snapshot":
		path = snapshotPath(session, r.field)
	case "explain":
		path = "/v1/sessions/" + session + "/explain?task=" + strconv.Itoa(int(r.pick*float64(st.launched)))
	}
	rep.sent = now()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		rep.err = err
		return
	}
	if traced {
		tc := obs.NewTraceContext()
		req.Header.Set("traceparent", tc.Traceparent())
		rep.trace = tc.TraceID
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { rep.wrote = now() },
			GotFirstResponseByte: func() { rep.firstByte = now() },
		}))
	}
	resp, err := s.hc.Do(req)
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rep.status = resp.StatusCode
	}
	rep.done = now()
	rep.err = err
	if r.kind == "write" && rep.ok() {
		st.launched += batchTasks
		st.accepted = append(st.accepted, r.body)
	}
}

// phaseStats summarizes one phase's replies.
type phaseStats struct {
	writes, reads   []float64 // ms from due time to reply, successful requests
	attempted, fail int64
}

func (ps *phaseStats) add(o phaseStats) {
	ps.writes = append(ps.writes, o.writes...)
	ps.reads = append(ps.reads, o.reads...)
	ps.attempted += o.attempted
	ps.fail += o.fail
}

func summarize(reqs []request, replies []reply) phaseStats {
	var ps phaseStats
	for i, rep := range replies {
		ps.attempted++
		if !rep.ok() {
			ps.fail++
			continue
		}
		ms := float64(rep.done-rep.due) / 1e6
		if reqs[i].kind == "write" {
			ps.writes = append(ps.writes, ms)
		} else {
			ps.reads = append(ps.reads, ms)
		}
	}
	return ps
}

// runServe runs the serve-mixed workload: episodes at serveRate, each on
// a freshly started service whose tenants' final contents are checked
// against an in-process replay, then closed-loop capacity episodes
// (measureCapacity). Fresh services
// keep the session state, and with it the heap the collector scans,
// the same size in every episode. A traced run alternates traced and
// untraced episodes.
func runServe(opts options) (*outcome, error) {
	out := newOutcome()
	conns := min(runtime.NumCPU(), serveTenants)
	decls := genDeclarations(opts.seed)
	declBodies := make([][]byte, len(decls))
	for i, decl := range decls {
		declBodies[i] = encode(decl)
	}
	episodeSecs := min(serveEpisode.Seconds(), opts.seconds*mainShare/minEpisodes)
	perEpisode := max(1, int(episodeSecs*serveRate))
	cfg := server.Config{}
	if opts.trace {
		// Room for every span of an episode: one HTTP and one queue-wait
		// span per request and a few analysis spans per launched task.
		cfg.SpanCap = 64 + perEpisode*batchTasks*8
	}

	var (
		plain, traced phaseStats
		setups        []float64
		allocs        uint64
		layers        = &serveLayers{http: map[string][]float64{}}
		liveMB        float64
		ws            wireStats
		// Per-episode latency quantiles in ms; the run reports their
		// medians.
		opP50, opP90, opP99, writeP50, writeP99, readP50, readP99 []float64
	)
	share := mainShare
	if opts.trace {
		share = 1
	}
	start := now()
	for k := 0; k < minEpisodes || now() < start+int64(opts.seconds*share*1e9); k++ {
		tracedEp := opts.trace && k%2 == 0
		reqs := genSchedule(opts.seed*1000+int64(k), serveRate, perEpisode)
		// Each episode starts from a collected heap, so the collector
		// runs at the same points of every episode's load.
		runtime.GC()
		t0 := now()
		svc, err := startService(cfg, conns, decls)
		if err != nil {
			if svc != nil {
				_ = svc.stop() // the set-up error is the one to report
			}
			return nil, fmt.Errorf("starting service: %w", err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
		state := newTenantStates()
		var prof bytes.Buffer
		if tracedEp {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				_ = svc.stop() // the profiling error is the one to report
				return nil, fmt.Errorf("starting CPU profile: %w", err)
			}
		}
		alloc0 := heapAllocBytes()
		replies := svc.drive(reqs, conns, false, tracedEp, state)
		alloc := heapAllocBytes() - alloc0
		if tracedEp {
			pprof.StopCPUProfile()
			cpu, err := cpuByLayer(prof.Bytes())
			if err != nil {
				_ = svc.stop() // the profile error is the one to report
				return nil, err
			}
			layers.cpu.add(cpu)
		}
		ps := summarize(reqs, replies)
		out.attempted += ps.attempted
		out.failed += ps.fail
		if tracedEp {
			traced.add(ps)
			if err := svc.collectLayers(layers, reqs, replies); err != nil {
				_ = svc.stop() // the collection error is the one to report
				return nil, err
			}
		} else {
			plain.add(ps)
			allocs += alloc
			ops := append(append([]float64(nil), ps.writes...), ps.reads...)
			opP50 = append(opP50, quantile(ops, 0.50))
			opP90 = append(opP90, quantile(ops, 0.90))
			opP99 = append(opP99, quantile(ops, 0.99))
			writeP50 = append(writeP50, quantile(ps.writes, 0.50))
			writeP99 = append(writeP99, quantile(ps.writes, 0.99))
			readP50 = append(readP50, quantile(ps.reads, 0.50))
			readP99 = append(readP99, quantile(ps.reads, 0.99))
		}
		if err := svc.checkTenants(out, fmt.Sprintf("episode %d", k), declBodies, state, &ws); err != nil {
			_ = svc.stop() // the check error is the one to report
			return nil, err
		}
		liveMB = liveHeapMB()
		if err := svc.stop(); err != nil {
			return nil, fmt.Errorf("stopping service: %w", err)
		}
	}
	if layers.dropped > 0 {
		out.problem("%d server spans dropped", layers.dropped)
	}
	out.notes["episodes"] = len(setups)
	out.notes["reads"] = len(plain.reads)

	if opts.trace {
		out.set("ok_frac", "ratio", 1-ratio(float64(out.failed), float64(out.attempted)))
		readTraced, readPlain := quantile(traced.reads, 0.5), quantile(plain.reads, 0.5)
		out.notes["read_p50_ms_traced"] = readTraced
		out.notes["read_p50_ms_untraced"] = readPlain
		out.set("trace.overhead_frac", "ratio", readTraced/readPlain-1)
		out.set("wire.decode_us_per_req", "us", float64(ws.decodeNs)/1e3/float64(ws.bodies))
		out.set("wire.apply_us_per_task", "us", float64(ws.applyNs)/1e3/float64(ws.tasks))
		layers.report(out)
		return out, nil
	}
	rates, capSetups, err := measureCapacity(out, opts.seed, start+int64(opts.seconds*1e9), cfg, conns, decls, declBodies, &ws)
	if err != nil {
		return nil, err
	}
	setups = append(setups, capSetups...)
	out.notes["capacity_per_episode"] = append([]float64(nil), rates...)
	// The open-loop tail and the latencies by request kind, beside the
	// metrics: the p90 moved by a quarter between runs on a two-core
	// host, and the p99 of one episode by half between episodes.
	out.notes["op_p90_ms"] = median(opP90)
	out.notes["op_p99_ms"] = median(opP99)
	out.notes["write_p50_ms"] = median(writeP50)
	out.notes["write_p99_ms"] = median(writeP99)
	out.notes["read_p50_ms"] = median(readP50)
	out.notes["read_p99_ms"] = median(readP99)
	out.set("ok_frac", "ratio", 1-ratio(float64(out.failed), float64(out.attempted)))
	out.set("ops_per_s", "1/s", median(rates))
	out.set("op_p50_us", "us", median(opP50)*1e3)
	out.set("setup_s", "s", median(setups))
	out.set("live_heap_mb", "MB", liveMB)
	out.set("alloc_bytes_per_op", "B", ratio(float64(allocs), float64(plain.attempted)))
	return out, nil
}

// wireStats are the in-process replays' wire timings.
type wireStats struct {
	decodeNs, applyNs int64
	tasks, bodies     int64
}

// checkTenants is the output check: each tenant's final u and v
// contents equal an in-process replay of its declaration and accepted
// batches. A differing field is a failed check; the replays' timings
// are added to ws.
func (s *service) checkTenants(out *outcome, episode string, declBodies [][]byte, state []tenantState, ws *wireStats) error {
	for i, sess := range s.sessions {
		rep, err := replay(append([][]byte{declBodies[i]}, state[i].accepted...))
		if err != nil {
			return fmt.Errorf("replaying tenant %d: %w", i, err)
		}
		ws.decodeNs, ws.applyNs = ws.decodeNs+rep.decodeNs, ws.applyNs+rep.applyNs
		ws.tasks, ws.bodies = ws.tasks+rep.tasks, ws.bodies+int64(len(state[i].accepted)+1)
		for _, f := range []string{"u", "v"} {
			got, err := sess.Snapshot("cells", f)
			if err != nil {
				return err
			}
			if !equalRows(got, rep.rows[f]) {
				out.problem("%s tenant %d field %s: served snapshot differs from the in-process replay", episode, i, f)
				out.failed++
			}
		}
	}
	return nil
}

// newTenantStates starts every tenant with the launches of its
// declaration.
func newTenantStates() []tenantState {
	state := make([]tenantState, serveTenants)
	for i := range state {
		state[i].launched = batchTasks
	}
	return state
}

func equalRows(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

type replayed struct {
	rows              map[string][][]float64
	decodeNs, applyNs int64
	tasks             int64
}

// replay applies the encoded workloads to a fresh runtime, timing
// wire.Decode and Env.Apply, and reads back both fields the way the
// snapshot endpoint renders them.
func replay(bodies [][]byte) (*replayed, error) {
	rt := visibility.New(visibility.Config{})
	defer rt.Close()
	env := wire.NewEnv(rt)
	out := &replayed{rows: map[string][][]float64{}}
	for _, body := range bodies {
		t0 := now()
		wl, err := wire.Decode(bytes.NewReader(body))
		t1 := now()
		if err != nil {
			return nil, err
		}
		if _, err := env.Apply(wl); err != nil {
			return nil, err
		}
		out.decodeNs += t1 - t0
		out.applyNs += now() - t1
		out.tasks += int64(len(wl.Tasks))
	}
	reg := env.Region("cells")
	for _, f := range []string{"u", "v"} {
		rt.Read(reg, f).Each(func(p visibility.Point, v float64) {
			out.rows[f] = append(out.rows[f], []float64{float64(p.C[0]), v})
		})
	}
	return out, nil
}

// serveLayers is the per-layer view of the traced phase, assembled from
// the server's span export and registries.
type serveLayers struct {
	http      map[string][]float64 // endpoint → handler µs of matched requests
	queueWait []float64            // µs, matched requests
	overhead  []float64            // µs: round trip minus handler time
	genLate   []float64            // ms
	write     []float64            // µs: client send to request written
	read      []float64            // µs: first reply byte to reply read
	covered   float64              // ns of due-to-reply time the layers cover
	wall      float64              // ns of due-to-reply time in total
	rejected  int64
	hits      int64
	misses    int64
	dropped   int64
	cpu       cpuCounts
}

// collectLayers reads the server's merged span export, span drop counts
// and registries through the client package, and matches each traced
// request to its http.* span (by trace ID) and that span's queue.wait
// child.
func (s *service) collectLayers(l *serveLayers, reqs []request, replies []reply) error {
	var export struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	raw, err := s.c.DebugTrace()
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, &export); err != nil {
		return fmt.Errorf("decoding /debug/trace: %w", err)
	}
	windows, err := s.c.DebugSpans()
	if err != nil {
		return err
	}
	metrics, err := s.c.Metrics()
	if err != nil {
		return err
	}
	var serverSnap obs.Snapshot
	var sessionSnaps map[string]obs.Snapshot
	if err := json.Unmarshal(metrics["server"], &serverSnap); err != nil {
		return fmt.Errorf("decoding /metrics server: %w", err)
	}
	if err := json.Unmarshal(metrics["sessions"], &sessionSnaps); err != nil {
		return fmt.Errorf("decoding /metrics sessions: %w", err)
	}

	type httpSpan struct {
		name string
		us   float64
		id   string
	}
	byTrace := map[string]httpSpan{}
	waits := map[string]float64{} // parent span ID → µs
	for _, ev := range export.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		switch {
		case ev.Pid == 0 && ev.Args["trace"] != "":
			byTrace[ev.Args["trace"]] = httpSpan{name: ev.Name, us: ev.Dur, id: ev.Args["span"]}
		case ev.Name == "queue.wait":
			waits[ev.Args["parent"]] = ev.Dur
		}
	}
	for i, rep := range replies {
		if !rep.ok() {
			continue
		}
		l.genLate = append(l.genLate, float64(rep.sent-rep.due)/1e6)
		l.wall += float64(rep.done - rep.due)
		hs, found := byTrace[rep.trace]
		if !found {
			continue
		}
		rtt := float64(rep.done-rep.sent) / 1e3
		l.http[reqs[i].kind] = append(l.http[reqs[i].kind], hs.us)
		l.overhead = append(l.overhead, rtt-hs.us)
		if w, ok := waits[hs.id]; ok {
			l.queueWait = append(l.queueWait, w)
		}
		if rep.wrote == 0 || rep.firstByte == 0 {
			continue
		}
		// The named layers of a matched request, each measured on its
		// own: the generator's lateness (due to sent), the client's
		// request write (sent to written), the server's handler span,
		// and the client's reply read (first byte to done). What they
		// leave is the residual: loopback transfer and the HTTP
		// server's work outside the handler.
		write, read := float64(rep.wrote-rep.sent), float64(rep.done-rep.firstByte)
		l.write = append(l.write, write/1e3)
		l.read = append(l.read, read/1e3)
		l.covered += float64(rep.sent-rep.due) + write + hs.us*1e3 + read
	}
	for _, w := range windows {
		l.dropped += w.Dropped
	}
	// The server's own ring has no drop counter on the wire: a ring
	// that wrapped holds fewer HTTP spans than requests were made.
	if len(byTrace) < len(replies) {
		l.dropped += int64(len(replies) - len(byTrace))
	}
	l.rejected += serverSnap["server/admission/rejected"]
	for _, snap := range sessionSnaps {
		l.hits += snap["sched/cache/hits"]
		l.misses += snap["sched/cache/misses"]
	}
	return nil
}

func (l *serveLayers) report(out *outcome) {
	for _, ep := range []struct{ kind, name string }{{"write", "workloads"}, {"snapshot", "snapshot"}, {"explain", "explain"}} {
		out.set("server.http."+ep.name+".p50_us", "us", quantile(l.http[ep.kind], 0.50))
		out.set("server.http."+ep.name+".p99_us", "us", quantile(l.http[ep.kind], 0.99))
	}
	out.set("server.queue_wait_p99_us", "us", quantile(l.queueWait, 0.99))
	out.set("server.admission_rejected", "count", float64(l.rejected))
	out.set("sched.cache_hit_frac", "ratio", ratio(float64(l.hits), float64(l.hits+l.misses)))
	out.set("client.gen_late_p99_ms", "ms", quantile(l.genLate, 0.99))
	out.set("client.overhead_p50_us", "us", quantile(l.overhead, 0.50))
	out.set("residual_frac", "ratio", 1-ratio(l.covered, l.wall))
	out.notes["client.write_p50_us"] = quantile(l.write, 0.50)
	out.notes["client.read_p50_us"] = quantile(l.read, 0.50)
	l.cpu.report(out)
}
