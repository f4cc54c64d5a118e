package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	operon "operon"
	"operon/internal/benchgen"
	"operon/internal/obs"
	"operon/internal/serve"
	"operon/internal/signal"
)

const (
	// serveRate is the mean arrival rate. A fresh solve takes about 0.28 s
	// on one of the nproc server slots and about 0.7 solves arrive per
	// request, so two slots serve about 10 requests/s. At 3.5 they are
	// about 40 % busy: at 4 and above, queueing amplified the machine's
	// own speed drift into a 26 % run-to-run spread of the p90.
	serveRate = 3.5
	// serveLimit is the latency limit, from due time, of a good request.
	serveLimit = 2 * time.Second
	// serveHot is the size of the hot set that repeats through the run: one
	// instance of each shape.
	serveHot = 5
	// serveHotFrac, serveBatchFrac and serveBurstFrac shape the mix: the
	// share of requests for a hot instance, the share that are
	// /solve/batch arrays, and the share of arrivals that follow the
	// previous one with no gap.
	serveHotFrac   = 0.3
	serveBatchFrac = 0.05
	serveBurstFrac = 0.1
	// serveSamples is how many fresh instances are re-solved through the
	// library, besides every hot one, to check the server's answers.
	serveSamples = 2
	// serveTimeoutMS is the per-request budget: generous, so no request may
	// come back degraded.
	serveTimeoutMS = 120000
)

// serveShapes are the Table-1 specs the served designs take their shape
// from; each instance overrides the spec's seed.
var serveShapes = []string{"I1", "I2", "I3", "I4", "I5"}

// serveInstance is one distinct design of the schedule.
type serveInstance struct {
	spec benchgen.Spec
	body []byte // the JSON SolveRequest carrying the design inline
}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the schedule's start
	keys []int         // instance per item; a batch has several
}

// schedule is the deterministic open-loop request plan of one seed.
type schedule struct {
	instances []serveInstance
	arrivals  []arrival
	span      time.Duration
}

func (s *schedule) path(a arrival) string {
	if len(a.keys) > 1 {
		return "/solve/batch"
	}
	return "/solve"
}

// body returns the request body of an arrival: the instance's SolveRequest,
// or a JSON array of them for a batch.
func (s *schedule) body(a arrival) []byte {
	if len(a.keys) == 1 {
		return s.instances[a.keys[0]].body
	}
	parts := make([][]byte, len(a.keys))
	for i, k := range a.keys {
		parts[i] = s.instances[k].body
	}
	return append(append([]byte("["), bytes.Join(parts, []byte(","))...), ']')
}

// instanceSpec returns the spec of instance key of a seed's schedule in the
// given shape.
func instanceSpec(seed int64, key int, shape string) benchgen.Spec {
	return specOf(shape, seed*100000+int64(key))
}

// hotSpec returns hot instance k (< serveHot): one per shape, so the hot
// set's summed power varies little from seed to seed.
func hotSpec(seed int64, k int) benchgen.Spec { return instanceSpec(seed, k, serveShapes[k]) }

func requestBody(spec benchgen.Spec) ([]byte, error) {
	d, err := benchgen.Generate(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.SolveRequest{Design: &d, TimeoutMS: serveTimeoutMS})
}

// newSchedule builds the request plan of a seed: n arrivals at mean rate
// serveRate. The seed draws the order of a fixed mix of request kinds
// (serveHotFrac hot, serveBatchFrac batches of one hot and two fresh items,
// the rest fresh), which hot instance each asks for, the gaps and the burst
// positions; the counts stay the same for every seed, and fresh instances
// take the shapes in turn, so every seed asks for the same amount of work.
func newSchedule(seed int64, window time.Duration) (*schedule, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{}
	for k := 0; k < serveHot; k++ {
		s.instances = append(s.instances, serveInstance{spec: hotSpec(seed, k)})
	}
	fresh := func() int {
		shape := serveShapes[len(s.instances)%len(serveShapes)]
		s.instances = append(s.instances, serveInstance{spec: instanceSpec(seed, len(s.instances), shape)})
		return len(s.instances) - 1
	}
	n := max(minTailOps, int(serveRate*window.Seconds()))
	const hot, batch, single = 0, 1, 2
	kinds := make([]int, n)
	nHot, nBatch := int(math.Round(serveHotFrac*float64(n))), int(math.Round(serveBatchFrac*float64(n)))
	for i := range kinds {
		switch {
		case i < nHot:
			kinds[i] = hot
		case i < nHot+nBatch:
			kinds[i] = batch
		default:
			kinds[i] = single
		}
	}
	rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	// Gaps are uniform on [0.5, 1.5] of the mean, and a serveBurstFrac
	// share of arrivals come right after their predecessor.
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = 0.5 + rng.Float64()
	}
	for _, i := range rng.Perm(n)[:int(serveBurstFrac*float64(n))] {
		gaps[i] = 0
	}
	gaps[0] = 0
	hots := 0
	pickHot := func() int { // every hot instance is asked for at least once
		hots++
		if hots <= serveHot {
			return hots - 1
		}
		return rng.Intn(serveHot)
	}
	for _, kind := range kinds {
		switch kind {
		case hot:
			s.arrivals = append(s.arrivals, arrival{keys: []int{pickHot()}})
		case batch:
			s.arrivals = append(s.arrivals, arrival{keys: []int{pickHot(), fresh(), fresh()}})
		default:
			s.arrivals = append(s.arrivals, arrival{keys: []int{fresh()}})
		}
	}
	// Scale the gaps so the n arrivals span exactly n/serveRate seconds.
	s.span = time.Duration(float64(n) / serveRate * float64(time.Second))
	total, at := sum(gaps), 0.0
	for i := range s.arrivals {
		at += gaps[i]
		s.arrivals[i].due = time.Duration(at / total * float64(s.span))
	}
	for i := range s.instances {
		b, err := requestBody(s.instances[i].spec)
		if err != nil {
			return nil, err
		}
		s.instances[i].body = b
	}
	return s, nil
}

// server is the real serving stack on a loopback listener.
type server struct {
	srv  *serve.Server
	http *http.Server
	base string
	errc chan error
}

func serveConfig() operon.Config {
	cfg := operon.DefaultConfig()
	cfg.Workers = 1 // one worker per slot; slots run in parallel
	return cfg
}

func startServer(slots int) (*server, error) {
	protocols := new(http.Protocols)
	protocols.SetHTTP1(true)
	protocols.SetUnencryptedHTTP2(true)
	srv := serve.New(serve.Options{
		Config:         serveConfig(),
		QueueLen:       16,
		Concurrency:    slots,
		DefaultTimeout: serveTimeoutMS * time.Millisecond,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler(), Protocols: protocols}, base: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	go func() { s.errc <- s.http.Serve(ln) }()
	return s, nil
}

// stop closes the listener, waits for the serve loop to return, then stops
// the solver workers.
func (s *server) stop() error {
	err := s.http.Close()
	if serr := <-s.errc; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Shutdown()
	return err
}

// reply is the outcome of one HTTP request.
type reply struct {
	status int
	items  []serve.SolveResponse
	errs   []string // per-item errors of a batch
	err    error
}

func post(client *http.Client, base, path, reqID string, body []byte) reply {
	req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", reqID)
	resp, err := client.Do(req)
	if err != nil {
		return reply{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{status: resp.StatusCode, err: err}
	}
	out := reply{status: resp.StatusCode}
	if resp.StatusCode != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return out
	}
	if path == "/solve" {
		var sr serve.SolveResponse
		out.err = json.Unmarshal(data, &sr)
		out.items = []serve.SolveResponse{sr}
		return out
	}
	var br serve.BatchResponse
	if out.err = json.Unmarshal(data, &br); out.err != nil {
		return out
	}
	for _, it := range br.Results {
		out.items = append(out.items, it.SolveResponse)
		out.errs = append(out.errs, it.Error)
	}
	return out
}

// warmUp solves one design of every shape, so the server's code paths and
// slot workspaces are warm when timing starts. The designs are fixed, the
// same for every seed, and no schedule asks for them (their seeds are
// negative).
func warmUp(client *http.Client, base string) error {
	var wg sync.WaitGroup
	errs := make([]error, len(serveShapes))
	for i, name := range serveShapes {
		body, err := requestBody(specOf(name, -1-int64(i)))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = post(client, base, "/solve", fmt.Sprintf("warmup-%d", i), body).err
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sent records one request's reply and timing: when it was due, when the
// dispatcher released it, when it went out and when its reply was read, as
// offsets from the schedule's start.
type sent struct {
	due, dispatched, sentAt, done time.Duration
	reply
}

// runServeOpen replays the seed's open-loop schedule through the real
// internal/serve handler over loopback with nproc client connections, and
// checks every answer.
func runServeOpen(r *run) error {
	// HTTP/2 without TLS multiplexes every in-flight request over at most
	// nproc connections, so a request never waits for a free connection:
	// the backlog builds in the server's queue, where it is measured.
	protocols := new(http.Protocols)
	protocols.SetUnencryptedHTTP2(true)
	client := &http.Client{Transport: &http.Transport{
		Protocols:           protocols,
		MaxConnsPerHost:     r.nproc,
		MaxIdleConnsPerHost: r.nproc,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	var sched *schedule
	var srv *server
	err := r.setup(func() (err error) {
		if sched, err = newSchedule(r.seed, r.window); err != nil {
			return err
		}
		if srv, err = startServer(r.nproc); err != nil {
			return err
		}
		if err := warmUp(client, srv.base); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	}, func() error {
		err := srv.stop()
		srv = nil
		client.CloseIdleConnections()
		return err
	})
	if srv != nil {
		defer srv.stop()
	}
	if err != nil {
		return err
	}

	tr := srv.srv.Tracer()
	solves0 := tr.Counter("http.solves_run").Value()
	counters0 := counterValues(tr)
	hists0 := map[string]obs.HistogramSnapshot{}
	for _, h := range []string{"stage/process", "stage/candidates"} {
		hists0[h] = tr.Histogram(h).Snapshot()
	}

	results := make([]sent, len(sched.arrivals))
	peak := startHeapPeak()
	rw := startRuntimeWindow()
	start := time.Now()
	// The dispatcher sends each request at its due time on its own
	// goroutine, whatever is still in flight: the loop is open.
	var wg sync.WaitGroup
	for i, a := range sched.arrivals {
		time.Sleep(time.Until(start.Add(a.due)))
		results[i].due = a.due
		results[i].dispatched = time.Since(start)
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			reqID := fmt.Sprintf("bench-%d-%d", r.seed, i)
			root := r.rec.open("op/request", reqID, 0, 1)
			results[i].sentAt = time.Since(start)
			results[i].reply = post(client, srv.base, sched.path(a), reqID, sched.body(a))
			results[i].done = time.Since(start)
			r.rec.end(root)
		}(i, a)
	}
	wg.Wait()
	allocMB, pauseMS := rw.end()
	r.layer["runtime.peak_heap_mb"] = peak.stop()
	r.e2e["alloc_mb"] = allocMB / float64(len(sched.arrivals))

	items := 0
	for _, a := range sched.arrivals {
		items += len(a.keys)
	}
	solves := float64(tr.Counter("http.solves_run").Value() - solves0)
	counters := counterValues(tr)
	for c := range counters {
		counters[c] = frac(counters[c]-counters0[c], solves)
	}
	stageMS := map[string]float64{}
	for h, h0 := range hists0 {
		d := tr.Histogram(h).Snapshot().Sub(h0)
		stageMS[h] = frac(float64(d.Sum), float64(d.Count)) / 1e6
	}

	sched.dropBodies()
	r.e2e["retained_heap_mb"] = liveHeapMB() // the server is still up

	r.scoreServe(sched, results)
	r.layer["serve.solves_per_item"] = frac(solves, float64(items))
	r.layer["signal.process_ms"] = stageMS["stage/process"]
	r.layer["codesign.candidates_ms"] = stageMS["stage/candidates"]
	for c, v := range counters {
		r.layer[c] = v
	}
	r.layer["runtime.alloc_mb"] = allocMB
	r.layer["runtime.gc_pause_ms"] = pauseMS
	r.checkServeSamples(sched, results)
	return nil
}

// dropBodies releases the request bodies so the retained heap counts the
// server, not the load generator.
func (s *schedule) dropBodies() {
	for i := range s.instances {
		s.instances[i].body = nil
	}
}

// answer is the part of a response that must agree across every request
// for the same instance.
type answer struct {
	design, flow string
	power        float64
	violations   int
	hyperNets    int
	wdms         int
}

func answerOf(sr serve.SolveResponse) answer {
	return answer{sr.Design, sr.Flow, sr.PowerMW, sr.Violations, sr.HyperNets, sr.WDMsUsed}
}

// scoreServe checks every reply and computes the serve-open metrics.
func (r *run) scoreServe(sched *schedule, results []sent) {
	var lats, late, queue, solve, overhead []float64
	cached, coalesced, http429, good := 0, 0, 0, 0
	agreed := map[int]answer{}
	var lastDone time.Duration
	for i, res := range results {
		a := sched.arrivals[i]
		r.attempted += len(a.keys)
		lat := res.done - res.due
		lats = append(lats, ms(lat))
		late = append(late, ms(res.dispatched-res.due))
		lastDone = max(lastDone, res.done)
		if res.status == http.StatusTooManyRequests {
			http429++
		}
		if res.err != nil || len(res.items) != len(a.keys) {
			r.failed += len(a.keys)
			r.fail("request %d: %v (%d items for %d)", i, res.err, len(res.items), len(a.keys))
			continue
		}
		ok := true
		for j, sr := range res.items {
			key := a.keys[j]
			switch {
			case len(res.errs) > j && res.errs[j] != "":
				r.opFailed("request %d item %d: %s", i, j, res.errs[j])
				ok = false
				continue
			case sr.Degraded:
				r.opFailed("request %d item %d: degraded (%s)", i, j, sr.StopReason)
				ok = false
				continue
			case sr.Violations != 0:
				r.opFailed("request %d item %d: %d loss-budget violations", i, j, sr.Violations)
				ok = false
				continue
			}
			if prev, seen := agreed[key]; !seen {
				agreed[key] = answerOf(sr)
			} else if prev != answerOf(sr) {
				r.opFailed("request %d item %d: answer %+v disagrees with %+v for the same instance", i, j, answerOf(sr), prev)
				ok = false
				continue
			}
			switch {
			case sr.Cached:
				cached++
			case sr.Coalesced:
				coalesced++
			default:
				queue = append(queue, sr.QueueMS)
				solve = append(solve, sr.ElapsedMS)
			}
			if len(a.keys) == 1 {
				overhead = append(overhead, ms(res.done-res.sentAt)-sr.QueueMS-sr.ElapsedMS)
			}
		}
		if ok && lat <= serveLimit {
			good++
		}
	}
	items := float64(r.attempted)
	var hot quality
	for k := 0; k < serveHot; k++ {
		hot.PowerMW += agreed[k].power
		hot.WDMsUsed += agreed[k].wdms
	}
	checkRef(r, hot)
	r.e2e["solve_s"] = median(solve) / 1e3
	r.e2e["power_mw"] = hot.PowerMW
	r.e2e["wdms_used"] = float64(hot.WDMsUsed)
	r.e2e["op_p50_ms"] = median(lats)
	r.e2e["op_tail_ms"] = tail(lats, tailQ)
	r.e2e["goodput_per_s"] = frac(float64(good), lastDone.Seconds())
	r.layer["serve.queue_ms"] = median(queue)
	r.layer["serve.solve_ms"] = median(solve)
	r.layer["serve.overhead_ms"] = median(overhead)
	r.layer["serve.cache_hit_frac"] = float64(cached) / items
	r.layer["serve.coalesced_frac"] = float64(coalesced) / items
	r.layer["serve.http_429"] = float64(http429)
	// The server's own tracer cannot be switched off, and the only tracing
	// a traced run adds is one client-side span per request, so there is no
	// untraced twin to compare with: trace.overhead_ms stays 0 here.
	if p, err := percentile(late, 0.9); err == nil {
		r.layer["loadgen.late_p90_ms"] = p
	} else {
		r.fail("late p90: %v", err)
	}
}

// checkServeSamples re-solves every hot instance and the first fresh ones
// through the library, verifies each result, and requires the server's
// answer to match it exactly.
func (r *run) checkServeSamples(sched *schedule, results []sent) {
	served := map[int]serve.SolveResponse{}
	for i, res := range results {
		for j, sr := range res.items {
			served[sched.arrivals[i].keys[j]] = sr
		}
	}
	cfg := serveConfig()
	cfg.Workers = r.nproc // results do not depend on the worker count
	checked := 0
	for key := range sched.instances {
		if key >= serveHot && checked >= serveHot+serveSamples {
			break
		}
		sr, ok := served[key]
		if !ok {
			continue
		}
		checked++
		d, err := benchgen.Generate(sched.instances[key].spec)
		if err != nil {
			r.fail("sample %d: %v", key, err)
			continue
		}
		if err := librarySample(d, cfg, sr); err != nil {
			r.fail("sample %d (%s): %v", key, d.Name, err)
		}
	}
	if checked < serveHot+serveSamples {
		r.fail("only %d of %d sample instances were served", checked, serveHot+serveSamples)
	}
}

func librarySample(d signal.Design, cfg operon.Config, sr serve.SolveResponse) error {
	res, _, err := coldSolve(d, cfg, nil)
	if err != nil {
		return err
	}
	if err := checkSolve(res, cfg); err != nil {
		return err
	}
	want := answer{d.Name, res.Flow, res.PowerMW, res.Selection.Violations, len(res.HyperNets), res.WDMStats.FinalWDMs}
	if got := answerOf(sr); got != want || math.Float64bits(got.power) != math.Float64bits(want.power) {
		return fmt.Errorf("server answered %+v, the library %+v", got, want)
	}
	return nil
}
