package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/interp"
	"repro/internal/obsrv"
	"repro/internal/serve"
)

// serve-mix: an in-process `sharc serve` with the command's defaults, on
// loopback, sent the three-program mix by one client process with at most
// nproc connections. The end-to-end run is a closed loop for the whole
// budget; the traced run adds an open loop at a fixed arrival rate for the
// latency percentiles. On a cache hit runtime setup dominates a request;
// the seeded share of requests with a fresh name and discharge:true miss
// the cache and run compile and vet on the request path, so the cache's
// insert and evict path runs beside its hit path.

const (
	// serveOpenRate is the open loop's arrival rate (requests per second),
	// part of the workload and never derived from a measurement. It is 40%
	// of the closed loop's capacity as measured on a 2-vCPU host (median
	// 299 req/s over ten seeds), so a slowdown by the 25% bound, or the
	// slowest seed measured (258 req/s), still leaves the server under 55%
	// busy: the percentiles measure service time and moderate queueing,
	// not saturation.
	serveOpenRate = 120
	// serveOpenRequests is the open loop's length: enough that at least
	// ten requests fall beyond p99.
	serveOpenRequests = 1100
	// serveFreshShare is the share of requests sent under a fresh name with
	// discharge:true, which miss the program cache. A 20 s end-to-end run
	// is five processes of 4 s each, and each starts an empty cache: at the
	// measured 299 req/s a part inserts about 300 fresh programs, over
	// twice the default capacity of 128, so the LRU evicts about 170 times
	// a part, and still about 100 times at a 25% slowdown. Three requests
	// in four still hit, so each program's median request is a hit. A
	// miss adds about 0.6 ms of compile and vet to a request of about
	// 5 ms (the resolve phase of /metrics), so misses carry about 3% of
	// the server's time: compile and vet are measured by vet-corpus.
	serveFreshShare = 0.25
)

// serveWant is the hand-known answer of a mix program.
type serveWant struct {
	stdout        string // exact standard output; empty means any
	readConflicts bool   // at least one read-conflict report
	noReports     bool
}

type serveProg struct {
	name string
	src  string
	want serveWant
}

// servePrograms is the mix: single-thread heap churn, unsynchronized
// access to dynamic data, and lock-protected sharing.
var servePrograms = []serveProg{
	{"spin.shc", `
int main(void) {
	int *p = malloc(sizeof(int));
	*p = 0;
	for (int i = 0; i < 2000; i++) {
		*p = *p + 1;
	}
	printInt(*p);
	return 0;
}
`, serveWant{stdout: "2000", noReports: true}},
	// cell is a thread-touched global, so it is dynamic: main writes it
	// and both workers read it, a read conflict on every schedule.
	{"racy.shc", `
int racy *cell;

void *worker(void *d) {
	for (int i = 0; i < 40; i++) {
		cell[0] = cell[0] + 1;
	}
	return NULL;
}

int main(void) {
	cell = malloc(sizeof(int));
	cell[0] = 0;
	int h1 = spawn(worker, NULL);
	int h2 = spawn(worker, NULL);
	join(h1);
	join(h2);
	return 0;
}
`, serveWant{readConflicts: true}},
	// The SCAST nulls a, so main reads the final balance through ad,
	// holding ad->m.
	{"locked.shc", `
struct acct {
	mutex *m;
	int locked(m) bal;
};

void *deposit(void *d) {
	struct acct *a = d;
	for (int i = 0; i < 30; i++) {
		mutexLock(a->m);
		a->bal = a->bal + 1;
		mutexUnlock(a->m);
	}
	return NULL;
}

int main(void) {
	struct acct *a = malloc(sizeof(struct acct));
	a->m = mutexNew();
	mutexLock(a->m);
	a->bal = 0;
	mutexUnlock(a->m);
	struct acct dynamic *ad = SCAST(struct acct dynamic *, a);
	int h1 = spawn(deposit, ad);
	int h2 = spawn(deposit, ad);
	join(h1);
	join(h2);
	mutexLock(ad->m);
	printInt(ad->bal);
	mutexUnlock(ad->m);
	return 0;
}
`, serveWant{stdout: "60", noReports: true}},
}

// runReply is the part of serve's /run reply the checks read.
type runReply struct {
	Exit     int64  `json:"exit"`
	RunError string `json:"run_error"`
	Reports  []struct {
		Kind string `json:"kind"`
		Msg  string `json:"msg"`
	} `json:"reports"`
	Stdout string `json:"stdout"`
}

// checkServe judges one /run reply against the program's known answer.
func checkServe(p serveProg, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", p.name, status, strings.TrimSpace(string(body)))
	}
	var r runReply
	if err := json.Unmarshal(body, &r); err != nil {
		return wrong("%s: bad reply: %v", p.name, err)
	}
	if r.RunError != "" || r.Exit != 0 {
		return wrong("%s: exit %d, run error %q", p.name, r.Exit, r.RunError)
	}
	if w := p.want.stdout; w != "" && strings.TrimSpace(r.Stdout) != w {
		return wrong("%s: printed %q, want %q", p.name, r.Stdout, w)
	}
	if p.want.noReports && len(r.Reports) != 0 {
		return wrong("%s: %d reports, want none: %s", p.name, len(r.Reports), r.Reports[0].Msg)
	}
	if p.want.readConflicts {
		found := false
		for _, rep := range r.Reports {
			if rep.Kind == "race" && strings.Contains(rep.Msg, "read conflict") {
				found = true
			}
		}
		if !found {
			return wrong("%s: no read conflict among %d reports", p.name, len(r.Reports))
		}
	}
	return nil
}

// server is an in-process sharc serve and a client bounded to nproc
// connections.
type server struct {
	srv    *serve.Server
	done   chan error
	base   string
	client *http.Client
}

// startServer starts sharc serve with the command's defaults, obs on or
// off, and waits until it answers.
func startServer(obs bool) (*server, error) {
	cfg := serve.DefaultConfig()
	cfg.Addr = "127.0.0.1:0"
	cfg.Obs = obsrv.Config{Enabled: obs}
	s := &server{srv: serve.New(cfg), done: make(chan error, 1)}
	if err := s.srv.Listen(); err != nil {
		return nil, err
	}
	go func() { s.done <- s.srv.Serve() }()
	n := runtime.NumCPU()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	s.base = "http://" + s.srv.Addr()
	resp, err := s.client.Get(s.base + "/healthz")
	if err != nil {
		s.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.close()
		return nil, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	return s, nil
}

func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
}

func (s *server) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// request is one generated /run request.
type request struct {
	prog int
	body []byte
}

// requestGen makes the request stream from a seed.
type requestGen struct {
	rng   *rand.Rand
	fresh int
	tag   string
}

func (g *requestGen) next() request {
	i := g.rng.Intn(len(servePrograms))
	name := servePrograms[i].name
	seed := g.rng.Int63n(1 << 20)
	fresh := g.rng.Float64() < serveFreshShare
	if fresh {
		g.fresh++
		name = fmt.Sprintf("%s-%s%d.shc", strings.TrimSuffix(name, ".shc"), g.tag, g.fresh)
	}
	return runRequest(i, name, seed, fresh)
}

// runRequest is a /run request for mix program i under the given file
// name; discharge also makes the server run vet on a cache miss.
func runRequest(i int, name string, seed int64, discharge bool) request {
	req := map[string]any{"source": servePrograms[i].src, "name": name, "seed": seed, "discharge": discharge}
	body, _ := json.Marshal(req) // a map of strings, ints and bools always marshals
	return request{prog: i, body: body}
}

type serveMix struct{ s *server }

func setupServe(rc runConfig) (instance, error) {
	s, err := startServer(true)
	if err != nil {
		return nil, err
	}
	// Warm the program cache, as an operator preloading the mix would.
	for _, p := range servePrograms {
		body, _ := json.Marshal(map[string]string{"source": p.src, "name": p.name})
		status, data, err := s.post("/compile", body)
		if err != nil || status != http.StatusOK {
			s.close()
			return nil, fmt.Errorf("compile %s: HTTP %d %v: %s", p.name, status, err, data)
		}
	}
	return &serveMix{s: s}, nil
}

func (m *serveMix) close() { m.s.close() }

// sendOne issues one request and judges the reply.
func sendOne(tr *tracer, s *server, r request) error {
	id := tr.begin("http.run", -1)
	status, data, err := s.post("/run", r.body)
	tr.end(id)
	if err != nil {
		return err
	}
	return checkServe(servePrograms[r.prog], status, data)
}

// closedLoop runs nproc clients back to back for d and returns the
// latencies per program, the correct replies, and the elapsed time.
func closedLoop(tr *tracer, s *server, gens []*requestGen, d time.Duration, out *outcome, mu *sync.Mutex) (map[string][]float64, int, time.Duration) {
	lat := make(map[string][]float64)
	ok := 0
	var wg sync.WaitGroup
	start := time.Now()
	for _, g := range gens {
		wg.Add(1)
		go func(g *requestGen) {
			defer wg.Done()
			for time.Since(start) < d {
				r := g.next()
				t0 := time.Now()
				err := sendOne(tr, s, r)
				el := time.Since(t0)
				mu.Lock()
				out.note(err)
				if err == nil {
					name := servePrograms[r.prog].name
					lat[name] = append(lat[name], ms(el))
					ok++
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	return lat, ok, time.Since(start)
}

// openLoop sends n requests at serveOpenRate, each timed from when it was
// due; a failed request counts as +Inf. late is how far behind its
// schedule the generator handed each request out.
func openLoop(tr *tracer, s *server, g *requestGen, n int, out *outcome, mu *sync.Mutex) (lat, late []float64) {
	lat = make([]float64, n)
	late = make([]float64, n)
	type job struct {
		i   int
		due time.Time
		r   request
	}
	jobs := make(chan job, n) // sized to the number of sends
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				err := sendOne(tr, s, j.r)
				lat[j.i] = ms(time.Since(j.due))
				if err != nil {
					lat[j.i] = math.Inf(1)
				}
				mu.Lock()
				out.note(err)
				mu.Unlock()
			}
		}()
	}
	interval := time.Second / serveOpenRate
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		r := g.next()
		time.Sleep(time.Until(due))
		late[i] = ms(time.Since(due))
		jobs <- job{i: i, due: due, r: r}
	}
	close(jobs)
	wg.Wait()
	return lat, late
}

func (m *serveMix) run(rc runConfig) (*outcome, error) {
	out := newOutcome()
	log := newOpLog()
	out.ops = log
	var mu sync.Mutex
	var gens []*requestGen // one request stream per closed-loop client
	for w := 0; w < runtime.NumCPU(); w++ {
		gens = append(gens, &requestGen{rng: rand.New(rand.NewSource(rc.seed*7919 + int64(w))), tag: "c" + strconv.Itoa(w) + "-"})
	}
	for i := 0; i < 20; i++ { // warm-up, off the clock
		sendOne(nil, m.s, gens[0].next())
	}
	if rc.trace {
		return m.runTraced(rc, out, gens, &mu)
	}
	h0 := readHeap()
	lat := make(map[string][]float64)
	ok := 0
	var elapsed time.Duration
	// Segments of refEvery, with the host reference timed between them.
	for elapsed < rc.budget {
		l, n, el := closedLoop(nil, m.s, gens, min(refEvery, rc.budget-elapsed), out, &mu)
		for name, xs := range l {
			lat[name] = append(lat[name], xs...)
		}
		ok += n
		elapsed += el
		rc.host.tick()
	}
	heap := readHeap().since(h0)
	for name, xs := range lat {
		log.byProg[name] = xs
	}
	met := out.metrics
	met["run_geomean_ms"] = geomeanOfMedians(lat)
	met["req_per_s"] = float64(ok) / elapsed.Seconds()
	met["alloc_mb_per_op"] = mb(heap.allocBytes) / float64(out.attempted)
	return out, nil
}

// runTraced is the per-layer run. The open loop sends serveOpenRequests
// (fewer if the budget is short) and the closed loop takes the rest of
// the budget, rotating through three kinds of segment on equal footing:
// the end-to-end configuration, the same with client spans on, and a
// server with observability off. Their throughputs give the tracing and
// the obsrv overheads. The open loop runs traced; /metrics is scraped
// around both loops.
func (m *serveMix) runTraced(rc runConfig, out *outcome, gens []*requestGen, mu *sync.Mutex) (*outcome, error) {
	nOpen := min(serveOpenRequests, int(rc.budget.Seconds()*serveOpenRate/2))
	if nOpen < 1 {
		nOpen = 1
	}
	closedFor := rc.budget - time.Duration(nOpen)*time.Second/serveOpenRate
	openGen := &requestGen{rng: rand.New(rand.NewSource(rc.seed*7919 - 1)), tag: "o-"}
	off, err := startServer(false)
	if err != nil {
		return nil, err
	}
	defer off.close()
	tr := newTracer()
	before, err := scrape(m.s)
	if err != nil {
		return nil, err
	}
	h0 := readHeap()
	const segments = 9
	var plain, traced, noObs []float64
	for seg := 0; seg < segments; seg++ {
		d := closedFor / segments
		switch seg % 3 {
		case 0:
			_, ok, el := closedLoop(nil, m.s, gens, d, out, mu)
			plain = append(plain, float64(ok)/el.Seconds())
		case 1:
			_, ok, el := closedLoop(tr, m.s, gens, d, out, mu)
			traced = append(traced, float64(ok)/el.Seconds())
		case 2:
			_, ok, el := closedLoop(nil, off, gens, d, out, mu)
			noObs = append(noObs, float64(ok)/el.Seconds())
		}
	}
	openLat, late := openLoop(tr, m.s, openGen, nOpen, out, mu)
	heap := readHeap().since(h0)
	after, err := scrape(m.s)
	if err != nil {
		return nil, err
	}

	met := out.metrics
	met["trace.overhead_pct"] = 100 * (median(plain)/median(traced) - 1)
	met["obsrv.overhead_pct"] = 100 * (median(noObs) - median(plain)) / median(noObs)
	met["gc.cycles_per_op"] = float64(heap.gcCycles) / float64(out.attempted)
	met["lat_p50_ms"] = finite(median(openLat))
	if len(openLat) >= 1000 {
		met["lat_p99_ms"] = finite(quantile(openLat, 0.99))
	}
	met["loadgen.late_p99_ms"] = quantile(late, 0.99)
	for _, ph := range obsrv.PhaseNames {
		key := `{phase="` + ph + `"}`
		sum := after["sharc_phase_duration_seconds_sum"+key] - before["sharc_phase_duration_seconds_sum"+key]
		n := after["sharc_phase_duration_seconds_count"+key] - before["sharc_phase_duration_seconds_count"+key]
		if n > 0 {
			met["serve."+strings.ReplaceAll(ph, "-", "_")+"_ms"] = 1000 * sum / n
		}
	}
	hits := after["sharc_cache_hits_total"] - before["sharc_cache_hits_total"]
	misses := after["sharc_cache_misses_total"] - before["sharc_cache_misses_total"]
	if hits+misses > 0 {
		met["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	met["serve.refused"] = after["sharc_admission_refused_total"] - before["sharc_admission_refused_total"]
	met["serve.timeouts"] = after["sharc_request_timeouts_total"] - before["sharc_request_timeouts_total"]

	// interp.New runs inside the server on every request; time it from
	// outside on the mix programs.
	var newBytes uint64
	probes := 0
	for _, p := range servePrograms {
		prog, err := compileProgram(p.name, p.src)
		if err != nil {
			return nil, err
		}
		for i := 0; i < 5; i++ {
			h := readHeap()
			id := tr.begin("interp.New", -1)
			interp.New(prog, interp.DefaultConfig())
			tr.end(id)
			newBytes += readHeap().since(h).allocBytes
			probes++
		}
	}
	met["interp.setup_ms"] = tr.mean("interp.New")
	met["interp.setup_mb"] = mb(newBytes) / float64(probes)
	return out, tr.write(spanDir(rc), spanFile("serve-mix", rc))
}

// scrape reads the server's /metrics into series -> value.
func scrape(s *server) (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	series := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		series[line[:i]] = v
	}
	return series, sc.Err()
}
