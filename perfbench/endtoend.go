package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"fsaicomm"
	"fsaicomm/internal/serve"
)

// e2e accumulates the per-op samples of an end-to-end run.
type e2e struct {
	latency []float64 // ms per timed op
	solve   []float64 // s per timed op
	setup   []float64 // s, per op (setup-cold) or per warm-up build
	iters   []float64 // per right-hand side
	rhs     int       // right-hand sides solved in the timed loop
	elapsed time.Duration
	alloc   uint64 // heap bytes allocated in the timed loop
}

// runEndToEnd runs the workload's closed loop for the given time with no
// tracing and reports the end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds float64, t *tally, m metrics) error {
	a, err := loadMatrix(w.matrix)
	if err != nil {
		return err
	}
	budget := time.Duration(seconds * float64(time.Second))
	src := newRHSSource(seed)
	var s e2e
	switch w.name {
	case "setup-cold":
		err = loopSetupCold(w, a, src, budget, t, &s)
	case "serve-warm":
		err = loopServeWarm(w, a, seed, budget, t, &s)
	default:
		err = fmt.Errorf("no loop for workload %q", w.name)
	}
	if err != nil {
		return err
	}
	ops := len(s.latency)
	if ops == 0 {
		return fmt.Errorf("no op completed in %v", budget)
	}
	m.set("latency_p50_ms", "ms", median(s.latency))
	m.set("latency_p90_ms", "ms", quantile(s.latency, 0.9))
	m.set("throughput_rhs_s", "1/s", float64(s.rhs)/s.elapsed.Seconds())
	m.set("setup_s", "s", median(s.setup))
	m.set("solve_s", "s", median(s.solve))
	m.set("iterations", "count", median(s.iters))
	m.set("alloc_mb_per_op", "MB", float64(s.alloc)/float64(ops)/(1<<20))
	return nil
}

// timedLoop calls op until the budget is spent and records wall time and
// heap allocation of the whole loop.
func timedLoop(budget time.Duration, s *e2e, op func()) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for time.Since(start) < budget {
		op()
	}
	s.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
}

// loopSetupCold: each op is Prepare followed by one Prepared.Solve.
func loopSetupCold(w workload, a *fsaicomm.Matrix, src *rhsSource, budget time.Duration, t *tally, s *e2e) error {
	opt := prepareOptions(fsaicomm.FSAIEComm, w.ranks)
	so := solveOptions("")
	op := func(record bool) {
		b := src.next(a.Rows)
		t0 := time.Now()
		p, err := fsaicomm.Prepare(a, opt)
		if err != nil {
			t.op("prepare", err)
			return
		}
		t1 := time.Now()
		res, err := p.Solve(context.Background(), b, so)
		t2 := time.Now()
		if err == nil {
			err = checkSolution(a, res.X, b)
		}
		t.op("setup-cold op", err)
		if err != nil || !record {
			return
		}
		s.latency = append(s.latency, ms(t2.Sub(t0)))
		s.setup = append(s.setup, t1.Sub(t0).Seconds())
		s.solve = append(s.solve, t2.Sub(t1).Seconds())
		s.iters = append(s.iters, float64(res.Iterations))
		s.rhs++
	}
	op(false) // warm-up: the first Prepare of a process runs cold
	timedLoop(budget, s, func() { op(true) })
	return nil
}

// prepareWarm builds the warm system setupReps times and records each
// build's wall time; the last build is returned.
func prepareWarm(a *fsaicomm.Matrix, opt fsaicomm.Options, s *e2e) (*fsaicomm.Prepared, error) {
	var p *fsaicomm.Prepared
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if p, err = fsaicomm.Prepare(a, opt); err != nil {
			return nil, fmt.Errorf("prepare: %w", err)
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
	}
	return p, nil
}

// checkBatch verifies every column of a batched solve.
func checkBatch(a *fsaicomm.Matrix, rhs [][]float64, br *fsaicomm.BatchResult) error {
	if len(br.Cols) != len(rhs) {
		return fmt.Errorf("batch returned %d columns, want %d", len(br.Cols), len(rhs))
	}
	for c, col := range br.Cols {
		if !col.Converged {
			return fmt.Errorf("column %d did not converge", c)
		}
		if err := checkSolution(a, col.X, rhs[c]); err != nil {
			return fmt.Errorf("column %d: %w", c, err)
		}
	}
	return nil
}

// solveReply is the part of the /solve response the benchmark checks.
type solveReply struct {
	CacheHit   bool      `json:"cache_hit"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	SolveMs    float64   `json:"solve_ms"`
	X          []float64 `json:"x"`
}

// solveBody is the /solve request every serve op sends.
func solveBody(fp string, ranks int, b []float64) ([]byte, error) {
	return json.Marshal(map[string]any{
		"matrix": fp, "rhs": b, "method": "fsaie-comm", "filter": filter,
		"ranks": ranks, "tol": tol, "cg": "classic",
	})
}

// service is the serving layer on a loopback listener inside this process.
type service struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan error
}

func startService(clients int) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{})
	svc := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		done:   make(chan error, 1),
	}
	go func() { svc.done <- svc.hs.Serve(ln) }()
	return svc, nil
}

// stop shuts the listener down and waits for the serve goroutine to end.
func (svc *service) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = svc.hs.Shutdown(ctx) // in-flight requests have all returned by now
	_ = svc.srv.Shutdown(ctx)
	svc.client.CloseIdleConnections()
	<-svc.done
}

// upload registers a matrix (MatrixMarket body) and returns its fingerprint.
func (svc *service) upload(a *fsaicomm.Matrix) (string, error) {
	var body bytes.Buffer
	if err := fsaicomm.WriteMatrixMarket(&body, a); err != nil {
		return "", err
	}
	resp, err := svc.client.Post(svc.url+"/matrix", "text/plain", &body)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Matrix string `json:"matrix"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("upload: status %d: %v", resp.StatusCode, err)
	}
	return out.Matrix, nil
}

// post sends one /solve request and returns the decoded reply and the
// client-observed latency (request start to last response byte).
func (svc *service) post(body []byte) (*solveReply, time.Duration, error) {
	t0 := time.Now()
	resp, err := svc.client.Post(svc.url+"/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rep solveReply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, 0, err
	}
	return &rep, lat, nil
}

// checkReply verifies a warm /solve response.
func checkReply(a *fsaicomm.Matrix, rep *solveReply, b []float64) error {
	if !rep.CacheHit {
		return fmt.Errorf("warm request missed the prepared cache")
	}
	if !rep.Converged {
		return fmt.Errorf("solve did not converge")
	}
	return checkSolution(a, rep.X, b)
}

// loopServeWarm: closed-loop clients POST /solve with explicit right-hand
// sides against a warm prepared cache; coalescing stays off.
func loopServeWarm(w workload, a *fsaicomm.Matrix, seed int64, budget time.Duration, t *tally, s *e2e) error {
	if _, err := prepareWarm(a, prepareOptions(fsaicomm.FSAIEComm, w.ranks), s); err != nil {
		return err
	}
	svc, err := startService(w.clients)
	if err != nil {
		return err
	}
	defer svc.stop()
	fp, err := svc.upload(a)
	if err != nil {
		return err
	}
	warm := newRHSSource(seed)
	body, err := solveBody(fp, w.ranks, warm.next(a.Rows))
	if err != nil {
		return err
	}
	if _, _, err := svc.post(body); err != nil { // fills the prepared cache
		return fmt.Errorf("warm-up request: %w", err)
	}

	type sample struct {
		lat   time.Duration
		rep   *solveReply
		b     []float64
		err   error
		timed bool
	}
	var mu sync.Mutex
	var samples []sample
	client := func(id int, deadline time.Time, warmOnly bool) {
		src := newRHSSource(seed*1000 + int64(id) + 1)
		for first := true; first || (!warmOnly && time.Now().Before(deadline)); first = false {
			b := src.next(a.Rows)
			body, err := solveBody(fp, w.ranks, b)
			var rep *solveReply
			var lat time.Duration
			if err == nil {
				rep, lat, err = svc.post(body)
			}
			mu.Lock()
			samples = append(samples, sample{lat: lat, rep: rep, b: b, err: err, timed: !warmOnly})
			mu.Unlock()
		}
	}
	runClients := func(warmOnly bool) {
		deadline := time.Now().Add(budget)
		var wg sync.WaitGroup
		for id := 0; id < w.clients; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				client(id, deadline, warmOnly)
			}(id)
		}
		wg.Wait()
	}
	runClients(true) // one discarded request per client
	timedLoop(budget, s, func() { runClients(false) })

	for _, smp := range samples {
		err := smp.err
		if err == nil {
			err = checkReply(a, smp.rep, smp.b)
		}
		t.op("serve-warm request", err)
		if err != nil || !smp.timed {
			continue
		}
		s.latency = append(s.latency, ms(smp.lat))
		s.solve = append(s.solve, smp.rep.SolveMs/1e3)
		s.iters = append(s.iters, float64(smp.rep.Iterations))
		s.rhs++
	}
	return nil
}
