package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpcache/internal/metrics"
	"mlpcache/internal/simerr"
)

// newTestServer builds a started server and registers cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitInflight polls until n jobs are executing (or fails the test).
func waitInflight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d in-flight jobs (have %d)", n, s.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitReturnsMetricsDocument(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	out := s.Submit(context.Background(), Job{Bench: "micro.isolated", Instructions: 10_000})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	lines := strings.Split(strings.TrimSpace(string(out.Body)), "\n")
	var hdr metrics.RunHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Schema != metrics.MetricsSchema || hdr.Bench != "micro.isolated" {
		t.Fatalf("header = %+v, want metrics/v1 for micro.isolated", hdr)
	}
	if len(lines) < 10 {
		t.Fatalf("metrics document has only %d lines", len(lines))
	}
}

func TestSubmitValidates(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	cases := []Job{
		{Bench: "nope"},
		{Bench: "mcf", Policy: "nope"},
		{Bench: "mcf", Instructions: 1 << 60},
		{Bench: "mcf", Telemetry: "nope"},
		{Experiment: "fig99"},
		{Experiment: "fig9", Bench: "mcf"},
	}
	for _, j := range cases {
		out := s.Submit(context.Background(), j)
		if out.Err == nil {
			t.Fatalf("job %+v admitted, want validation error", j)
		}
		if !errors.Is(out.Err, simerr.ErrBadConfig) && !errors.Is(out.Err, simerr.ErrUnknownBenchmark) {
			t.Fatalf("job %+v: err = %v, want typed bad-config", j, out.Err)
		}
	}
	if c := s.Snapshot(); c.Admitted != 0 {
		t.Fatalf("invalid jobs were admitted: %+v", c)
	}
}

// TestResultCacheDedup checks identical configurations share one
// simulation (singleflight) and later submitters hit the cache.
func TestResultCacheDedup(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	job := Job{Bench: "micro.parallel", Instructions: 40_000}
	var wg sync.WaitGroup
	bodies := make([][]byte, 8)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := s.Submit(context.Background(), job)
			if out.Err != nil {
				t.Errorf("submit %d: %v", i, out.Err)
				return
			}
			bodies[i] = out.Body
		}(i)
	}
	wg.Wait()
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("body %d diverged from body 0", i)
		}
	}
	c := s.Snapshot()
	if c.CacheMisses != 1 {
		t.Fatalf("8 identical jobs computed %d times, want 1", c.CacheMisses)
	}
	if c.CacheHits != 7 {
		t.Fatalf("cache hits = %d, want 7", c.CacheHits)
	}
}

// TestCacheEviction checks the LRU bound on the result cache.
func TestCacheEviction(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheCapacity: 1})
	for _, seed := range []uint64{1, 2, 1} {
		out := s.Submit(context.Background(), Job{Bench: "micro.isolated", Instructions: 10_000, Seed: seed})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	c := s.Snapshot()
	if c.CacheEvictions == 0 {
		t.Fatal("capacity-1 cache never evicted across 2 distinct keys")
	}
	if c.CacheMisses != 3 {
		t.Fatalf("misses = %d, want 3 (the third job's key was evicted)", c.CacheMisses)
	}
}

// TestDeadlineCancelsJob checks a short deadline stops a long
// simulation with the typed sentinel.
func TestDeadlineCancelsJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for i, j := range []Job{
		{Bench: "mcf", Instructions: 40_000_000, DeadlineMS: 30},
		{Experiment: "sens-mem", Instructions: 2_000_000, DeadlineMS: 30},
		{Experiment: "stab", Instructions: 2_000_000, DeadlineMS: 30},
	} {
		out := s.Submit(context.Background(), j)
		if !errors.Is(out.Err, simerr.ErrCancelled) {
			t.Fatalf("%+v: err = %v, want ErrCancelled", j, out.Err)
		}
		if c := s.Snapshot(); c.Cancelled != uint64(i+1) {
			t.Fatalf("%+v: cancelled counter = %d, want %d", j, c.Cancelled, i+1)
		}
	}
}

// TestQueueFullRejects checks bounded-queue admission: with one busy
// worker and a depth-1 queue, a third concurrent job bounces with
// ErrQueueFull.
func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, DefaultDeadline: time.Minute})
	slow := Job{Bench: "mcf", Instructions: 20_000_000}
	done := make(chan Outcome, 2)
	go func() { done <- s.Submit(context.Background(), slow) }()
	waitInflight(t, s, 1)
	go func() { done <- s.Submit(context.Background(), Job{Bench: "mcf", Instructions: 20_000_000, Seed: 2}) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c := s.Snapshot()
		if c.Admitted == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("second job never queued: %+v", c)
		}
		time.Sleep(time.Millisecond)
	}
	out := s.Submit(context.Background(), Job{Bench: "mcf", Instructions: 20_000_000, Seed: 3})
	if !errors.Is(out.Err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", out.Err)
	}
	s.Close() // cancel the two slow jobs
	<-done
	<-done
	c := s.Snapshot()
	if c.RejectedQueue != 1 || c.Admitted != 2 {
		t.Fatalf("counters = %+v, want 2 admitted + 1 queue rejection", c)
	}
}

// TestPerClientCap checks one client cannot monopolize the system while
// another still gets in.
func TestPerClientCap(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueDepth: 8, PerClientCap: 1, DefaultDeadline: time.Minute})
	done := make(chan Outcome, 1)
	go func() {
		done <- s.Submit(context.Background(), Job{Bench: "mcf", Instructions: 20_000_000, Client: "greedy"})
	}()
	waitInflight(t, s, 1)
	out := s.Submit(context.Background(), Job{Bench: "parser", Instructions: 10_000, Client: "greedy"})
	if !errors.Is(out.Err, ErrClientCap) {
		t.Fatalf("second greedy job: err = %v, want ErrClientCap", out.Err)
	}
	ok := make(chan Outcome, 1)
	go func() {
		ok <- s.Submit(context.Background(), Job{Bench: "micro.isolated", Instructions: 10_000, Client: "modest"})
	}()
	select {
	case out := <-ok:
		if out.Err != nil {
			t.Fatalf("other client's job failed: %v", out.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("other client's job starved behind the cap")
	}
	s.Close()
	<-done
}

// TestRetryAbsorbsTransientFaults checks injected transient failures
// are retried to success within the budget.
func TestRetryAbsorbsTransientFaults(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, MaxRetries: 5,
		RetryBaseDelay: time.Microsecond, RetryMaxDelay: 10 * time.Microsecond,
		RetryBudgetBurst: 64, RetryBudgetRatio: 1,
		Chaos: Chaos{Seed: 11, FailPermille: 350},
	})
	okCount := 0
	for i := 0; i < 20; i++ {
		out := s.Submit(context.Background(),
			Job{Bench: "micro.isolated", Instructions: 5_000, Seed: uint64(i + 1)})
		if out.Err == nil {
			okCount++
		} else if !errors.Is(out.Err, ErrTransient) {
			t.Fatalf("job %d failed non-transiently: %v", i, out.Err)
		}
	}
	c := s.Snapshot()
	if c.Retried == 0 {
		t.Fatalf("35%% failure rate but zero retries: %+v", c)
	}
	if okCount == 0 {
		t.Fatal("no job survived retry")
	}
	if c.Completed+c.Failed != 20 {
		t.Fatalf("accounting: completed %d + failed %d != 20", c.Completed, c.Failed)
	}
}

// TestRetryBudgetBrakes checks the storm brake: with the bucket dry,
// transient failures fail fast instead of retrying.
func TestRetryBudgetBrakes(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, MaxRetries: 5,
		RetryBudgetBurst: 0.5, RetryBudgetRatio: 0.001,
		Chaos: Chaos{Seed: 3, FailPermille: 1000},
	})
	out := s.Submit(context.Background(), Job{Bench: "micro.isolated", Instructions: 5_000})
	if !errors.Is(out.Err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped ErrTransient", out.Err)
	}
	c := s.Snapshot()
	if c.BudgetExhausted != 1 || c.Retried != 0 {
		t.Fatalf("counters = %+v, want 1 budget-exhausted failure with 0 retries", c)
	}
}

// TestPanicIsolation checks a panicking job converts to ErrInternal for
// that job alone and the daemon keeps serving.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, Chaos: Chaos{Seed: 5, PanicPermille: 500}})
	var panicked, completed int
	for i := 0; i < 30; i++ {
		out := s.Submit(context.Background(),
			Job{Bench: "micro.isolated", Instructions: 5_000, Seed: uint64(i + 1)})
		switch {
		case out.Err == nil:
			completed++
		case errors.Is(out.Err, simerr.ErrInternal):
			panicked++
		default:
			t.Fatalf("job %d: unexpected error %v", i, out.Err)
		}
	}
	if panicked == 0 || completed == 0 {
		t.Fatalf("panicked=%d completed=%d: want both nonzero (seeded 50%% panic rate)", panicked, completed)
	}
	c := s.Snapshot()
	if c.Panics != uint64(panicked) || c.Completed != uint64(completed) {
		t.Fatalf("counters %+v disagree with observed panicked=%d completed=%d", c, panicked, completed)
	}
}

// TestExperimentJob checks a whole experiment table runs as one job and
// returns mlpcache.table/v1 JSON.
func TestExperimentJob(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	s := newTestServer(t, Config{Workers: 1})
	out := s.Submit(context.Background(),
		Job{Experiment: "tab3", Benchmarks: []string{"mcf"}, Instructions: 30_000})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	var doc struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(out.Body, &doc); err != nil {
		t.Fatalf("experiment body: %v", err)
	}
	if doc.Schema != "mlpcache.table/v1" {
		t.Fatalf("schema = %q, want mlpcache.table/v1", doc.Schema)
	}
}

// TestEventsTelemetryJob checks the events-v2 response decodes back to
// the run's event stream (no chaos corruption configured).
func TestEventsTelemetryJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	out := s.Submit(context.Background(),
		Job{Bench: "micro.isolated", Instructions: 10_000, Telemetry: TelemetryEventsV2})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	r, err := metrics.NewEventsReader(bytes.NewReader(out.Body))
	if err != nil {
		t.Fatalf("v2 body rejected: %v", err)
	}
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			break
		}
		n++
	}
	if err := r.Err(); err != nil {
		t.Fatalf("v2 decode: %v", err)
	}
	if n == 0 {
		t.Fatal("v2 stream decoded zero events")
	}
	if c := s.Snapshot(); c.CacheHits+c.CacheMisses != 0 {
		t.Fatalf("event-stream job touched the result cache: %+v", c)
	}
}

// TestHTTPEndpoints drives the full handler surface over real HTTP.
func TestHTTPEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, b.String()
	}

	if resp, _ := get("/healthz"); resp.StatusCode != 200 {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp, _ := get("/readyz"); resp.StatusCode != 200 {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}

	post := func(body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, b.String()
	}

	if resp, body := post(`{"bench":"micro.isolated","instructions":10000}`); resp.StatusCode != 200 {
		t.Fatalf("job = %d: %s", resp.StatusCode, body)
	} else if !strings.Contains(body, metrics.MetricsSchema) {
		t.Fatalf("job body is not a metrics document: %.120s", body)
	}
	if resp, body := post(`{"bench":"nope"}`); resp.StatusCode != 400 {
		t.Fatalf("bad bench = %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(`{"bench":"mcf","unknown_field":1}`); resp.StatusCode != 400 {
		t.Fatalf("unknown field = %d: %s", resp.StatusCode, body)
	}
	if resp, body := post(`{"bench":"mcf","instructions":40000000,"deadline_ms":20}`); resp.StatusCode != 504 {
		t.Fatalf("deadline job = %d: %s", resp.StatusCode, body)
	}

	resp, body := get("/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	for _, want := range []string{metrics.MetricsSchema, "service.jobs.admitted", "service.cache.hit_rate"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}

	// Drain flips readiness and rejects new jobs with 503.
	s.Drain(time.Second)
	if resp, _ := get("/readyz"); resp.StatusCode != 503 {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if resp, body := post(`{"bench":"mcf"}`); resp.StatusCode != 503 {
		t.Fatalf("draining job = %d: %s", resp.StatusCode, body)
	}
}

// TestMetricsSnapshotNames pins the service.* catalog: every metric the
// snapshot registers appears with its kind in docs/OBSERVABILITY.md (the
// bidirectional contract test in the repo root does the cross-check;
// this guards the set stays stable from the package's side).
func TestMetricsSnapshotNames(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	reg := s.MetricsSnapshot()
	if reg.Len() != 17 {
		t.Fatalf("service metric family has %d entries, want 17: %v", reg.Len(), reg.Names())
	}
	for _, name := range reg.Names() {
		if !strings.HasPrefix(name, "service.") {
			t.Fatalf("metric %q outside the service.* namespace", name)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Workers: -1},
		{QueueDepth: -1},
		{MaxRetries: -1},
		{Chaos: Chaos{FailPermille: 2000}},
		{Chaos: Chaos{PanicPermille: -2}},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, simerr.ErrBadConfig) {
			t.Fatalf("config %+v: err = %v, want ErrBadConfig", cfg, err)
		}
	}
}

func TestJobKeyStable(t *testing.T) {
	a := Job{Bench: "mcf", Policy: "lin", Lambda: 4, Instructions: 1000, Seed: 1}
	b := a
	b.DeadlineMS = 500
	b.Client = "someone"
	b.Telemetry = TelemetryMetrics
	if a.Key() != b.Key() {
		t.Fatal("deadline/client/telemetry leaked into the cache key")
	}
	c := a
	c.Seed = 2
	if a.Key() == c.Key() {
		t.Fatal("seed change did not change the cache key")
	}
	if len(a.Key()) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a.Key())
	}
}

func TestSubmitCallerContextCancels(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Outcome, 1)
	go func() { done <- s.Submit(ctx, Job{Bench: "mcf", Instructions: 40_000_000}) }()
	waitInflight(t, s, 1)
	cancel()
	select {
	case out := <-done:
		if !errors.Is(out.Err, simerr.ErrCancelled) {
			t.Fatalf("err = %v, want ErrCancelled after caller hangup", out.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("caller cancellation never reached the job")
	}
}

func ExampleServer() {
	s, _ := New(Config{Workers: 1})
	defer s.Close()
	out := s.Submit(context.Background(), Job{Bench: "micro.isolated", Instructions: 5_000})
	fmt.Println(out.Err, len(out.Body) > 0)
	// Output: <nil> true
}
