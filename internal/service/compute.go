package service

import (
	"bytes"
	"context"

	"mlpcache/internal/experiments"
	"mlpcache/internal/faultinject"
	"mlpcache/internal/metrics"
	"mlpcache/internal/sim"
	"mlpcache/internal/workload"
)

// flipBitsSkip spares the telemetry stream's leading bytes from chaos
// corruption: enough of the v1 header line / v2 magic survives that
// decoders fail loudly inside the body instead of rejecting the whole
// document as the wrong format.
const flipBitsSkip = 8

// compute executes the job's simulation(s) and renders the response
// body. Cancellation flows through ctx into sim.RunContext's
// cooperative check. arena is the calling worker's private component
// pool (rescache.Do runs this closure on the winning caller's own
// goroutine, so exclusivity holds even under singleflight).
func (s *Server) compute(ctx context.Context, j Job, arena *sim.Arena) ([]byte, error) {
	if j.Experiment != "" {
		return s.computeExperiment(ctx, j)
	}
	w, ok := workload.ByName(j.Bench)
	if !ok {
		// Validate admits only known benchmarks; reaching this is a bug
		// the worker's recover boundary would still contain.
		panic("service: unvalidated benchmark " + j.Bench)
	}
	cfg := sim.DefaultConfig()
	cfg.MaxInstructions = j.Instructions
	cfg.Policy = j.spec()
	cfg.Arena = arena
	if s.cfg.Chaos.DRAMJitterMax > 0 {
		cfg.Faults = &faultinject.Plan{
			Seed:          s.cfg.Chaos.Seed ^ j.Seed,
			DRAMJitterMax: s.cfg.Chaos.DRAMJitterMax,
		}
	}

	var buf bytes.Buffer
	var tracer metrics.FileTracer
	if j.Telemetry != TelemetryMetrics {
		format := "v1"
		if j.Telemetry == TelemetryEventsV2 {
			format = "v2"
		}
		hdr := metrics.RunHeader{Bench: j.Bench, Policy: j.spec().String(), Seed: j.Seed}
		t, err := metrics.NewFileTracer(&buf, format, hdr)
		if err != nil {
			return nil, err
		}
		tracer = t
		cfg.Trace = tracer
	}

	res, err := sim.RunContext(ctx, cfg, w.Build(j.Seed))
	if err != nil {
		return nil, err
	}
	if tracer != nil {
		if err := tracer.Flush(); err != nil {
			return nil, err
		}
		body := buf.Bytes()
		if n := s.cfg.Chaos.FlipTelemetryBits; n > 0 {
			body = faultinject.FlipBits(body, s.cfg.Chaos.Seed^j.Seed, n, flipBitsSkip)
		}
		return body, nil
	}
	if err := res.Metrics().WriteJSONL(&buf, res.Header(j.Bench, j.Seed)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// computeExperiment runs a whole experiment table on a job-scoped
// runner: one worker (the service pool is the parallelism source), the
// job's context for cancellation, and a bounded memo table.
func (s *Server) computeExperiment(ctx context.Context, j Job) ([]byte, error) {
	r := experiments.NewRunner(j.Instructions, j.Seed)
	r.Benchmarks = j.Benchmarks
	r.Workers = 1
	r.Context = ctx
	r.Capacity = s.cfg.CacheCapacity
	var buf bytes.Buffer
	if err := experiments.RunByID(r, j.Experiment, "json", &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
