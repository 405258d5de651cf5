package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"time"

	"mlpcache/internal/experiments"
	"mlpcache/internal/sim"
	"mlpcache/internal/simerr"
	"mlpcache/internal/workload"
)

// Telemetry formats a job may request for its response body.
const (
	// TelemetryMetrics returns the run's mlpcache.metrics/v1 JSONL
	// document (the default, and the only cacheable format).
	TelemetryMetrics = "metrics"
	// TelemetryEventsV1 streams the run's events as mlpcache.events/v1
	// JSONL instead of the metric set.
	TelemetryEventsV1 = "events-v1"
	// TelemetryEventsV2 streams the run's events in the compact
	// mlpcache.events/v2 binary encoding.
	TelemetryEventsV2 = "events-v2"
)

// Job is one sweep request: a single benchmark×policy simulation, or a
// whole experiment table by registry id. The zero values of Deadline,
// Client and Telemetry fall back to server defaults; those three fields
// are excluded from the result-cache key since they don't affect the
// simulation.
type Job struct {
	// Experiment, when non-empty, runs a whole experiment table (an
	// experiments registry id such as "fig9") and returns its
	// mlpcache.table/v1 JSON. Mutually exclusive with Bench/Policy.
	Experiment string `json:"experiment,omitempty"`

	// Bench names the workload model (required for single runs).
	Bench string `json:"bench,omitempty"`
	// Policy is the replacement policy kind ("lru" when empty).
	Policy string `json:"policy,omitempty"`
	// Lambda, Leaders, PselBits and RandDynamic mirror the mlpsim
	// policy-tuning flags.
	Lambda      int  `json:"lambda,omitempty"`
	Leaders     int  `json:"leaders,omitempty"`
	PselBits    int  `json:"psel,omitempty"`
	RandDynamic bool `json:"rand_dynamic,omitempty"`

	// Instructions is the per-run budget (server default when zero,
	// capped at Config.MaxInstructions).
	Instructions uint64 `json:"instructions,omitempty"`
	// Seed drives workload generation (default 42, the CLI default).
	Seed uint64 `json:"seed,omitempty"`
	// Benchmarks restricts an experiment job's benchmark set.
	Benchmarks []string `json:"benchmarks,omitempty"`

	// Telemetry selects the response body: TelemetryMetrics (default),
	// TelemetryEventsV1 or TelemetryEventsV2.
	Telemetry string `json:"telemetry,omitempty"`
	// DeadlineMS bounds the job's wall time in milliseconds (server
	// default when zero, capped at Config.MaxDeadline).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Client identifies the submitter for per-client admission caps;
	// empty submitters share the "anonymous" bucket.
	Client string `json:"client,omitempty"`
}

// normalize fills defaulted fields in place.
func (j *Job) normalize(cfg Config) {
	if j.Policy == "" {
		j.Policy = string(sim.PolicyLRU)
	}
	if j.Instructions == 0 {
		j.Instructions = cfg.DefaultInstructions
	}
	if j.Seed == 0 {
		j.Seed = 42
	}
	if j.Telemetry == "" {
		j.Telemetry = TelemetryMetrics
	}
	if j.Client == "" {
		j.Client = "anonymous"
	}
}

// Validate checks the job against the server's admission limits,
// wrapping failures in simerr.ErrBadConfig / simerr.ErrUnknownBenchmark.
// Call after normalize.
func (j *Job) Validate(cfg Config) error {
	switch j.Telemetry {
	case TelemetryMetrics, TelemetryEventsV1, TelemetryEventsV2:
	default:
		return simerr.New(simerr.ErrBadConfig,
			"service: unknown telemetry %q (want %s, %s or %s)",
			j.Telemetry, TelemetryMetrics, TelemetryEventsV1, TelemetryEventsV2)
	}
	if j.Instructions > cfg.MaxInstructions {
		return simerr.New(simerr.ErrBadConfig,
			"service: instruction budget %d exceeds the server cap %d",
			j.Instructions, cfg.MaxInstructions)
	}
	if j.DeadlineMS < 0 {
		return simerr.New(simerr.ErrBadConfig, "service: deadline_ms must be >= 0")
	}
	if j.Experiment != "" {
		if j.Bench != "" {
			return simerr.New(simerr.ErrBadConfig,
				"service: a job names either an experiment or a bench, not both")
		}
		if !slices.Contains(append(experiments.AllIDs(), experiments.SensitivityIDs()...), j.Experiment) {
			return simerr.New(simerr.ErrBadConfig,
				"service: unknown experiment %q (known: %v plus %v)",
				j.Experiment, experiments.AllIDs(), experiments.SensitivityIDs())
		}
		for _, b := range j.Benchmarks {
			if _, ok := workload.ByName(b); !ok {
				return simerr.New(simerr.ErrUnknownBenchmark,
					"service: unknown benchmark %q (known: %v)", b, workload.Names())
			}
		}
		if j.Telemetry != TelemetryMetrics {
			return simerr.New(simerr.ErrBadConfig,
				"service: experiment jobs return tables, not event streams")
		}
		return nil
	}
	if _, ok := workload.ByName(j.Bench); !ok {
		return simerr.New(simerr.ErrUnknownBenchmark,
			"service: unknown benchmark %q (known: %v)", j.Bench, workload.Names())
	}
	if !sim.PolicyKind(j.Policy).Known() {
		return simerr.New(simerr.ErrBadConfig, "service: unknown policy %q", j.Policy)
	}
	return nil
}

// deadline resolves the job's effective wall-time bound.
func (j *Job) deadline(cfg Config) time.Duration {
	d := cfg.DefaultDeadline
	if j.DeadlineMS > 0 {
		d = time.Duration(j.DeadlineMS) * time.Millisecond
	}
	if cfg.MaxDeadline > 0 && d > cfg.MaxDeadline {
		d = cfg.MaxDeadline
	}
	return d
}

// Key returns the job's stable result-cache key: a SHA-256 over every
// field that affects the simulation output, excluding deadline, client
// identity and telemetry format. Two submitters asking for the same
// configuration therefore share one cache entry and one in-flight
// simulation.
func (j *Job) Key() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "exp=%s|bench=%s|policy=%s|lambda=%d|leaders=%d|psel=%d|rand=%t|n=%d|seed=%d|benches=%v",
		j.Experiment, j.Bench, j.Policy, j.Lambda, j.Leaders, j.PselBits,
		j.RandDynamic, j.Instructions, j.Seed, j.Benchmarks)
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

// spec builds the simulator policy spec for a single-run job.
func (j *Job) spec() sim.PolicySpec {
	return sim.PolicySpec{
		Kind:        sim.PolicyKind(j.Policy),
		Lambda:      j.Lambda,
		LeaderSets:  j.Leaders,
		PselBits:    j.PselBits,
		RandDynamic: j.RandDynamic,
		Seed:        j.Seed,
	}
}
