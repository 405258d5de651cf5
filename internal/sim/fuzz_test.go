package sim

import (
	"errors"
	"testing"

	"mlpcache/internal/faultinject"
	"mlpcache/internal/prefetch"
	"mlpcache/internal/simerr"
	"mlpcache/internal/trace"
	"mlpcache/internal/workload"
)

// The fields FuzzConfig sets. Its input is a list of (field, value)
// byte pairs applied in order to the default machine, so a seed names
// only the fields it changes.
const (
	fzCores = iota
	fzBench
	fzL1Size
	fzL1Assoc
	fzL1Block
	fzL1Sets
	fzL2Size
	fzL2Assoc
	fzL2Block
	fzL2Sets
	fzMSHREntries
	fzMSHRAdders
	fzDRAMBanks
	fzDRAMAccess
	fzDRAMBus
	fzL1Lat
	fzL2Lat
	fzROB
	fzFetchWidth
	fzIssueWidth
	fzRetireWidth
	fzMemPorts
	fzKind
	fzLambda
	fzLeaderSets
	fzPselBits
	fzRandDynamic
	fzSeed
	fzSampleInterval
	fzEpoch
	fzAudit
	fzPrefetchStreams
	fzPrefetchDegree
	fzPrefetchDistance
	fzFaultJitter
	fzFaultCapacity
	fzFaultAfter
	fzFields
)

// fuzzInstructions bounds every core's run.
const fuzzInstructions = 3000

// fuzzKind is the fzKind value that selects kind.
func fuzzKind(kind PolicyKind) byte {
	for i, k := range AllPolicies {
		if k == kind {
			return byte(i)
		}
	}
	panic("unknown kind " + kind)
}

// decodeFuzzConfig applies data's (field, value) pairs to the default
// machine. It returns the config, the core count, and the index in
// workload.Names of the first core's model. Values span each field's
// valid range and step past it: zero or negative counts, a kind from
// AllPolicies, "" or an unknown name.
func decodeFuzzConfig(data []byte) (cfg Config, cores, bench int) {
	cfg = DefaultConfig()
	cfg.MaxInstructions = fuzzInstructions
	cores = 1
	pf := func() *prefetch.Config {
		if cfg.Prefetch == nil {
			p := prefetch.DefaultConfig()
			cfg.Prefetch = &p
		}
		return cfg.Prefetch
	}
	faults := func() *faultinject.Plan {
		if cfg.Faults == nil {
			cfg.Faults = &faultinject.Plan{Seed: 1}
		}
		return cfg.Faults
	}
	for ; len(data) >= 2; data = data[2:] {
		v := int(data[1])
		switch data[0] % fzFields {
		case fzCores:
			cores = 1 + v%2
		case fzBench:
			bench = v
		case fzL1Size:
			cfg.L1.SizeBytes = uint64(v) << 10
		case fzL1Assoc:
			cfg.L1.Assoc = v % 20
		case fzL1Block:
			cfg.L1.BlockBytes = uint64(v)
		case fzL1Sets:
			cfg.L1.Sets = v
		case fzL2Size:
			cfg.L2.SizeBytes = uint64(v) << 13
		case fzL2Assoc:
			cfg.L2.Assoc = v % 40
		case fzL2Block:
			cfg.L2.BlockBytes = uint64(v)
		case fzL2Sets:
			cfg.L2.Sets = v
		case fzMSHREntries:
			cfg.MSHR.Entries = v % 40
		case fzMSHRAdders:
			cfg.MSHR.Adders = v%8 - 1
		case fzDRAMBanks:
			cfg.DRAM.Banks = v%40 - 1
		case fzDRAMAccess:
			cfg.DRAM.AccessCycles = uint64(v) << 3
		case fzDRAMBus:
			cfg.DRAM.BusCycles = uint64(v)
		case fzL1Lat:
			cfg.L1Lat = uint64(v % 16)
		case fzL2Lat:
			cfg.L2Lat = uint64(v % 64)
		case fzROB:
			cfg.CPU.ROBEntries = v
		case fzFetchWidth:
			cfg.CPU.FetchWidth = v % 10
		case fzIssueWidth:
			cfg.CPU.IssueWidth = v % 10
		case fzRetireWidth:
			cfg.CPU.RetireWidth = v % 10
		case fzMemPorts:
			cfg.CPU.MemPorts = v % 5
		case fzKind:
			switch i := v % (len(AllPolicies) + 2); i {
			case len(AllPolicies):
				cfg.Policy.Kind = ""
			case len(AllPolicies) + 1:
				cfg.Policy.Kind = "no-such-kind"
			default:
				cfg.Policy.Kind = AllPolicies[i]
			}
		case fzLambda:
			cfg.Policy.Lambda = v%12 - 1
		case fzLeaderSets:
			cfg.Policy.LeaderSets = v%130 - 1
		case fzPselBits:
			cfg.Policy.PselBits = v%34 - 1
		case fzRandDynamic:
			cfg.Policy.RandDynamic = v&1 == 1
		case fzSeed:
			cfg.Policy.Seed = uint64(v)
		case fzSampleInterval:
			cfg.SampleInterval = uint64(v) * 100
		case fzEpoch:
			cfg.EpochInstructions = uint64(v) * 100
		case fzAudit:
			cfg.Audit = v&1 == 1
		case fzPrefetchStreams:
			pf().Streams = v%20 - 1
		case fzPrefetchDegree:
			pf().Degree = v%8 - 1
		case fzPrefetchDistance:
			pf().Distance = v%20 - 1
		case fzFaultJitter:
			faults().DRAMJitterMax = uint64(v)
		case fzFaultCapacity:
			faults().MSHRCapacity = v%10 - 1
		case fzFaultAfter:
			faults().MSHRThrottleAfter = uint64(v) * 20
		}
	}
	return cfg, cores, bench
}

// FuzzConfig decodes bytes into a bounded machine configuration and runs
// it on benchmark models for fuzzInstructions per core, on one or two
// cores. A configuration Validate rejects must fail the run with that
// simerr.ErrBadConfig; one it accepts must run without error, so a panic
// mid-build or mid-run, which the run reports as simerr.ErrInternal,
// fails the target.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	// A one-set L2 under CBS-local, and under rand-dynamic SBAR with one
	// leader, sampling the Figure 11 series: the selector read must stay
	// inside the only set.
	f.Add([]byte{fzL2Sets, 1, fzKind, fuzzKind(PolicyCBSLocal), fzSampleInterval, 10})
	f.Add([]byte{fzL2Sets, 1, fzKind, fuzzKind(PolicySBAR), fzRandDynamic, 1, fzLeaderSets, 2, fzSampleInterval, 10})
	// BCL on a 1-way L2 has no LRU-stack depth to search.
	f.Add([]byte{fzL2Assoc, 1, fzKind, fuzzKind(PolicyBCL)})
	// Epochs, audit, prefetch and faults on one core; two cores; a small
	// odd geometry under the learned predictor.
	f.Add([]byte{fzBench, 1, fzKind, fuzzKind(PolicySBAR), fzRandDynamic, 1, fzEpoch, 5, fzAudit, 1, fzPrefetchStreams, 16, fzFaultJitter, 9, fzFaultCapacity, 3})
	f.Add([]byte{fzCores, 1, fzKind, fuzzKind(PolicyCBSGlobal), fzL2Size, 16, fzMSHREntries, 2, fzAudit, 1})
	f.Add([]byte{fzKind, fuzzKind(PolicyLearned), fzL1Sets, 3, fzL2Sets, 6, fzL2Assoc, 3, fzDRAMBanks, 1, fzROB, 4, fzFetchWidth, 1})
	// A prefetcher per core and a fault plan on two cores sharing a
	// 128 KB L2, audited: the throttle resizes both MSHR files mid-run,
	// and prefetches target blocks the other core has in flight, which
	// fail both runs with ErrMSHRLeak unless skipped.
	f.Add([]byte{fzCores, 1, fzBench, 1, fzL2Size, 16, fzPrefetchStreams, 16, fzPrefetchDegree, 7, fzPrefetchDistance, 2, fzFaultJitter, 9, fzFaultCapacity, 3, fzFaultAfter, 50, fzAudit, 1})
	f.Add([]byte{fzCores, 1, fzBench, 5, fzKind, fuzzKind(PolicySBAR), fzL2Size, 16, fzPrefetchDegree, 5, fzPrefetchDistance, 13, fzFaultJitter, 40, fzFaultCapacity, 2, fzFaultAfter, 100, fzAudit, 1})
	// The chip-wide Figure 11 series on two cores under per-thread SBAR.
	f.Add([]byte{fzCores, 1, fzKind, fuzzKind(PolicySBAR), fzSampleInterval, 5, fzAudit, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, cores, bench := decodeFuzzConfig(data)
		names := workload.Names()
		srcs := make([]trace.Source, cores)
		for i := range srcs {
			spec, _ := workload.ByName(names[(bench+i)%len(names)])
			srcs[i] = spec.Build(42 + uint64(i))
		}
		want := cfg.Validate()
		var err error
		if cores == 1 {
			_, err = Run(cfg, srcs[0])
		} else {
			_, err = RunMulti(cfg, srcs...)
		}
		switch {
		case want == nil && err != nil:
			t.Fatalf("accepted config on %d cores failed: %v\n%+v", cores, err, cfg)
		case want != nil && (!errors.Is(err, simerr.ErrBadConfig) || errors.Is(err, simerr.ErrInternal)):
			t.Fatalf("config rejected with %v failed the run with %v", want, err)
		}
	})
}
