package fleet

import (
	"encoding/json"
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/fault"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	"mobilestorage/internal/workload"
)

// maxRuns caps one job's run count. The pipeline is constant-memory in
// the number of runs, so the cap guards wall-clock surprise (a fat-fingered
// grid), not memory.
const maxRuns = 1_000_000

// maxWorkers caps a job's requested shard concurrency.
const maxWorkers = 256

// Spec is the body of POST /jobs: a parameter grid over the paper's knobs.
// Every list axis defaults to a single paper-default entry, so the empty
// spec is one run of the synthetic workload on the cu140 disk; the
// cartesian product of the axes times Replicas is the job's run count.
// Replicas re-run every grid cell with a derived workload seed — the
// Monte-Carlo axis.
type Spec struct {
	// Name is a free-form label echoed in listings and the dashboard.
	Name string `json:"name,omitempty"`

	// Devices are catalog device names (see SelectDevice). Default: cu140.
	Devices []string `json:"devices,omitempty"`
	// Source picks device parameter provenance: "", "measured", "datasheet".
	Source string `json:"source,omitempty"`
	// Traces are workload presets (mac, dos, hp, synth). Default: synth.
	Traces []string `json:"traces,omitempty"`
	// SynthOps overrides the synthetic workload length (0 = the preset's
	// default of 20000 operations, at most workload.MaxSynthOps). Applies
	// to "synth" traces only.
	SynthOps int `json:"synth_ops,omitempty"`
	// Utilizations are flash utilization points. Default: 0.8.
	Utilizations []float64 `json:"utilizations,omitempty"`
	// Cleaning are flash-card cleaning policies. Default: greedy.
	Cleaning []string `json:"cleaning,omitempty"`
	// DRAMKB are DRAM cache sizes in KB; -1 means DefaultDRAM (2 MB,
	// except the hp trace which runs uncached). Default: -1.
	DRAMKB []int64 `json:"dram_kb,omitempty"`
	// SRAMKB are SRAM write-buffer sizes in KB; -1 means DefaultSRAM for
	// disks and none for flash. Default: -1.
	SRAMKB []int64 `json:"sram_kb,omitempty"`
	// SpinDownS are disk spin-down thresholds in seconds. Default: 5.
	SpinDownS []float64 `json:"spindown_s,omitempty"`
	// FaultPlans are inline fault-injection plans (docs/FAULTS.md schema);
	// each is one grid axis value. Omit for fault-free runs.
	FaultPlans []json.RawMessage `json:"fault_plans,omitempty"`
	// WriteBack enables the write-back DRAM cache ablation for every run.
	WriteBack bool `json:"writeback,omitempty"`

	// Replicas re-runs the whole grid with per-replica derived seeds.
	// Default: 1.
	Replicas int `json:"replicas,omitempty"`
	// Seed is the base seed replica and fault seeds derive from. Default: 1.
	Seed int64 `json:"seed,omitempty"`

	// Workers bounds the job's shard concurrency; 0 means GOMAXPROCS.
	// Aggregation order is run order regardless, so results are
	// byte-identical for any worker count.
	Workers int `json:"workers,omitempty"`
	// SampleEveryS enables each run's simulated-time sampler at this
	// interval (seconds) and streams the resulting energy samples over the
	// job's SSE feed. 0 disables per-run sampling.
	SampleEveryS float64 `json:"sample_every_s,omitempty"`
}

// withDefaults fills the single-entry defaults for omitted axes.
func (s Spec) withDefaults() Spec {
	if len(s.Devices) == 0 {
		s.Devices = []string{"cu140"}
	}
	if len(s.Traces) == 0 {
		s.Traces = []string{"synth"}
	}
	if len(s.Utilizations) == 0 {
		s.Utilizations = []float64{0.8}
	}
	if len(s.Cleaning) == 0 {
		s.Cleaning = []string{"greedy"}
	}
	if len(s.DRAMKB) == 0 {
		s.DRAMKB = []int64{-1}
	}
	if len(s.SRAMKB) == 0 {
		s.SRAMKB = []int64{-1}
	}
	if len(s.SpinDownS) == 0 {
		s.SpinDownS = []float64{DefaultSpinDown.Seconds()}
	}
	if s.Replicas <= 0 {
		s.Replicas = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	return s
}

// RunSpec is one fully-resolved device-run of a job's grid.
type RunSpec struct {
	Index       int     `json:"index"`
	Trace       string  `json:"trace"`
	Device      string  `json:"device"`
	Utilization float64 `json:"utilization"`
	Cleaning    string  `json:"cleaning"`
	DRAMKB      int64   `json:"dram_kb"`
	SRAMKB      int64   `json:"sram_kb"`
	SpinDownS   float64 `json:"spindown_s"`
	// Plan indexes Spec.FaultPlans; -1 means fault-free.
	Plan int `json:"plan"`
	// Seed is the workload seed for this run's replica; FaultSeed drives the
	// fault injector. Both derive deterministically from Spec.Seed.
	Seed      int64 `json:"seed"`
	FaultSeed int64 `json:"fault_seed"`
	Replica   int   `json:"replica"`
}

// splitmix64 is the SplitMix64 output function — the same generator the
// fault injector uses — here deriving independent per-replica and per-run
// seeds from the job's base seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// deriveSeed mixes a stream tag and an index into the base seed. Seeds stay
// non-zero so downstream "0 means default" conventions never trigger.
func deriveSeed(base int64, tag uint64, n int) int64 {
	s := int64(splitmix64(uint64(base) ^ tag ^ uint64(n)<<20))
	if s == 0 {
		s = 1
	}
	return s
}

// Seed-derivation stream tags.
const (
	seedTagTrace = 0x74726163 // "trac"
	seedTagFault = 0x666c7461 // "flta"
)

// grid is a validated job: the normalized spec, its parsed fault plans
// and its run count. Run i's spec is a pure function of these and i
// (runAt), so no run list is ever built.
type grid struct {
	spec  Spec
	plans []*fault.Plan
	total int
}

// validate normalizes the spec and checks every axis. The grid is sized
// with stepwise int64 multiplication checked against maxRuns after every
// factor: Replicas and the axis lengths arrive from untrusted JSON, and a
// single unchecked int product can wrap a huge grid to a small positive
// total that slips past the cap.
func validate(s Spec) (*grid, error) {
	s = s.withDefaults()
	var probe core.Config
	for _, d := range s.Devices {
		if err := SelectDevice(&probe, d, s.Source); err != nil {
			return nil, err
		}
	}
	for _, name := range s.Traces {
		if !knownTrace(name) {
			return nil, fmt.Errorf("unknown trace %q (want one of %v)", name, workload.Names())
		}
	}
	for _, u := range s.Utilizations {
		if u <= 0 || u > 0.99 {
			return nil, fmt.Errorf("utilization %.3f out of (0, 0.99]", u)
		}
	}
	for _, sd := range s.SpinDownS {
		if sd < 0 {
			return nil, fmt.Errorf("negative spin-down threshold %g", sd)
		}
	}
	policies := flashcard.Policies()
	for _, name := range s.Cleaning {
		if _, ok := policies[name]; !ok {
			return nil, fmt.Errorf("unknown cleaning policy %q", name)
		}
	}
	if s.SynthOps < 0 || s.SynthOps > workload.MaxSynthOps {
		return nil, fmt.Errorf("synth_ops %d out of [0, %d]", s.SynthOps, workload.MaxSynthOps)
	}
	if s.Replicas > maxRuns {
		return nil, fmt.Errorf("replicas %d exceeds the %d-run limit", s.Replicas, maxRuns)
	}
	if s.Workers < 0 || s.Workers > maxWorkers {
		return nil, fmt.Errorf("workers %d out of [0, %d]", s.Workers, maxWorkers)
	}
	if s.SampleEveryS < 0 {
		return nil, fmt.Errorf("negative sample_every_s %g", s.SampleEveryS)
	}
	plans := make([]*fault.Plan, 0, len(s.FaultPlans))
	for i, raw := range s.FaultPlans {
		p, err := fault.ParsePlan(raw)
		if err != nil {
			return nil, fmt.Errorf("fault_plans[%d]: %w", i, err)
		}
		plans = append(plans, p)
	}
	planAxis := len(plans)
	if planAxis == 0 {
		planAxis = 1 // one fault-free cell
	}

	// Every factor below is ≤ maxRuns (replicas checked above, axis lengths
	// bounded by the request body), so the running int64 product cannot wrap
	// before the per-step cap check rejects it.
	total := int64(s.Replicas)
	for _, axis := range []int{len(s.Traces), planAxis, len(s.Devices),
		len(s.Utilizations), len(s.Cleaning), len(s.DRAMKB), len(s.SRAMKB), len(s.SpinDownS)} {
		total *= int64(axis)
		if total > maxRuns {
			return nil, fmt.Errorf("grid expands to more than %d runs", maxRuns)
		}
	}
	return &grid{spec: s, plans: plans, total: int(total)}, nil
}

// runAt decodes run index i, 0 ≤ i < total, in mixed radix: spin-down is
// the innermost digit, then SRAM, DRAM, cleaning, utilization, device,
// fault plan and trace, and the replica is what remains. Replicas being
// outermost, consecutive run indices share a (trace, seed) pair — that is
// what makes the scheduler's small trace cache effective.
func (g *grid) runAt(i int) RunSpec {
	s := &g.spec
	n := i
	digit := func(radix int) int {
		d := n % radix
		n /= radix
		return d
	}
	rs := RunSpec{Index: i, Plan: -1, FaultSeed: deriveSeed(s.Seed, seedTagFault, i)}
	rs.SpinDownS = s.SpinDownS[digit(len(s.SpinDownS))]
	rs.SRAMKB = s.SRAMKB[digit(len(s.SRAMKB))]
	rs.DRAMKB = s.DRAMKB[digit(len(s.DRAMKB))]
	rs.Cleaning = s.Cleaning[digit(len(s.Cleaning))]
	rs.Utilization = s.Utilizations[digit(len(s.Utilizations))]
	rs.Device = s.Devices[digit(len(s.Devices))]
	if len(g.plans) > 0 {
		rs.Plan = digit(len(g.plans))
	}
	rs.Trace = s.Traces[digit(len(s.Traces))]
	rs.Replica = n
	rs.Seed = deriveSeed(s.Seed, seedTagTrace, n)
	return rs
}

func knownTrace(name string) bool {
	for _, n := range workload.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// generateTrace materializes one run's workload.
func (g *grid) generateTrace(rs RunSpec) (*trace.Trace, error) {
	if rs.Trace == "synth" && g.spec.SynthOps > 0 {
		return workload.Synth(workload.SynthConfig{Seed: rs.Seed, Ops: g.spec.SynthOps})
	}
	return workload.GenerateByName(rs.Trace, rs.Seed)
}

// buildConfig assembles the core.Config for one run, with the paper's
// buffer defaults that the storagesim CLI also applies (SizeBuffers).
func (g *grid) buildConfig(rs RunSpec, t *trace.Trace, prep *core.TracePrep) (core.Config, error) {
	cfg := core.Config{
		Trace:            t,
		Prep:             prep,
		WriteBack:        g.spec.WriteBack,
		SpinDown:         units.FromSeconds(rs.SpinDownS),
		CleaningPolicy:   rs.Cleaning,
		FlashUtilization: rs.Utilization,
	}
	if err := SelectDevice(&cfg, rs.Device, g.spec.Source); err != nil {
		return cfg, err
	}
	SizeBuffers(&cfg, rs.DRAMKB, rs.SRAMKB)
	if rs.Plan >= 0 {
		cfg.Faults = g.plans[rs.Plan]
		cfg.FaultSeed = rs.FaultSeed
	}
	if g.spec.SampleEveryS > 0 {
		cfg.SampleEvery = units.FromSeconds(g.spec.SampleEveryS)
	}
	return cfg, nil
}
