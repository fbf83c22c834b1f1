package index

import (
	"fmt"
	"math/rand"

	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// Engine is what the op generator drives: either index behind one
// interface, so both see byte-identical op sequences.
type Engine interface {
	Name() string
	Insert(key, val uint64)
	Delete(key uint64) bool
	Lookup(key uint64) (uint64, bool)
	Scan(lo uint64, fn func(k, v uint64) bool)
	Flush()
	Stats() Stats
}

// Stats summarizes one engine run. WriteAmplification is the ratio of
// bytes the pager physically wrote to bytes the workload logically changed
// — the per-index amplification Kim/Whang/Song's page-differential logging
// paper argues should be tracked separately from device-level cleaning.
type Stats struct {
	Engine       string
	Keys         int
	LogicalBytes units.Bytes
	WrittenBytes units.Bytes
	PageReads    int64
	PageWrites   int64
}

// WriteAmplification returns WrittenBytes / LogicalBytes (0 when nothing
// was logically written).
func (s Stats) WriteAmplification() float64 {
	if s.LogicalBytes == 0 {
		return 0
	}
	return float64(s.WrittenBytes) / float64(s.LogicalBytes)
}

// OpKind is one generated operation type.
type OpKind uint8

const (
	OpInsert OpKind = iota
	OpLookup
	OpScan
	OpDelete
)

// Op is one generated index operation. N is the scan length for OpScan.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
	N    int
}

// Mix weights the four op kinds; they need not sum to any particular total.
type Mix struct {
	Insert, Lookup, Scan, Delete int
}

// DefaultMix is a write-heavy embedded-database profile: half inserts,
// frequent point reads, occasional range scans and deletes.
var DefaultMix = Mix{Insert: 50, Lookup: 35, Scan: 10, Delete: 5}

// ReadHeavyMix models a settled database serving mostly queries.
var ReadHeavyMix = Mix{Insert: 15, Lookup: 65, Scan: 15, Delete: 5}

func (m Mix) total() int { return m.Insert + m.Lookup + m.Scan + m.Delete }

// MixByName resolves a named op mix: "default" (or "") is DefaultMix,
// "read-heavy" is ReadHeavyMix. The names are the -mix flag values of
// storagesim and the indexbench variants.
func MixByName(name string) (Mix, error) {
	switch name {
	case "", "default":
		return DefaultMix, nil
	case "read-heavy":
		return ReadHeavyMix, nil
	default:
		return Mix{}, fmt.Errorf("index: unknown mix %q (want default or read-heavy)", name)
	}
}

// OpsConfig parameterizes one deterministic workload.
type OpsConfig struct {
	Seed int64
	Ops  int
	Mix  Mix

	// KeySpace bounds generated keys to [0, KeySpace). 0 means 1<<40.
	KeySpace uint64
	// HotFraction of targeting ops (lookup/delete, and the skewed share of
	// inserts) hit the most recently inserted HotKeys fraction of keys —
	// the locality real embedded databases show. Zero values default to
	// 0.8 targeting / 0.2 recent.
	HotFraction float64
	HotKeys     float64
	// MaxScan bounds scan lengths. 0 means 64.
	MaxScan int
	// MeanGap is the mean simulated time between ops. 0 means 50ms — an
	// interactive PDA-database rate (~20 ops/s) that keeps every simulated
	// device below open-loop saturation, so replay latencies measure the
	// device rather than unbounded queueing.
	MeanGap units.Time
}

func (c OpsConfig) withDefaults() OpsConfig {
	if c.Mix.total() == 0 {
		c.Mix = DefaultMix
	}
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 40
	}
	if c.HotFraction == 0 {
		c.HotFraction = 0.8
	}
	if c.HotKeys == 0 {
		c.HotKeys = 0.2
	}
	if c.MaxScan == 0 {
		c.MaxScan = 64
	}
	if c.MeanGap == 0 {
		c.MeanGap = 50 * units.Millisecond
	}
	return c
}

// OpGen deterministically generates ops from a seed. It tracks the inserted
// key set itself (never consulting an engine), so every engine given the
// same config receives the identical op sequence.
type OpGen struct {
	cfg  OpsConfig
	rng  *rand.Rand
	keys []uint64 // insertion order; duplicates possible, deletions leave holes
	live map[uint64]bool
}

// NewOpGen builds a generator for cfg (defaults applied).
func NewOpGen(cfg OpsConfig) *OpGen {
	cfg = cfg.withDefaults()
	return &OpGen{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		live: make(map[uint64]bool),
	}
}

// pickKnown returns a previously inserted key, skewed toward recent ones.
func (g *OpGen) pickKnown() (uint64, bool) {
	if len(g.keys) == 0 {
		return 0, false
	}
	if g.rng.Float64() < g.cfg.HotFraction {
		hot := int(float64(len(g.keys)) * g.cfg.HotKeys)
		if hot < 1 {
			hot = 1
		}
		return g.keys[len(g.keys)-1-g.rng.Intn(hot)], true
	}
	return g.keys[g.rng.Intn(len(g.keys))], true
}

// freshKey draws a key not yet live. KeySpace is vastly larger than any
// run, so a couple of draws always suffice; the loop is bounded anyway.
func (g *OpGen) freshKey() uint64 {
	for i := 0; i < 64; i++ {
		k := uint64(g.rng.Int63()) % g.cfg.KeySpace
		if !g.live[k] {
			return k
		}
	}
	// Pathologically tiny key space: accept an overwrite.
	return uint64(g.rng.Int63()) % g.cfg.KeySpace
}

// Next produces the next operation.
func (g *OpGen) Next() Op {
	m := g.cfg.Mix
	r := g.rng.Intn(m.total())
	switch {
	case r < m.Insert:
		var key uint64
		// A slice of inserts are updates to recent keys; the rest are fresh.
		if len(g.keys) > 0 && g.rng.Float64() < 0.3 {
			key, _ = g.pickKnown()
		} else {
			key = g.freshKey()
		}
		if !g.live[key] {
			g.keys = append(g.keys, key)
			g.live[key] = true
		}
		return Op{Kind: OpInsert, Key: key, Val: uint64(g.rng.Int63())}
	case r < m.Insert+m.Lookup:
		if key, ok := g.pickKnown(); ok {
			return Op{Kind: OpLookup, Key: key}
		}
		return Op{Kind: OpLookup, Key: g.freshKey()}
	case r < m.Insert+m.Lookup+m.Scan:
		key, ok := g.pickKnown()
		if !ok {
			key = g.freshKey()
		}
		return Op{Kind: OpScan, Key: key, N: 1 + g.rng.Intn(g.cfg.MaxScan)}
	default:
		if key, ok := g.pickKnown(); ok {
			delete(g.live, key)
			return Op{Kind: OpDelete, Key: key}
		}
		return Op{Kind: OpDelete, Key: g.freshKey()}
	}
}

// gap draws an exponentially distributed inter-op time (≥ 1 µs so trace
// times strictly advance within float precision of the mean).
func (g *OpGen) gap() units.Time {
	dt := units.Time(g.rng.ExpFloat64() * float64(g.cfg.MeanGap))
	if dt < 1 {
		dt = 1
	}
	return dt
}

// Apply drives engine through one op, advancing the pager clock first so
// the records each op emits carry its arrival time.
func Apply(pg *Pager, e Engine, g *OpGen, op Op) {
	pg.Advance(g.gap())
	switch op.Kind {
	case OpInsert:
		e.Insert(op.Key, op.Val)
	case OpLookup:
		e.Lookup(op.Key)
	case OpScan:
		n := 0
		e.Scan(op.Key, func(_, _ uint64) bool {
			n++
			return n < op.N
		})
	case OpDelete:
		e.Delete(op.Key)
	}
}

// EngineKind selects which index engine a trace run uses.
type EngineKind string

const (
	EngineBTree EngineKind = "btree"
	EngineLSM   EngineKind = "lsm"
)

// EngineKinds lists every engine in display order.
var EngineKinds = []EngineKind{EngineBTree, EngineLSM}

// TraceConfig is everything needed to produce one index workload trace.
type TraceConfig struct {
	Engine EngineKind
	Ops    OpsConfig

	// PageSize is the pager page size. 0 means 1 KiB.
	PageSize units.Bytes
	// PoolPages is the buffer-pool size in pages. 0 means 32 — small
	// enough that the working set spills and real I/O traffic appears.
	PoolPages int
	// MemtableBytes bounds the LSM memtable. 0 means 8 KiB.
	MemtableBytes units.Bytes
}

func (c TraceConfig) withDefaults() TraceConfig {
	if c.PageSize == 0 {
		c.PageSize = 1 * units.KB
	}
	if c.PoolPages == 0 {
		c.PoolPages = 32
	}
	if c.MemtableBytes == 0 {
		c.MemtableBytes = 8 * units.KB
	}
	return c
}

// NewEngine builds the configured engine over pg.
func NewEngine(cfg TraceConfig, pg *Pager) (Engine, error) {
	switch cfg.Engine {
	case EngineBTree:
		return NewBTree(pg), nil
	case EngineLSM:
		return NewLSM(pg, cfg.MemtableBytes), nil
	default:
		return nil, fmt.Errorf("index: unknown engine %q", cfg.Engine)
	}
}

// BenchOps is the op count of the canonical indexbench workload: large
// enough that both engines spill their pools and the LSM runs multi-level
// compactions, small enough that the 2×4×8 experiment grid replays fast.
const BenchOps = 12000

// BenchTraceConfig is the canonical workload the indexbench experiment
// replays (and the golden determinism tests pin): default mix, default
// pager geometry, BenchOps operations.
func BenchTraceConfig(engine EngineKind, seed int64) TraceConfig {
	return TraceConfig{Engine: engine, Ops: OpsConfig{Seed: seed, Ops: BenchOps}}
}

// BenchOpsReadHeavy is the op count of the read-heavy bench variant,
// scaled so its 15% insert share builds the same ~6000-key settled index
// the default mix's 50% share does. With equal index sizes the two
// sweeps differ only in the op stream served against them; at BenchOps
// the read-heavy tree would fit the pager pool and every lookup would
// hit cache, leaving nothing for the devices to serve.
const BenchOpsReadHeavy = 40000

// BenchTraceConfigMix is BenchTraceConfig under a named op mix
// (MixByName); the read-heavy mix swaps in BenchOpsReadHeavy.
func BenchTraceConfigMix(engine EngineKind, seed int64, mixName string) (TraceConfig, error) {
	mix, err := MixByName(mixName)
	if err != nil {
		return TraceConfig{}, err
	}
	cfg := BenchTraceConfig(engine, seed)
	cfg.Ops.Mix = mix
	if mix == ReadHeavyMix {
		cfg.Ops.Ops = BenchOpsReadHeavy
	}
	return cfg, nil
}

// GenerateTrace runs the configured engine over the generated op sequence
// and returns the resulting trace plus the engine's run stats. The same
// config always yields a byte-identical trace.
func GenerateTrace(cfg TraceConfig) (*trace.Trace, Stats, error) {
	cfg = cfg.withDefaults()
	pg, err := NewPager(cfg.PageSize, cfg.PoolPages)
	if err != nil {
		return nil, Stats{}, err
	}
	eng, err := NewEngine(cfg, pg)
	if err != nil {
		return nil, Stats{}, err
	}
	g := NewOpGen(cfg.Ops)
	for i := 0; i < g.cfg.Ops; i++ {
		Apply(pg, eng, g, g.Next())
	}
	eng.Flush()
	st := eng.Stats()
	t := pg.Trace(fmt.Sprintf("index-%s", eng.Name()))
	if err := t.Validate(); err != nil {
		return nil, Stats{}, fmt.Errorf("index: generated trace invalid: %w", err)
	}
	return t, st, nil
}
