package main

import (
	"fmt"

	"mobilestorage/internal/cache"
	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/disk"
	"mobilestorage/internal/energy"
	"mobilestorage/internal/flashcard"
	"mobilestorage/internal/flashdisk"
	"mobilestorage/internal/sram"
	"mobilestorage/internal/stats"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
)

// plan is a core.Config resolved the way core.Run resolves it, with
// constructors that build each layer of its stack afresh from the layers'
// public constructors. The traced run builds one whole stack to capture
// every layer's input stream, then fresh single layers to replay them.
type plan struct {
	cfg       core.Config // paper defaults applied
	addrs     []units.Bytes
	dels      []units.Bytes // size of the extent a delete frees; 0 when the file was never placed
	footprint units.Bytes
	seqShare  float64
	device    string // ledger name of the device layer: disk, flashdisk or flashcard
}

// newPlan applies core.Run's defaults and places the trace with a fresh
// trace.Layout and MaxFileExtents hints. It rejects the features the
// benchmark's workloads do not use, rather than model them wrongly.
func newPlan(cfg core.Config) (*plan, error) {
	switch {
	case cfg.Trace == nil:
		return nil, fmt.Errorf("plan: no trace")
	case cfg.WriteBack, cfg.Faults != nil, cfg.Array != nil, cfg.SpinPolicy != "", cfg.AsyncErase,
		cfg.OnDemandCleaning, cfg.WearLeveling > 0, cfg.SampleEvery > 0, cfg.Reference, cfg.Observer != nil:
		return nil, fmt.Errorf("plan: config uses a feature the rebuilt stack does not model")
	}
	if err := cfg.Trace.Validate(); err != nil {
		return nil, err
	}
	if cfg.WarmFraction == 0 {
		cfg.WarmFraction = 0.1
	}
	if cfg.WarmFraction < 0 {
		cfg.WarmFraction = 0
	}
	if cfg.DRAM == nil {
		p := device.NECDRAM()
		cfg.DRAM = &p
	}
	if cfg.SRAM == nil {
		p := device.NECSRAM()
		cfg.SRAM = &p
	}
	if cfg.FlashUtilization == 0 {
		cfg.FlashUtilization = 0.80
	}
	if cfg.CleaningPolicy == "" {
		cfg.CleaningPolicy = "greedy"
	}
	p := &plan{cfg: cfg}
	switch cfg.Kind {
	case core.MagneticDisk:
		p.device = "disk"
	case core.FlashDisk:
		p.device = "flashdisk"
	case core.FlashCard:
		p.device = "flashcard"
	default:
		return nil, fmt.Errorf("plan: storage kind %v is not modelled", cfg.Kind)
	}
	p.place()
	return p, nil
}

// place replays the layout over the trace once, recording each record's
// device address (or the extent size a delete frees), the footprint that
// sizes flash devices, and the share of records in sequential runs.
func (p *plan) place() {
	t := p.cfg.Trace
	hints := t.MaxFileExtents()
	l := trace.NewLayout(t.BlockSize)
	p.addrs = make([]units.Bytes, len(t.Records))
	p.dels = make([]units.Bytes, len(t.Records))
	for i, rec := range t.Records {
		if rec.Op == trace.Delete {
			if off, size, ok := l.Extent(rec.File); ok {
				p.addrs[i], p.dels[i] = off, size
				l.Delete(rec.File)
			}
			continue
		}
		p.addrs[i] = l.Place(rec.File, rec.Offset, hints.Get(rec.File))
	}
	p.footprint = l.HighWater()

	// A record is sequential when it continues its predecessor: same op,
	// same file, and a placement starting where the previous data ended.
	inRuns := 0
	for i := 0; i < len(t.Records); {
		j := i + 1
		if t.Records[i].Op != trace.Delete {
			for j < len(t.Records) && t.Records[j].Op == t.Records[i].Op && t.Records[j].File == t.Records[i].File &&
				p.addrs[j] == p.addrs[j-1]+t.Records[j-1].Size {
				j++
			}
		}
		if j-i >= 2 {
			inRuns += j - i
		}
		i = j
	}
	if len(t.Records) > 0 {
		p.seqShare = float64(inRuns) / float64(len(t.Records))
	}
}

// stored is the live data preloaded into flash.
func (p *plan) stored() units.Bytes {
	if p.cfg.StoredData < p.footprint {
		return p.footprint
	}
	return p.cfg.StoredData
}

// flashCapacity mirrors core's sizing: an explicit capacity wins, otherwise
// stored data over utilization, rounded up to the erase unit.
func (p *plan) flashCapacity(unit units.Bytes) units.Bytes {
	if p.cfg.FlashCapacity > 0 {
		return p.cfg.FlashCapacity
	}
	c := units.Bytes(float64(p.stored()) / p.cfg.FlashUtilization)
	return units.CeilDiv(c, unit) * unit
}

// newDevice builds the plan's storage device, flash prefilled.
func (p *plan) newDevice() (device.Device, error) {
	cfg := p.cfg
	switch cfg.Kind {
	case core.MagneticDisk:
		return disk.New(cfg.Disk, disk.WithPolicy(disk.FixedThreshold{Threshold: cfg.SpinDown}))
	case core.FlashDisk:
		if err := cfg.FlashDiskParams.Validate(); err != nil {
			return nil, err
		}
		return flashdisk.New(cfg.FlashDiskParams, p.flashCapacity(cfg.FlashDiskParams.SectorSize))
	default:
		if err := cfg.FlashCardParams.Validate(); err != nil {
			return nil, err
		}
		seg := cfg.FlashCardParams.SegmentSize
		capacity := cfg.FlashCapacity
		if capacity == 0 {
			capacity = p.flashCapacity(seg)
			if capacity < p.stored()+3*seg {
				capacity = units.CeilDiv(p.stored(), seg)*seg + 3*seg
			}
		}
		policy, ok := flashcard.Policies()[cfg.CleaningPolicy]
		if !ok {
			return nil, fmt.Errorf("plan: unknown cleaning policy %q", cfg.CleaningPolicy)
		}
		c, err := flashcard.New(cfg.FlashCardParams, capacity, cfg.Trace.BlockSize, flashcard.WithPolicy(policy))
		if err != nil {
			return nil, err
		}
		if err := c.Prefill(p.stored()); err != nil {
			return nil, err
		}
		return c, nil
	}
}

// newSRAM wraps inner with the plan's SRAM buffer.
func (p *plan) newSRAM(inner device.Device) (*sram.Buffer, error) {
	return sram.New(*p.cfg.SRAM, p.cfg.SRAMBytes, p.cfg.Trace.BlockSize, inner)
}

// newCache builds the plan's DRAM cache (write-through).
func (p *plan) newCache() (*cache.Cache, error) {
	return cache.New(*p.cfg.DRAM, p.cfg.DRAMBytes, p.cfg.Trace.BlockSize, false)
}

// Call kinds of a recorded device stream.
const (
	callIdle uint8 = iota
	callAccess
	callFinish
	callSpinning
	callBackground
	callCrash
	callRecover
)

// call is one recorded device call with its outcome, so a replay can check
// call by call that it reproduces the original. Idle, Finish, Spinning,
// Crash and Recover carry their instant in req.Time; Spinning's outcome is
// 1 for true.
type call struct {
	kind uint8
	req  device.Request
	out  units.Time
}

// spinStater and backgrounder are the optional device methods sram.Buffer
// type-asserts on its inner device.
type spinStater interface {
	Spinning(now units.Time) bool
}

type backgrounder interface {
	Background(req device.Request) units.Time
}

// recorder forwards every call to inner and appends it to calls. It always
// implements device.Crasher: forwarding to a device without it is a no-op,
// which is what a caller does when its type assertion fails.
type recorder struct {
	inner device.Device
	calls []call
}

func (r *recorder) Access(req device.Request) units.Time {
	out := r.inner.Access(req)
	r.calls = append(r.calls, call{kind: callAccess, req: req, out: out})
	return out
}

func (r *recorder) Idle(now units.Time) {
	r.inner.Idle(now)
	r.calls = append(r.calls, call{kind: callIdle, req: device.Request{Time: now}})
}

func (r *recorder) Finish(now units.Time) {
	r.inner.Finish(now)
	r.calls = append(r.calls, call{kind: callFinish, req: device.Request{Time: now}})
}

func (r *recorder) Meter() *energy.Meter { return r.inner.Meter() }
func (r *recorder) Name() string         { return r.inner.Name() }

func (r *recorder) Crash(at units.Time) {
	if cr, ok := r.inner.(device.Crasher); ok {
		cr.Crash(at)
	}
	r.calls = append(r.calls, call{kind: callCrash, req: device.Request{Time: at}})
}

func (r *recorder) Recover(at units.Time) units.Time {
	out := at
	if cr, ok := r.inner.(device.Crasher); ok {
		out = cr.Recover(at)
	}
	r.calls = append(r.calls, call{kind: callRecover, req: device.Request{Time: at}, out: out})
	return out
}

func (r *recorder) spinning(now units.Time) bool {
	on := r.inner.(spinStater).Spinning(now)
	var out units.Time
	if on {
		out = 1
	}
	r.calls = append(r.calls, call{kind: callSpinning, req: device.Request{Time: now}, out: out})
	return on
}

func (r *recorder) background(req device.Request) units.Time {
	out := r.inner.(backgrounder).Background(req)
	r.calls = append(r.calls, call{kind: callBackground, req: req, out: out})
	return out
}

// The recorder variants expose exactly the optional methods the wrapped
// device has: a wrapper that added or dropped one would silently change
// how an SRAM buffer above it drains.
type (
	spinRecorder   struct{ *recorder }
	bgRecorder     struct{ *recorder }
	spinBgRecorder struct{ *recorder }
)

func (r spinRecorder) Spinning(now units.Time) bool               { return r.spinning(now) }
func (r bgRecorder) Background(req device.Request) units.Time     { return r.background(req) }
func (r spinBgRecorder) Spinning(now units.Time) bool             { return r.spinning(now) }
func (r spinBgRecorder) Background(req device.Request) units.Time { return r.background(req) }

// capture wraps dev in the recorder variant matching its optional methods.
func capture(dev device.Device) (device.Device, *recorder) {
	r := &recorder{inner: dev}
	_, spin := dev.(spinStater)
	_, bg := dev.(backgrounder)
	switch {
	case spin && bg:
		return spinBgRecorder{r}, r
	case spin:
		return spinRecorder{r}, r
	case bg:
		return bgRecorder{r}, r
	}
	return r, r
}

// replayCalls drives dev with a recorded stream and returns the index of
// the first call whose outcome differs from the recording, or -1.
func replayCalls(dev device.Device, calls []call) int {
	spin, _ := dev.(spinStater)
	bg, _ := dev.(backgrounder)
	cr, _ := dev.(device.Crasher)
	bad := -1
	for i := range calls {
		c := &calls[i]
		var out units.Time
		switch c.kind {
		case callIdle:
			dev.Idle(c.req.Time)
		case callAccess:
			out = dev.Access(c.req)
		case callFinish:
			dev.Finish(c.req.Time)
		case callSpinning:
			if spin == nil {
				return i
			}
			if spin.Spinning(c.req.Time) {
				out = 1
			}
		case callBackground:
			if bg == nil {
				return i
			}
			out = bg.Background(c.req)
		case callCrash:
			if cr != nil {
				cr.Crash(c.req.Time)
			}
		case callRecover:
			out = c.req.Time
			if cr != nil {
				out = cr.Recover(c.req.Time)
			}
		}
		if out != c.out && bad < 0 {
			bad = i
		}
	}
	return bad
}

// Cache operation kinds of a recorded DRAM stream.
const (
	cacheContains uint8 = iota
	cacheAccessTime
	cacheInsert
	cacheInvalidate
	cacheAccrue
)

// cacheOp is one recorded DRAM cache call; hit is Contains' outcome.
type cacheOp struct {
	kind uint8
	hit  bool
	a, b int64
}

// replayCache drives c with a recorded stream and returns the index of the
// first Contains whose outcome differs, or -1.
func replayCache(c *cache.Cache, ops []cacheOp) int {
	bad := -1
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case cacheContains:
			if c.Contains(units.Bytes(op.a), units.Bytes(op.b)) != op.hit && bad < 0 {
				bad = i
			}
		case cacheAccessTime:
			c.AccessTime(units.Bytes(op.a))
		case cacheInsert:
			c.Insert(units.Bytes(op.a), units.Bytes(op.b), false)
		case cacheInvalidate:
			c.Invalidate(units.Bytes(op.a), units.Bytes(op.b))
		case cacheAccrue:
			c.AccrueStandby(units.Time(op.a))
		}
	}
	return bad
}

// sample is one measured response time fed to the result statistics.
type sample struct {
	write bool
	ms    float64
}

// respStats is the statistics a Result accumulates from samples.
type respStats struct {
	read, write, overall stats.Summary
	readHist, writeHist  *stats.Histogram
}

func newRespStats() *respStats {
	return &respStats{readHist: stats.NewLatencyHistogram(), writeHist: stats.NewLatencyHistogram()}
}

func (s *respStats) add(x sample) {
	if x.write {
		s.write.Add(x.ms)
		s.writeHist.Add(x.ms)
	} else {
		s.read.Add(x.ms)
		s.readHist.Add(x.ms)
	}
	s.overall.Add(x.ms)
}

// equal reports whether s matches a Result's statistics exactly.
func (s *respStats) equal(res *core.Result) bool {
	return s.read == res.Read && s.write == res.Write && s.overall == res.Overall &&
		sameCounts(s.readHist, res.ReadHist) && sameCounts(s.writeHist, res.WriteHist)
}

func sameCounts(a, b *stats.Histogram) bool {
	if a.Overflow != b.Overflow || len(a.Counts) != len(b.Counts) {
		return false
	}
	for i := range a.Counts {
		if a.Counts[i] != b.Counts[i] {
			return false
		}
	}
	return true
}

// captured is what one traced replay of a plan records: the input stream of
// every layer and the result the rebuilt stack computed.
type captured struct {
	res      *core.Result
	cacheOps []cacheOp
	top      []call // calls into the SRAM buffer; nil without one
	dev      []call // calls into the storage device
	samples  []sample
}

// replay runs the plan's trace one record at a time (Idle, then Access)
// through a stack rebuilt from public constructors, recording each layer's
// input stream. It mirrors core.Run's per-record semantics.
func (p *plan) replay() (*captured, error) {
	cfg := p.cfg
	t := cfg.Trace
	base, err := p.newDevice()
	if err != nil {
		return nil, err
	}
	wrapped, devRec := capture(base)
	top := device.Device(devRec)
	var buf *sram.Buffer
	var topRec *recorder
	if cfg.SRAMBytes > 0 {
		if buf, err = p.newSRAM(wrapped); err != nil {
			return nil, err
		}
		topRec = &recorder{inner: buf}
		top = topRec
	}
	var dram *cache.Cache
	if cfg.DRAMBytes > 0 {
		if dram, err = p.newCache(); err != nil {
			return nil, err
		}
	}
	out := &captured{}
	logCache := func(kind uint8, a, b int64, hit bool) {
		out.cacheOps = append(out.cacheOps, cacheOp{kind: kind, hit: hit, a: a, b: b})
	}
	totalEnergy := func() float64 {
		j := base.Meter().TotalJ()
		if buf != nil {
			j += buf.Meter().TotalJ()
		}
		if dram != nil {
			j += dram.Meter().TotalJ()
		}
		return j
	}

	res := &core.Result{
		TraceName:         t.Name,
		Device:            top.Name(),
		EnergyByComponent: map[string]float64{},
	}
	st := newRespStats()
	measure := func(i int, write bool, resp units.Time, warm int) {
		if i < warm {
			return
		}
		s := sample{write: write, ms: resp.Milliseconds()}
		out.samples = append(out.samples, s)
		st.add(s)
		res.MeasuredOps++
	}

	warm := t.WarmSplit(cfg.WarmFraction)
	snapshotTaken := warm == 0
	var warmSnapshot float64
	var lastCompletion units.Time
	for i := range t.Records {
		rec := &t.Records[i]
		top.Idle(rec.Time)
		if !snapshotTaken && i >= warm {
			if dram != nil {
				dram.AccrueStandby(rec.Time)
				logCache(cacheAccrue, int64(rec.Time), 0, false)
			}
			warmSnapshot = totalEnergy()
			snapshotTaken = true
		}
		addr := p.addrs[i]
		switch rec.Op {
		case trace.Delete:
			if p.dels[i] == 0 {
				continue
			}
			if dram != nil {
				dram.Invalidate(addr, p.dels[i])
				logCache(cacheInvalidate, int64(addr), int64(p.dels[i]), false)
			}
			top.Access(device.Request{Time: rec.Time, Op: trace.Delete, File: rec.File, Addr: addr, Size: p.dels[i]})
		case trace.Read:
			var resp units.Time
			hit := false
			if dram != nil {
				hit = dram.Contains(addr, rec.Size)
				logCache(cacheContains, int64(addr), int64(rec.Size), hit)
			}
			if hit {
				resp = dram.AccessTime(rec.Size)
				logCache(cacheAccessTime, int64(rec.Size), 0, false)
			} else {
				completion := top.Access(device.Request{Time: rec.Time, Op: trace.Read, File: rec.File, Addr: addr, Size: rec.Size})
				lastCompletion = units.Max(lastCompletion, completion)
				if dram != nil {
					dram.Insert(addr, rec.Size, false)
					logCache(cacheInsert, int64(addr), int64(rec.Size), false)
				}
				resp = completion - rec.Time
			}
			measure(i, false, resp, warm)
		case trace.Write:
			completion := top.Access(device.Request{Time: rec.Time, Op: trace.Write, File: rec.File, Addr: addr, Size: rec.Size})
			lastCompletion = units.Max(lastCompletion, completion)
			if dram != nil {
				dram.AccessTime(rec.Size)
				logCache(cacheAccessTime, int64(rec.Size), 0, false)
				dram.Insert(addr, rec.Size, false)
				logCache(cacheInsert, int64(addr), int64(rec.Size), false)
			}
			measure(i, true, completion-rec.Time, warm)
		}
	}
	end := units.Max(t.Duration(), lastCompletion)
	top.Finish(end)
	if dram != nil {
		dram.AccrueStandby(end)
		logCache(cacheAccrue, int64(end), 0, false)
	}

	res.EndTime = end
	res.Read, res.Write, res.Overall = st.read, st.write, st.overall
	res.ReadHist, res.WriteHist = st.readHist, st.writeHist
	res.EnergyByComponent["storage"] = base.Meter().TotalJ()
	if buf != nil {
		res.EnergyByComponent["sram"] = buf.Meter().TotalJ()
		res.SRAMFlushes = buf.Flushes()
		res.SRAMStalledWrites = buf.StalledWrites()
	}
	if dram != nil {
		res.EnergyByComponent["dram"] = dram.Meter().TotalJ()
		res.CacheHits, res.CacheMisses = dram.Hits(), dram.Misses()
	}
	res.EnergyJ = totalEnergy() - warmSnapshot
	deviceCounters(base, res)

	out.res = res
	out.dev = devRec.calls
	if topRec != nil {
		out.top = topRec.calls
	}
	return out, nil
}

// deviceCounters fills the device-specific Result fields the way core does.
func deviceCounters(dev device.Device, res *core.Result) {
	var wear device.WearReporter
	switch d := dev.(type) {
	case *disk.Disk:
		res.SpinUps, res.SpinDowns = d.SpinUps(), d.SpinDowns()
	case *flashdisk.FlashDisk:
		wear = d
	case *flashcard.Card:
		wear = d
		res.Erases = d.TotalErases()
		res.CopiedBlocks, res.HostBlocks = d.CopiedBlocks(), d.HostBlocks()
		res.WriteStalls = d.Stalls()
		res.CleaningTime, res.HostTime = d.CleaningTime(), d.HostTime()
	}
	if wear == nil {
		return
	}
	counts := wear.EraseCounts()
	var sum, max int64
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	res.MaxEraseCount = max
	if len(counts) > 0 {
		res.MeanEraseCount = float64(sum) / float64(len(counts))
	}
	if res.Erases == 0 {
		res.Erases = sum
	}
}

// diffResults names the first field the rebuilt stack computed differently
// from core.Run; energy compares to the bit.
func diffResults(got, want *core.Result) error {
	type field struct {
		name string
		same bool
	}
	sameComp := len(got.EnergyByComponent) == len(want.EnergyByComponent)
	for k, v := range want.EnergyByComponent {
		sameComp = sameComp && got.EnergyByComponent[k] == v
	}
	for _, f := range []field{
		{"device", got.Device == want.Device},
		{"energy", got.EnergyJ == want.EnergyJ},
		{"energy by component", sameComp},
		{"read summary", got.Read == want.Read},
		{"write summary", got.Write == want.Write},
		{"overall summary", got.Overall == want.Overall},
		{"read histogram", sameCounts(got.ReadHist, want.ReadHist)},
		{"write histogram", sameCounts(got.WriteHist, want.WriteHist)},
		{"cache hits", got.CacheHits == want.CacheHits && got.CacheMisses == want.CacheMisses},
		{"spin-ups", got.SpinUps == want.SpinUps && got.SpinDowns == want.SpinDowns},
		{"erases", got.Erases == want.Erases && got.MaxEraseCount == want.MaxEraseCount && got.MeanEraseCount == want.MeanEraseCount},
		{"copied blocks", got.CopiedBlocks == want.CopiedBlocks},
		{"host blocks", got.HostBlocks == want.HostBlocks},
		{"write stalls", got.WriteStalls == want.WriteStalls},
		{"cleaning time", got.CleaningTime == want.CleaningTime && got.HostTime == want.HostTime},
		{"sram flushes", got.SRAMFlushes == want.SRAMFlushes && got.SRAMStalledWrites == want.SRAMStalledWrites},
		{"measured ops", got.MeasuredOps == want.MeasuredOps},
		{"end time", got.EndTime == want.EndTime},
	} {
		if !f.same {
			return fmt.Errorf("rebuilt stack differs from core.Run in %s", f.name)
		}
	}
	return nil
}
