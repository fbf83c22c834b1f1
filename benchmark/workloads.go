package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/experiments"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/obs"
	"mobilestorage/internal/obsreport"
	"mobilestorage/internal/trace"
	"mobilestorage/internal/units"
	wl "mobilestorage/internal/workload"
)

// workload is one benchmark input set. setup builds what every pass reuses;
// the timed run times it together with the first pass, then runs passes
// back to back.
type workload struct {
	name  string
	setup func(seed int64) (*session, error)
}

// session is a workload set up for one seed. It holds only what the
// program's passes use, so the process's memory is the program's.
type session struct {
	records int64 // trace records one pass replays
	// pass runs the workload once and returns its rendered output, the
	// bytes the digest check covers.
	pass  func() (string, error)
	close func()
	// traced builds the workload's side of the traced run; the timed run
	// never calls it.
	traced func() (*tracedWork, error)
}

func (s *session) stop() {
	if s.close != nil {
		s.close()
	}
}

// tracedWork is what the traced run needs from one workload.
type tracedWork struct {
	traces []*trace.Trace // the distinct traces a pass replays
	runs   []run          // every core.Run configuration of a pass, in order
	// sink names the tracer a pass attaches to every run: "", "figures"
	// (the fleet's per-run report builders) or "ndjson" (the events
	// pipeline's encoder).
	sink string
	// prepInside is set when a pass's core.Run prepares its trace itself.
	prepInside bool
	// gen generates the workload's traces again, as the set-up or (for the
	// fleet) every job does; genAt and prepAt say where a pass's trace
	// generation and preparation happen, for the ledger's text.
	gen           func() error
	genAt, prepAt string
	// outside, when set, measures the work a pass does outside core.Run,
	// sets its metrics and returns its time per pass in ns.
	outside func(o *outsideCtx) (float64, error)
	// parallel is set when a pass runs its configurations on the
	// experiments' worker pool, so experiments.parallel_speedup applies.
	parallel bool
}

// outsideCtx is what a workload's outside hook gets from the traced run.
type outsideCtx struct {
	sp       *spans
	ck       *checks
	l        *ledger
	passOut  string  // the rendered output of an untraced pass
	passWall float64 // median untraced pass wall, ns
	genNs    float64 // median generation of the workload's traces, ns
	prepNs   float64 // median preparation of the workload's traces, ns
	set      func(name string, v float64, unit string)
}

// run is one core.Run configuration of a pass.
type run struct {
	label string
	cfg   core.Config
}

var workloads = []workload{
	{"fig2-util-sweep", setupFig2},
	{"table4-devices", setupTable4},
	{"fleet-grid", setupFleet},
	{"events-pipeline", setupEvents},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// paperNames are the paper's three traces.
var paperNames = []string{"mac", "dos", "hp"}

// paperTraces gets the paper's traces for a seed from experiments.Workload,
// the memo the experiments read them from, and counts their records.
func paperTraces(seed int64) ([]*trace.Trace, int64, error) {
	var ts []*trace.Trace
	var n int64
	for _, name := range paperNames {
		t, err := experiments.Workload(name, seed)
		if err != nil {
			return nil, 0, err
		}
		ts = append(ts, t)
		n += int64(len(t.Records))
	}
	return ts, n, nil
}

// genPaper generates the paper's traces afresh, which is what
// experiments.Workload does on its first call for a seed.
func genPaper(seed int64) func() error {
	return func() error {
		for _, name := range paperNames {
			if _, err := wl.GenerateByName(name, seed); err != nil {
				return err
			}
		}
		return nil
	}
}

// paperDRAM is the experiments' DRAM default: hp was traced below the
// buffer cache and runs uncached.
func paperDRAM(t *trace.Trace) units.Bytes {
	if t.Name == "hp" {
		return 0
	}
	return 2 * units.MB
}

// setupFig2 generates mac, dos and hp into experiments.Workload's memo.
// The first Fig. 2 pass prepares them into the experiments' own memo, so
// the timed run counts that with the set-up.
func setupFig2(seed int64) (*session, error) {
	ts, n, err := paperTraces(seed)
	if err != nil {
		return nil, err
	}
	utils := experiments.Fig2Utilizations
	s := &session{records: n * int64(len(utils))}
	s.pass = func() (string, error) {
		pts, err := experiments.Fig2(seed)
		if err != nil {
			return "", err
		}
		if len(pts) != len(ts)*len(utils) {
			return "", fmt.Errorf("fig2: %d points, want %d", len(pts), len(ts)*len(utils))
		}
		return experiments.RenderFig2(pts), nil
	}
	s.traced = func() (*tracedWork, error) {
		// Fig. 2's sizing: the card holds the footprint at the lowest
		// utilization, and filler data sets each point.
		seg := device.IntelSeries2Datasheet().SegmentSize
		var runs []run
		for _, t := range ts {
			prep := core.PrepareTrace(t)
			if prep.Err() != nil {
				return nil, prep.Err()
			}
			capacity := units.CeilDiv(units.Bytes(float64(prep.Footprint())/utils[0]), seg) * seg
			for _, u := range utils {
				runs = append(runs, run{
					label: fmt.Sprintf("%s intel %.0f%%", t.Name, u*100),
					cfg: core.Config{
						Trace: t, Prep: prep, DRAMBytes: paperDRAM(t),
						Kind: core.FlashCard, FlashCardParams: device.IntelSeries2Datasheet(),
						FlashCapacity: capacity, StoredData: units.Bytes(float64(capacity) * u),
					},
				})
			}
		}
		pts, err := experiments.Fig2(seed)
		if err != nil {
			return nil, err
		}
		err = checkRuns(runs, func(i int, res *core.Result) bool {
			p := pts[i]
			return p.EnergyJ == res.EnergyJ && p.Erases == res.Erases && p.CopiedBlocks == res.CopiedBlocks &&
				p.WriteStalls == res.WriteStalls && p.MaxErase == res.MaxEraseCount && p.WriteMeanMs == res.Write.Mean()
		})
		return &tracedWork{traces: ts, runs: runs, gen: genPaper(seed), parallel: true,
			genAt: "set-up", prepAt: "first pass, memoized by experiments"}, err
	}
	return s, nil
}

// setupTable4 generates mac, dos and hp into experiments.Workload's memo,
// the only thing the experiments package memoizes for Table 4: its runs
// pass no Prep.
func setupTable4(seed int64) (*session, error) {
	ts, n, err := paperTraces(seed)
	if err != nil {
		return nil, err
	}
	specs := experiments.Table4Devices()
	s := &session{records: n * int64(len(specs))}
	s.pass = func() (string, error) {
		var b strings.Builder
		for _, t := range ts {
			rows, err := experiments.Table4(t.Name, seed)
			if err != nil {
				return "", err
			}
			b.WriteString(experiments.RenderTable4(t.Name, rows))
		}
		return b.String(), nil
	}
	s.traced = func() (*tracedWork, error) {
		var runs []run
		var want []*core.Result
		for _, t := range ts {
			rows, err := experiments.Table4(t.Name, seed)
			if err != nil {
				return nil, err
			}
			for _, spec := range specs {
				cfg := core.Config{Trace: t, DRAMBytes: paperDRAM(t)}
				if err := spec.Configure(&cfg); err != nil {
					return nil, err
				}
				runs = append(runs, run{label: t.Name + " " + spec.String(), cfg: cfg})
			}
			for _, r := range rows {
				want = append(want, r.Result)
			}
		}
		err := checkRuns(runs, func(i int, res *core.Result) bool { return diffResults(res, want[i]) == nil })
		return &tracedWork{traces: ts, runs: runs, prepInside: true, gen: genPaper(seed), parallel: true,
			genAt: "set-up", prepAt: "inside every core.Run"}, err
	}
	return s, nil
}

// checkRuns requires each configuration's core.Run result to match what the
// public experiment produced for it, proving the ledger times the same runs.
func checkRuns(runs []run, match func(i int, res *core.Result) bool) error {
	for i, r := range runs {
		res, err := core.Run(r.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.label, err)
		}
		if !match(i, res) {
			return fmt.Errorf("%s: result differs from the experiment's", r.label)
		}
	}
	return nil
}

// The fleet grid: synth traces on a card, a flash disk and a disk at three
// utilizations, four replicas.
var (
	fleetDevices = []string{"intel", "sdp5", "cu140"}
	fleetUtils   = []float64{0.6, 0.8, 0.95}
)

const fleetReplicas, fleetOps = 4, 20000

// fleetSpec is the grid job a fleet pass submits.
func fleetSpec(seed int64, replicas, ops int) fleet.Spec {
	return fleet.Spec{
		Name:         "benchmark",
		Devices:      fleetDevices,
		Traces:       []string{"synth"},
		SynthOps:     ops,
		Utilizations: fleetUtils,
		Replicas:     replicas,
		Seed:         seed,
		Workers:      nproc,
	}
}

// fleetSeed re-derives a replica's workload seed the way the fleet
// documents it: SplitMix64 over the base seed, the "trac" stream tag and
// the replica index. The reconstruction check fails if this drifts.
func fleetSeed(base int64, replica int) int64 {
	if base == 0 {
		base = 1
	}
	x := uint64(base) ^ 0x74726163 ^ uint64(replica)<<20
	x += 0x9e3779b97f4a7c15
	z := x
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		return 1
	}
	return int64(z)
}

// fleetTraces generates every replica's synth trace.
func fleetTraces(seed int64, replicas, ops int) ([]*trace.Trace, error) {
	ts := make([]*trace.Trace, replicas)
	for r := range ts {
		t, err := wl.Synth(wl.SynthConfig{Seed: fleetSeed(seed, r), Ops: ops})
		if err != nil {
			return nil, err
		}
		ts[r] = t
	}
	return ts, nil
}

// fleetConfig mirrors the fleet's per-run config: the device resolver plus
// the CLI defaults (2 MB DRAM, 32 KB SRAM in front of disks, 5 s spin-down).
func fleetConfig(t *trace.Trace, prep *core.TracePrep, dev string, util float64) (core.Config, error) {
	cfg := core.Config{Trace: t, Prep: prep, SpinDown: 5 * units.Second, CleaningPolicy: "greedy",
		FlashUtilization: util, DRAMBytes: 2 * units.MB}
	if err := fleet.SelectDevice(&cfg, dev, ""); err != nil {
		return cfg, err
	}
	if cfg.Kind == core.MagneticDisk {
		cfg.SRAMBytes = 32 * units.KB
	}
	return cfg, nil
}

// fleetService is the fleet job API served on loopback.
type fleetService struct {
	svc    *fleet.Service
	srv    *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func startFleet() (*fleetService, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleetService{svc: fleet.NewService(nil), served: make(chan struct{}),
		base: "http://" + ln.Addr().String(), client: &http.Client{}}
	mux := http.NewServeMux()
	f.svc.RegisterRoutes(mux)
	f.srv = &http.Server{Handler: mux}
	go func() {
		defer close(f.served)
		f.srv.Serve(ln)
	}()
	return f, nil
}

// stop shuts the server and the service down and waits for both.
func (f *fleetService) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	f.client.CloseIdleConnections()
	f.srv.Shutdown(ctx)
	<-f.served
	f.svc.Shutdown(ctx)
}

// job POSTs spec, follows the job's SSE stream to its "done" frame and
// returns that frame's status JSON.
func (f *fleetService) job(spec []byte) ([]byte, error) {
	resp, err := f.client.Post(f.base+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		return nil, fmt.Errorf("fleet: submit answered %s (%v)", resp.Status, err)
	}
	ev, err := f.client.Get(f.base + "/events/" + st.ID)
	if err != nil {
		return nil, err
	}
	defer ev.Body.Close()
	sc := bufio.NewScanner(ev.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "done":
			return []byte(strings.TrimPrefix(line, "data: ")), nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("fleet: event stream ended without a done frame")
}

// fleetOutput checks a finished job's status and returns the report the
// digest covers (the status without its wall-clock runtime and job ID) and
// the raw report JSON.
func fleetOutput(status []byte, runs int) (string, json.RawMessage, error) {
	var st map[string]json.RawMessage
	if err := json.Unmarshal(status, &st); err != nil {
		return "", nil, err
	}
	var state string
	var total, done, failed int
	json.Unmarshal(st["state"], &state)
	json.Unmarshal(st["total"], &total)
	json.Unmarshal(st["done"], &done)
	json.Unmarshal(st["failed"], &failed)
	if state != fleet.StateDone || total != runs || done != runs || failed != 0 {
		return "", nil, fmt.Errorf("fleet: job ended %s with %d/%d runs done, %d failed", state, done, total, failed)
	}
	report := st["report"]
	delete(st, "runtime_s")
	delete(st, "id")
	b, err := json.Marshal(st)
	return string(b), report, err
}

// setupFleet starts the job service. A fleet keeps nothing between jobs:
// every job generates its traces on the request path.
func setupFleet(seed int64) (*session, error) {
	runs := fleetReplicas * len(fleetDevices) * len(fleetUtils)
	spec, err := json.Marshal(fleetSpec(seed, fleetReplicas, fleetOps))
	if err != nil {
		return nil, err
	}
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	// A synth trace has one record per op; the traced run checks the count.
	s := &session{records: int64(runs * fleetOps), close: f.stop}
	s.pass = func() (string, error) {
		status, err := f.job(spec)
		if err != nil {
			return "", err
		}
		out, _, err := fleetOutput(status, runs)
		return out, err
	}
	s.traced = func() (*tracedWork, error) {
		ts, err := fleetTraces(seed, fleetReplicas, fleetOps)
		if err != nil {
			return nil, err
		}
		runs, err := fleetRuns(ts)
		gen := func() error {
			_, err := fleetTraces(seed, fleetReplicas, fleetOps)
			return err
		}
		return &tracedWork{traces: ts, runs: runs, sink: "figures", gen: gen,
			genAt: "every job", prepAt: "every job", outside: fleetOutside}, err
	}
	return s, nil
}

// fleetOutside times the job's aggregation of its runs, and checks that the
// runs the traced run rebuilt fold into a report byte-identical to the
// job's. A job also generates and prepares its traces outside core.Run.
func fleetOutside(o *outsideCtx) (float64, error) {
	var aggNs []float64
	var report []byte
	var err error
	for rep := 0; rep < ledgerRepeats; rep++ {
		aggNs = append(aggNs, o.sp.timed(0, "fleet.aggregate", func() {
			agg := fleet.NewAggregator()
			for i, res := range o.l.results {
				agg.Add(res, o.l.figures[i])
			}
			report, err = json.Marshal(agg.Report())
		}))
		if err != nil {
			return 0, err
		}
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal([]byte(o.passOut), &st); err != nil {
		return 0, err
	}
	o.ck.expect(bytes.Equal(report, st["report"]),
		"fleet: %d reconstructed runs do not fold into the job's report", len(o.l.results))
	agg := median(aggNs)
	outside := o.genNs + o.prepNs + agg
	o.set("fleet.aggregate_us_per_run", agg/1e3/float64(len(o.l.results)), "us/run")
	o.set("fleet.worker_busy_ratio", (outside+o.l.runNs)/(o.passWall*float64(nproc)), "ratio")
	return outside, nil
}

// fleetRuns lists a grid job's runs in run-index order: replicas outermost,
// then devices, then utilizations.
func fleetRuns(ts []*trace.Trace) ([]run, error) {
	var out []run
	for r, t := range ts {
		prep := core.PrepareTrace(t)
		for _, dev := range fleetDevices {
			for _, u := range fleetUtils {
				cfg, err := fleetConfig(t, prep, dev, u)
				if err != nil {
					return nil, err
				}
				out = append(out, run{label: fmt.Sprintf("replica %d %s %.0f%%", r, dev, u*100), cfg: cfg})
			}
		}
	}
	return out, nil
}

// eventsConfigs are the events pipeline's two replays of mac: the disk
// behind a 32 KB SRAM buffer (spin-up and flush events) and the card at 95%
// utilization (cleaning and wear events).
func eventsConfigs(t *trace.Trace, prep *core.TracePrep) ([]run, error) {
	disk := core.Config{Trace: t, Prep: prep, DRAMBytes: 2 * units.MB, SRAMBytes: 32 * units.KB, SpinDown: 5 * units.Second}
	card := core.Config{Trace: t, Prep: prep, DRAMBytes: 2 * units.MB, FlashUtilization: 0.95}
	if err := fleet.SelectDevice(&disk, "cu140", ""); err != nil {
		return nil, err
	}
	if err := fleet.SelectDevice(&card, "intel", ""); err != nil {
		return nil, err
	}
	return []run{{"mac cu140+sram32KB", disk}, {"mac intel 95%", card}}, nil
}

// eventReports are the obsreport builders the events pipeline feeds.
type eventReports struct {
	timeline *obsreport.TimelineBuilder
	latency  *obsreport.LatencyBuilder
	wear     *obsreport.WearBuilder
	cleaning *obsreport.CleaningBuilder
}

func newEventReports() *eventReports {
	return &eventReports{obsreport.NewTimelineBuilder(), obsreport.NewLatencyBuilder(),
		obsreport.NewWearBuilder(), obsreport.NewCleaningBuilder()}
}

func (r *eventReports) Observe(e obs.Event) {
	r.timeline.Observe(e)
	r.latency.Observe(e)
	r.wear.Observe(e)
	r.cleaning.Observe(e)
}

// render writes the four reports as text.
func (r *eventReports) render(w io.Writer) error {
	return writeReports(w, r.timeline, r.latency, r.wear, r.cleaning)
}

// writeReports renders the timeline, latency, wear and cleaning reports as
// text, the reports both the events pipeline and a fleet run build.
func writeReports(w io.Writer, tl *obsreport.TimelineBuilder, lat *obsreport.LatencyBuilder,
	wear *obsreport.WearBuilder, clean *obsreport.CleaningBuilder) error {
	if err := obsreport.WriteTimelines(w, tl.Finish(), obsreport.Text); err != nil {
		return err
	}
	if err := obsreport.WriteLatency(w, lat.Finish(), obsreport.Text); err != nil {
		return err
	}
	if err := obsreport.WriteWear(w, wear.Finish(), obsreport.Text); err != nil {
		return err
	}
	return obsreport.WriteCleaning(w, clean.Finish(), obsreport.Text)
}

// decodeInto feeds an NDJSON stream to r and returns the event count.
func decodeInto(r obsreport.Reporter, stream []byte) (int, error) {
	dec := obsreport.NewDecoder(bytes.NewReader(stream))
	n := 0
	for {
		e, err := dec.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		r.Observe(e)
		n++
	}
}

// eventsRun replays one config with an NDJSON sink writing into buf.
func eventsRun(cfg core.Config, buf *bytes.Buffer) error {
	buf.Reset()
	sink := obs.NewNDJSONSink(buf)
	cfg.Scope = obs.NewScope(nil, sink)
	if _, err := core.Run(cfg); err != nil {
		return err
	}
	return sink.Flush()
}

// setupEvents generates and prepares mac, as storagesim does before it
// replays; both replays of every pass reuse them.
func setupEvents(seed int64) (*session, error) {
	t, err := wl.GenerateByName("mac", seed)
	if err != nil {
		return nil, err
	}
	prep := core.PrepareTrace(t)
	if prep.Err() != nil {
		return nil, prep.Err()
	}
	runs, err := eventsConfigs(t, prep)
	if err != nil {
		return nil, err
	}
	s := &session{records: int64(len(t.Records)) * int64(len(runs))}
	var buf bytes.Buffer
	s.pass = func() (string, error) {
		var out strings.Builder
		for _, r := range runs {
			if err := eventsRun(r.cfg, &buf); err != nil {
				return "", err
			}
			reps := newEventReports()
			if _, err := decodeInto(reps, buf.Bytes()); err != nil {
				return "", err
			}
			fmt.Fprintf(&out, "== %s\n", r.label)
			if err := reps.render(&out); err != nil {
				return "", err
			}
		}
		return out.String(), nil
	}
	s.traced = func() (*tracedWork, error) {
		gen := func() error {
			_, err := wl.GenerateByName("mac", seed)
			return err
		}
		return &tracedWork{traces: []*trace.Trace{t}, runs: runs, sink: "ndjson", gen: gen,
			genAt: "set-up", prepAt: "set-up", outside: eventsOutside}, nil
	}
	return s, nil
}

// eventsOutside times what a pass does with its streams after the runs:
// decoding them and building the four reports from the decoded events.
func eventsOutside(o *outsideCtx) (float64, error) {
	var streamBytes int
	for _, b := range o.l.ndjson {
		streamBytes += len(b)
	}
	var decodeNs, observeNs []float64
	var observed int64
	for rep := 0; rep < ledgerRepeats; rep++ {
		var evs [][]obs.Event
		var err error
		decodeNs = append(decodeNs, o.sp.timed(0, "obsreport.decode", func() {
			for _, b := range o.l.ndjson {
				col := &eventLog{}
				if _, derr := decodeInto(reporterFunc(col.Emit), b); derr != nil {
					err = derr
				}
				evs = append(evs, col.events)
			}
		}))
		if err != nil {
			return 0, err
		}
		if rep == 0 {
			for _, es := range evs {
				observed += int64(len(es))
			}
		}
		observeNs = append(observeNs, o.sp.timed(0, "obsreport.observe", func() {
			for _, es := range evs {
				reps := newEventReports()
				for _, e := range es {
					reps.Observe(e)
				}
			}
		}))
	}
	o.ck.expect(observed == o.l.events, "events: decoded %d events, runs emitted %d", observed, o.l.events)
	decode, observe := median(decodeNs), median(observeNs)
	o.set("obsreport.decode_mb_per_s", float64(streamBytes)/1e6/(decode/1e9), "MB/s")
	if observed > 0 {
		o.set("obsreport.observe_ns_per_event", observe/float64(observed), "ns/event")
	}
	return decode + observe, nil
}
