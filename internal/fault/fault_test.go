package fault

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mobilestorage/internal/obs"
	"mobilestorage/internal/units"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan([]byte(`{
		"read_error_rate": 0.01,
		"write_error_rate": 0.05,
		"erase_error_rate": 0.1,
		"max_retries": 5,
		"backoff_us": 100,
		"max_backoff_us": 10000,
		"wear_out_after": 50,
		"spare_segments": 4,
		"power_fail_at_us": [1000000, 2000000]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.ReadErrorRate != 0.01 || p.WriteErrorRate != 0.05 || p.EraseErrorRate != 0.1 {
		t.Errorf("rates not decoded: %+v", p)
	}
	if p.MaxRetries != 5 || p.BackoffUs != 100 || p.MaxBackoffUs != 10000 {
		t.Errorf("retry knobs not decoded: %+v", p)
	}
	if p.WearOutAfter != 50 || p.SpareSegments != 4 || len(p.PowerFailAtUs) != 2 {
		t.Errorf("wear-out/power-fail not decoded: %+v", p)
	}
	if !p.Enabled() {
		t.Error("populated plan reports disabled")
	}
}

func TestParsePlanRejects(t *testing.T) {
	cases := []struct {
		name string
		json string
	}{
		{"unknown field", `{"raed_error_rate": 0.5}`},
		{"wrong unit suffix", `{"power_fail_at_ms": [1000]}`},
		{"unknown die field", `{"die_at_ms": 5}`},
		{"negative die at", `{"die_at_us": -1}`},
		{"negative die erases", `{"die_after_erases": -1}`},
		{"latent rate above 1", `{"latent_error_rate": 1.5}`},
		{"negative latent rate", `{"latent_error_rate": -0.5}`},
		{"rate above 1", `{"read_error_rate": 1.5}`},
		{"negative rate", `{"write_error_rate": -0.1}`},
		{"nan rate", `{"erase_error_rate": "x"}`},
		{"negative retries", `{"max_retries": -1}`},
		{"huge retries", `{"max_retries": 1000}`},
		{"negative backoff", `{"backoff_us": -5}`},
		{"negative max backoff", `{"max_backoff_us": -5}`},
		{"negative wearout", `{"wear_out_after": -1}`},
		{"negative spares", `{"spare_segments": -1}`},
		{"huge spares", `{"spare_segments": 1000}`},
		{"negative power fail", `{"power_fail_at_us": [-1]}`},
		{"not json", `{`},
	}
	for _, c := range cases {
		if _, err := ParsePlan([]byte(c.json)); err == nil {
			t.Errorf("%s: ParsePlan accepted %s", c.name, c.json)
		}
	}
}

func TestValidateRejectsNaN(t *testing.T) {
	p := &Plan{ReadErrorRate: math.NaN()}
	if err := p.Validate(); err == nil {
		t.Error("NaN rate validated")
	}
}

func TestEnabled(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Enabled() {
		t.Error("nil plan enabled")
	}
	if (&Plan{}).Enabled() {
		t.Error("zero plan enabled")
	}
	if (&Plan{MaxRetries: 5, BackoffUs: 7}).Enabled() {
		t.Error("knobs-only plan enabled (injects nothing)")
	}
	for _, p := range []Plan{
		{ReadErrorRate: 0.1},
		{WriteErrorRate: 0.1},
		{EraseErrorRate: 0.1},
		{WearOutAfter: 10},
		{PowerFailAtUs: []int64{5}},
	} {
		if !p.Enabled() {
			t.Errorf("plan %+v reports disabled", p)
		}
	}
}

func TestNewInjectorNilForDisabledPlans(t *testing.T) {
	if in := NewInjector(nil, 1, nil); in != nil {
		t.Error("nil plan produced an injector")
	}
	if in := NewInjector(&Plan{}, 1, nil); in != nil {
		t.Error("zero plan produced an injector")
	}
	if in := NewInjector(&Plan{ReadErrorRate: 0.5}, 1, nil); in == nil {
		t.Error("enabled plan produced no injector")
	}
}

func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if att, backoff := in.Attempts(OpWrite, "dev", 0); att != 1 || backoff != 0 {
		t.Errorf("nil Attempts = (%d, %v), want (1, 0)", att, backoff)
	}
	if in.WornOut(1 << 40) {
		t.Error("nil injector wears out")
	}
	if in.WearOutEvery() != 0 || in.SpareUnits() != 0 {
		t.Error("nil injector has wear-out config")
	}
	if in.PowerFailSchedule() != nil {
		t.Error("nil injector has a power-fail schedule")
	}
	// None of these may panic.
	in.RecordRemap("dev", 0, 0, 0)
	in.RecordSpareExhausted("dev", 0, 0)
	in.RecordPowerFail(0)
	in.RecordReplay("dev", 3, 0, 0)
	in.RecordLostWrites(2, 0)
	in.Violatef("nope %d", 1)
	if in.Report() != nil {
		t.Error("nil injector has a report")
	}
}

func TestAttemptsNoDrawsAtZeroRate(t *testing.T) {
	// With only the erase rate set, read/write attempts must not consume
	// random draws: enabling erase faults must leave the read/write draw
	// sequence (and thus all other injection decisions) unchanged.
	p := &Plan{EraseErrorRate: 0.5}
	a := NewInjector(p, 42, nil)
	b := NewInjector(p, 42, nil)
	for i := 0; i < 100; i++ {
		a.Attempts(OpRead, "dev", 0)
		a.Attempts(OpWrite, "dev", 0)
	}
	// a drew nothing extra, so the next erase draws must match b's exactly.
	for i := 0; i < 50; i++ {
		ea, ba := a.Attempts(OpErase, "dev", 0)
		eb, bb := b.Attempts(OpErase, "dev", 0)
		if ea != eb || ba != bb {
			t.Fatalf("draw %d diverged: (%d,%v) vs (%d,%v)", i, ea, ba, eb, bb)
		}
	}
}

func TestAttemptsDeterministicPerSeed(t *testing.T) {
	p := &Plan{ReadErrorRate: 0.3, WriteErrorRate: 0.2, EraseErrorRate: 0.4}
	a := NewInjector(p, 7, nil)
	b := NewInjector(p, 7, nil)
	c := NewInjector(p, 8, nil)
	ops := []Op{OpRead, OpWrite, OpErase}
	diverged := false
	for i := 0; i < 3000; i++ {
		op := ops[i%3]
		aa, ab := a.Attempts(op, "dev", units.Time(i))
		ba, bb := b.Attempts(op, "dev", units.Time(i))
		ca, _ := c.Attempts(op, "dev", units.Time(i))
		if aa != ba || ab != bb {
			t.Fatalf("same seed diverged at op %d", i)
		}
		if aa != ca {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical attempt sequences")
	}
	ra, rb := a.Report(), b.Report()
	if ra.ReadFaults != rb.ReadFaults || ra.Retries != rb.Retries ||
		ra.Exhausted != rb.Exhausted || ra.BackoffTime != rb.BackoffTime {
		t.Error("same-seed reports differ")
	}
	if ra.Retries == 0 || ra.Exhausted == 0 {
		t.Errorf("30%% rates over 3000 ops produced no retries/exhaustions: %+v", ra)
	}
}

func TestAttemptsBounded(t *testing.T) {
	// Rate 1 forces every attempt to fail: the attempt count must equal
	// MaxRetries+1 exactly and the op must be counted exhausted.
	p := &Plan{WriteErrorRate: 1, MaxRetries: 2, BackoffUs: 10, MaxBackoffUs: 1000}
	in := NewInjector(p, 1, nil)
	att, backoff := in.Attempts(OpWrite, "dev", 0)
	if att != 3 {
		t.Errorf("attempts = %d, want 3 (MaxRetries+1)", att)
	}
	// Backoff: 10 before attempt 2, 20 before attempt 3.
	if backoff != 30 {
		t.Errorf("backoff = %v, want 30µs", backoff)
	}
	rep := in.Report()
	if rep.WriteFaults != 3 || rep.Retries != 2 || rep.Exhausted != 1 {
		t.Errorf("report = %+v, want 3 faults / 2 retries / 1 exhausted", rep)
	}
}

func TestBackoffExponentialAndCapped(t *testing.T) {
	p := &Plan{BackoffUs: 100, MaxBackoffUs: 350}
	want := []units.Time{100, 200, 350, 350, 350}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Defaults kick in for zero fields.
	zero := &Plan{}
	if got := zero.backoff(1); got != DefaultBackoffUs {
		t.Errorf("default backoff = %v, want %v", got, units.Time(DefaultBackoffUs))
	}
	if got := zero.backoff(30); got != DefaultMaxBackoffUs {
		t.Errorf("deep backoff = %v, want cap %v", got, units.Time(DefaultMaxBackoffUs))
	}
}

func TestScheduleSortedDeduped(t *testing.T) {
	p := &Plan{PowerFailAtUs: []int64{500, 100, 500, 300, 100}}
	in := NewInjector(p, 0, nil)
	got := in.PowerFailSchedule()
	want := []units.Time{100, 300, 500}
	if len(got) != len(want) {
		t.Fatalf("schedule %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule %v, want %v", got, want)
		}
	}
}

func TestWornOut(t *testing.T) {
	in := NewInjector(&Plan{WearOutAfter: 100}, 0, nil)
	if in.WornOut(99) {
		t.Error("worn at 99 < 100")
	}
	if !in.WornOut(100) {
		t.Error("not worn at threshold")
	}
	noWear := NewInjector(&Plan{ReadErrorRate: 0.5}, 0, nil)
	if noWear.WornOut(1 << 40) {
		t.Error("wear-out fires with WearOutAfter=0")
	}
}

func TestReportIsACopy(t *testing.T) {
	in := NewInjector(&Plan{ReadErrorRate: 1, MaxRetries: 1}, 0, nil)
	in.Violatef("first")
	rep := in.Report()
	in.Violatef("second")
	if len(rep.Violations) != 1 || rep.Violations[0] != "first" {
		t.Errorf("report aliases the live ledger: %v", rep.Violations)
	}
	if got := in.Report(); len(got.Violations) != 2 {
		t.Errorf("ledger lost a violation: %v", got.Violations)
	}
}

func TestInjectorEmitsEventsAndCounters(t *testing.T) {
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	sink := obs.NewNDJSONSink(&buf)
	sc := obs.NewScope(reg, sink)
	in := NewInjector(&Plan{WriteErrorRate: 1, MaxRetries: 1, PowerFailAtUs: []int64{10}}, 3, sc)

	in.Attempts(OpWrite, "dev", 5)
	in.RecordPowerFail(10)
	in.RecordRemap("dev", 7, 2, 11)
	in.RecordSpareExhausted("dev", 8, 12)
	in.RecordReclaim("dev", 8, 13)
	in.RecordReplay("dev", 4, 13, 100)
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	m := reg.Counters()
	for name, want := range map[string]int64{
		"fault.injected":        2, // both attempts fail at rate 1
		"fault.retries":         1,
		"fault.exhausted":       1,
		"fault.remaps":          1,
		"fault.reclaims":        1,
		"fault.power_failures":  1,
		"fault.replayed_blocks": 4,
	} {
		if m[name] != want {
			t.Errorf("counter %s = %d, want %d", name, m[name], want)
		}
	}
	out := buf.String()
	for _, kind := range []obs.Kind{
		obs.EvFaultInjected, obs.EvRetryAttempt, obs.EvPowerFail,
		obs.EvRemap, obs.EvReclaim, obs.EvRecoveryReplayed,
	} {
		if !strings.Contains(out, `"kind":"`+kind.String()+`"`) {
			t.Errorf("event stream missing %s:\n%s", kind, out)
		}
	}
}
