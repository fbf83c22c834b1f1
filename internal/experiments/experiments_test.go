package experiments

import (
	"reflect"
	"strings"
	"testing"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/units"
)

// The experiment tests assert the paper's load-bearing orderings and
// ratios — the "shape" of every table and figure — not absolute values.
// They run full traces, so the heavyweight ones are skipped under -short.

func find4(rows []Table4Row, name, source string) Table4Row {
	for _, r := range rows {
		if r.Device.Name == name && string(r.Device.Source) == source {
			return r
		}
	}
	return Table4Row{}
}

func TestTable4MacShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	rows, err := Table4("mac", DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows, want 7", len(rows))
	}
	cu := find4(rows, "cu140", "datasheet")
	kh := find4(rows, "kh", "datasheet")
	sdp10 := find4(rows, "sdp10", "measured")
	sdp5 := find4(rows, "sdp5", "datasheet")
	intelM := find4(rows, "intel", "measured")
	intelD := find4(rows, "intel", "datasheet")

	// Headline: flash reduces energy by roughly an order of magnitude.
	for _, flash := range []Table4Row{sdp10, sdp5, intelD} {
		ratio := cu.EnergyJ / flash.EnergyJ
		if ratio < 4 {
			t.Errorf("disk/flash energy ratio %.1f for %s, want ≥4 (paper ≈6-10×)", ratio, flash.Device)
		}
	}
	// §7: "the flash disk file system can save 59–86% of the energy of the
	// disk file system" and the flash card saves ≈90%.
	if s := 1 - sdp5.EnergyJ/cu.EnergyJ; s < 0.55 {
		t.Errorf("sdp5 energy savings %.2f, want ≥0.55", s)
	}
	if s := 1 - intelD.EnergyJ/cu.EnergyJ; s < 0.80 {
		t.Errorf("intel energy savings %.2f, want ≥0.80", s)
	}

	// The Kittyhawk fares worse than the CU140 (Table 4a ordering).
	if kh.EnergyJ <= cu.EnergyJ {
		t.Errorf("kh energy %.0f not above cu140 %.0f", kh.EnergyJ, cu.EnergyJ)
	}
	if kh.ReadMean <= cu.ReadMean {
		t.Errorf("kh read mean %.2f not above cu140 %.2f", kh.ReadMean, cu.ReadMean)
	}

	// Flash reads beat disk reads (§7: "3–6 times faster"); flash writes
	// are several times worse than a disk with an SRAM buffer.
	if sdp5.ReadMean >= cu.ReadMean {
		t.Errorf("sdp5 read %.2f not below disk %.2f", sdp5.ReadMean, cu.ReadMean)
	}
	if sdp5.WriteMean < 4*cu.WriteMean {
		t.Errorf("sdp5 write %.2f not ≥4× disk %.2f", sdp5.WriteMean, cu.WriteMean)
	}
	// Disk maxima dwarf flash maxima (spin-ups).
	if cu.ReadMax <= sdp5.ReadMax {
		t.Errorf("disk read max %.0f not above flash %.0f", cu.ReadMax, sdp5.ReadMax)
	}

	// Measured (MFFS) flash card is slower than the flash disk; datasheet
	// flash card is the fastest of all (§5.1's discrepancy discussion).
	if intelM.WriteMean <= sdp10.WriteMean {
		t.Errorf("intel-measured write %.2f not above sdp10-measured %.2f", intelM.WriteMean, sdp10.WriteMean)
	}
	if intelD.ReadMean >= sdp5.ReadMean {
		t.Errorf("intel-datasheet read %.2f not below sdp5 %.2f", intelD.ReadMean, sdp5.ReadMean)
	}

	// Energy ordering within flash: intel-datasheet < sdp5 < sdp10-measured.
	if !(intelD.EnergyJ < sdp5.EnergyJ && sdp5.EnergyJ < sdp10.EnergyJ) {
		t.Errorf("flash energy ordering broken: intel %.0f, sdp5 %.0f, sdp10 %.0f",
			intelD.EnergyJ, sdp5.EnergyJ, sdp10.EnergyJ)
	}
}

func TestFig2UtilizationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	points, err := Fig2(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[string][]Fig2Point{}
	for _, p := range points {
		byTrace[p.Trace] = append(byTrace[p.Trace], p)
	}
	for name, pts := range byTrace {
		lo, hi := pts[0], pts[len(pts)-1]
		if lo.Utilization != 0.40 || hi.Utilization != 0.95 {
			t.Fatalf("%s: unexpected sweep endpoints", name)
		}
		// §5.2: 40% → 95% increases energy by 70–190%.
		growth := hi.EnergyJ/lo.EnergyJ - 1
		if growth < 0.4 {
			t.Errorf("%s: energy growth %.0f%% at 95%%, want ≥40%% (paper 70–190%%)", name, growth*100)
		}
		// Erasures grow 2–3× ("burning out the flash two to three times
		// faster").
		if hi.MeanErase < 2*lo.MeanErase {
			t.Errorf("%s: mean erases %.2f → %.2f did not double", name, lo.MeanErase, hi.MeanErase)
		}
		// Energy is monotone in utilization.
		for i := 1; i < len(pts); i++ {
			if pts[i].EnergyJ < pts[i-1].EnergyJ {
				t.Errorf("%s: energy not monotone at %.0f%%", name, pts[i].Utilization*100)
			}
		}
		// Write response holds steady until very high utilization
		// (the Figure 2(e) knee): the 80% point is within 30% of the 40%
		// point for every trace.
		var p80 Fig2Point
		for _, p := range pts {
			if p.Utilization == 0.80 {
				p80 = p
			}
		}
		if p80.WriteMeanMs > lo.WriteMeanMs*1.3 {
			t.Errorf("%s: write response rose early: %.2f at 40%% vs %.2f at 80%%",
				name, lo.WriteMeanMs, p80.WriteMeanMs)
		}
	}
}

func TestFig4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	points, err := Fig4(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	get := func(dev string, flashMB int, dramKB int64) Fig4Point {
		for _, p := range points {
			if p.Device == dev && p.FlashMB == flashMB && p.DRAMKB == dramKB {
				return p
			}
		}
		t.Fatalf("missing point %s/%d/%d", dev, flashMB, dramKB)
		return Fig4Point{}
	}
	// §5.4: +1 MB of flash (34→35) cuts energy substantially (paper 25%).
	i34, i35 := get("intel", 34, 0), get("intel", 35, 0)
	if drop := 1 - i35.EnergyJ/i34.EnergyJ; drop < 0.10 {
		t.Errorf("energy drop 34→35MB = %.0f%%, want ≥10%% (paper 25%%)", drop*100)
	}
	// Adding DRAM to the flash card burns energy with no appreciable
	// response benefit.
	i34d := get("intel", 34, 4096)
	if i34d.EnergyJ <= i34.EnergyJ {
		t.Error("4MB of DRAM did not increase flash-card energy")
	}
	if i34.OverallMeanMs-i34d.OverallMeanMs > 0.2*i34.OverallMeanMs {
		t.Errorf("DRAM 'benefit' too large: %.2f → %.2f ms", i34.OverallMeanMs, i34d.OverallMeanMs)
	}
	// The SDP5 gains nothing from DRAM either, and pays for it.
	s0, s4 := get("sdp5", 34, 0), get("sdp5", 34, 4096)
	if s4.EnergyJ <= s0.EnergyJ {
		t.Error("DRAM did not increase sdp5 energy")
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	points, err := Fig5(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[string][]Fig5Point{}
	for _, p := range points {
		byTrace[p.Trace] = append(byTrace[p.Trace], p)
	}
	for name, pts := range byTrace {
		if pts[0].SRAMKB != 0 {
			t.Fatalf("%s: first point not the baseline", name)
		}
		p32 := pts[1]
		// §5.5: a 32 KB buffer improves mean write response by a factor of
		// 20 or more for mac and dos, at least 2× for hp.
		want := 20.0
		if name == "hp" {
			want = 2.0
		}
		if ratio := 1 / p32.NormalizedWrite; ratio < want {
			t.Errorf("%s: 32KB write improvement %.1f×, want ≥%.0f×", name, ratio, want)
		}
		// Energy never increases with the buffer.
		for _, p := range pts[1:] {
			if p.NormalizedEnergy > 1.02 {
				t.Errorf("%s: SRAM %dKB increased energy ×%.2f", name, p.SRAMKB, p.NormalizedEnergy)
			}
		}
	}
}

func TestAsyncCleaningShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	rows, err := AsyncCleaning(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// §5.3: asynchronous erasure improves write response by ≥ factor
		// 2.5 with small energy impact.
		if r.Improvement < 0.5 {
			t.Errorf("%s: async improvement %.0f%%, want ≥50%%", r.Trace, r.Improvement*100)
		}
		if r.EnergyChange > 0.05 || r.EnergyChange < -0.5 {
			t.Errorf("%s: async energy change %.0f%% out of range", r.Trace, r.EnergyChange*100)
		}
	}
}

func TestBatteryHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	rows, err := BatteryLife(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rows {
		if r.Trace == "mac" && r.Alternative == "intel/datasheet" && r.StorageFraction == 0.20 {
			found = true
			// The paper's "22% extension of battery life" headline.
			if r.LifeExtension < 0.15 || r.LifeExtension > 0.30 {
				t.Errorf("headline extension %.0f%%, want ≈22%%", r.LifeExtension*100)
			}
		}
		if r.LifeExtension < 0 || r.LifeExtension > 1.5 {
			t.Errorf("%s/%s extension %.2f out of the paper's 20–100%% band",
				r.Trace, r.Alternative, r.LifeExtension)
		}
	}
	if !found {
		t.Error("headline row missing")
	}
}

func TestWearShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full trace simulation")
	}
	rows, err := Wear(DefaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	byTrace := map[string][]WearRow{}
	for _, r := range rows {
		byTrace[r.Trace] = append(byTrace[r.Trace], r)
	}
	for name, rs := range byTrace {
		lo, hi := rs[0], rs[len(rs)-1]
		if hi.MaxErase < 2*lo.MaxErase {
			t.Errorf("%s: max erases %d → %d did not double (paper: 7 → 34)", name, lo.MaxErase, hi.MaxErase)
		}
		if hi.LifetimeFraction <= lo.LifetimeFraction {
			t.Errorf("%s: lifetime consumption not increasing", name)
		}
	}
}

func TestTable1Render(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTable1(rows)
	for _, dev := range []string{"cu140", "sdp10", "intel"} {
		if !strings.Contains(out, dev) {
			t.Errorf("render missing %s:\n%s", dev, out)
		}
	}
}

func TestTable2(t *testing.T) {
	out := RenderTable2(Table2())
	for _, want := range []string{"cu140", "spin up", "erase", "2125"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	wanted := []string{
		"table1", "table2", "table3", "table4a", "table4b", "table4c",
		"fig1", "fig2", "fig3", "fig4", "fig5",
		"async", "validate", "wear", "battery",
		"ablate-cleaner", "ablate-flash-sram", "ablate-series2plus", "ablate-writeback",
	}
	for _, id := range wanted {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Errorf("IDs() returned %d of %d", len(ids), len(reg))
	}
	if ids[0] != "table1" {
		t.Errorf("IDs not in paper order: %v", ids)
	}
}

func TestDeviceSpecConfigureErrors(t *testing.T) {
	bad := DeviceSpec{Name: "nope"}
	var c core.Config
	if err := bad.Configure(&c); err == nil {
		t.Error("unknown device accepted")
	}
}

// table4Reference is Configure's own device switch as it stood before the
// device names moved to fleet.SelectDevice, kept as the oracle for
// TestConfigureMatchesTable4Reference.
func table4Reference(d DeviceSpec) core.Config {
	var cfg core.Config
	switch d.Name {
	case "cu140":
		cfg.Kind = core.MagneticDisk
		if d.Source == device.Measured {
			cfg.Disk = device.CU140Measured()
		} else {
			cfg.Disk = device.CU140Datasheet()
		}
	case "kh":
		cfg.Kind = core.MagneticDisk
		cfg.Disk = device.KittyhawkDatasheet()
	case "sdp10":
		cfg.Kind = core.FlashDisk
		if d.Source == device.Measured {
			cfg.FlashDiskParams = device.SDP10Measured()
		} else {
			cfg.FlashDiskParams = device.SDP10Datasheet()
		}
	case "sdp5":
		cfg.Kind = core.FlashDisk
		cfg.FlashDiskParams = device.SDP5Datasheet()
	case "sdp5a":
		cfg.Kind = core.FlashDisk
		cfg.FlashDiskParams = device.SDP5Datasheet()
		cfg.AsyncErase = true
	case "intel":
		cfg.Kind = core.FlashCard
		if d.Source == device.Measured {
			cfg.FlashCardParams = device.IntelSeries2Measured()
		} else {
			cfg.FlashCardParams = device.IntelSeries2Datasheet()
		}
	case "intel2+":
		cfg.Kind = core.FlashCard
		cfg.FlashCardParams = device.IntelSeries2PlusDatasheet()
	}
	switch cfg.Kind {
	case core.MagneticDisk:
		cfg.SpinDown = 5 * units.Second
		cfg.SRAMBytes = 32 * units.KB
	case core.FlashDisk, core.FlashCard:
		cfg.FlashCapacity = 40 * units.MB
		cfg.StoredData = 32 * units.MB
	}
	return cfg
}

// TestConfigureMatchesTable4Reference: every Table 4 row, plus the SDP5A
// and the Series 2+ that other experiments configure, gets the same kind,
// parameters, spin-down, SRAM and flash sizing through fleet.SelectDevice
// as through the old switch.
func TestConfigureMatchesTable4Reference(t *testing.T) {
	specs := append(Table4Devices(), DeviceSpec{"sdp5a", device.Datasheet}, DeviceSpec{"intel2+", device.Datasheet})
	for _, d := range specs {
		var got core.Config
		if err := d.Configure(&got); err != nil {
			t.Errorf("%v: %v", d, err)
			continue
		}
		if want := table4Reference(d); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Configure gives %+v, want %+v", d, got, want)
		}
	}
}
