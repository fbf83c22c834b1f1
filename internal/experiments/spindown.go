package experiments

import (
	"fmt"

	"mobilestorage/internal/core"
	"mobilestorage/internal/device"
	"mobilestorage/internal/fleet"
	"mobilestorage/internal/units"
)

// SpinDownRow compares one spin-down policy on one trace.
type SpinDownRow struct {
	Trace      string
	Policy     string
	EnergyJ    float64
	SpinUps    int64
	ReadMeanMs float64
	ReadMaxMs  float64
}

// SpinDownPolicies runs the spin-down policy ablation on the CU140: the
// policy space the paper's §2/§5.1 discussion rests on (citing Douglis,
// Krishnan & Marsh and Li et al.): keeping the disk spinning burns idle
// watts; spinning down immediately pays a spin-up (energy and ~1 s of
// latency) on every burst; the paper's fixed 5 s threshold and an adaptive
// threshold sit between.
func SpinDownPolicies(seed int64) ([]SpinDownRow, error) {
	type pol struct {
		label    string
		policy   string
		spinDown units.Time
	}
	policies := []pol{
		{"always-on", "always-on", 0},
		{"immediate", "immediate", 0},
		{"fixed-1s", "", 1 * units.Second},
		{"fixed-5s (paper)", "", 5 * units.Second},
		{"fixed-30s", "", 30 * units.Second},
		{"adaptive", "adaptive", 0},
	}
	var rows []SpinDownRow
	for _, name := range []string{"mac", "hp"} {
		t, err := Workload(name, seed)
		if err != nil {
			return nil, err
		}
		for _, p := range policies {
			cfg := core.Config{
				Trace:      t,
				DRAMBytes:  fleet.DefaultDRAM(name),
				Kind:       core.MagneticDisk,
				Disk:       device.CU140Datasheet(),
				SpinDown:   p.spinDown,
				SpinPolicy: p.policy,
				SRAMBytes:  fleet.DefaultSRAM,
			}
			res, err := core.Run(cfg)
			if err != nil {
				return nil, fmt.Errorf("spindown %s/%s: %w", name, p.label, err)
			}
			rows = append(rows, SpinDownRow{
				Trace:      name,
				Policy:     p.label,
				EnergyJ:    res.EnergyJ,
				SpinUps:    res.SpinUps,
				ReadMeanMs: res.Read.Mean(),
				ReadMaxMs:  res.Read.Max(),
			})
		}
	}
	return rows, nil
}

// RenderSpinDown formats the spin-down ablation.
func RenderSpinDown(rows []SpinDownRow) string {
	t := &table{header: []string{"Trace", "Policy", "Energy (J)", "Spin-ups", "Rd mean (ms)", "Rd max (ms)"}}
	for _, r := range rows {
		t.addRow(r.Trace, r.Policy, f0(r.EnergyJ), fmt.Sprintf("%d", r.SpinUps), f2(r.ReadMeanMs), f1(r.ReadMaxMs))
	}
	return "Ablation: disk spin-down policies on the CU140 (§2, §5.1)\n" + t.String()
}
