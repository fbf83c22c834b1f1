package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes the whole registry end to end: every
// table, figure, analysis, ablation, and extension must produce a
// non-empty rendered report without error. This is the top-level
// integration test of the reproduction.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full evaluation suite")
	}
	reg := Registry()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			out, err := reg[id].Run(DefaultSeed)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(out) == 0 {
				t.Fatalf("%s: empty report", id)
			}
			// Every report is a titled table: header line + separator.
			if !strings.Contains(out, "\n") || !strings.Contains(out, "-") {
				t.Errorf("%s: does not look like a rendered table:\n%s", id, out)
			}
		})
	}
}

func TestDescriptionsPresent(t *testing.T) {
	for id, e := range Registry() {
		if e.Description == "" {
			t.Errorf("%s: empty description", id)
		}
		if e.ID != id {
			t.Errorf("registry key %q holds experiment %q", id, e.ID)
		}
	}
}

// TestIDsUnique: a duplicate ID in the experiment list would silently
// shadow an experiment in Registry's map.
func TestIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("experiment %q listed twice", id)
		}
		seen[id] = true
	}
}

// TestDesignIndexListsEveryExperiment: DESIGN.md §4 indexes every
// experiment by ID, so an experiment added to the list without its row in
// the index fails here.
func TestDesignIndexListsEveryExperiment(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(doc)
	start := strings.Index(s, "\n## 4.")
	end := strings.Index(s, "\n## 5.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	// An indexed ID is a backquoted name in the first cell of a table row.
	indexed := make(map[string]bool)
	for _, line := range strings.Split(s[start:end], "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || cells[0] != "" {
			continue
		}
		for i, part := range strings.Split(cells[1], "`") {
			if i%2 == 1 {
				indexed[part] = true
			}
		}
	}
	for _, id := range IDs() {
		if !indexed[id] {
			t.Errorf("experiment %q has no row in DESIGN.md §4", id)
		}
	}
}
