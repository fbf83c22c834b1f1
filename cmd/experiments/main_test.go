package main

import (
	"testing"

	"mobilestorage/internal/experiments"
)

func TestRunOne(t *testing.T) {
	reg := experiments.Registry()
	// Fast experiments succeed: the catalog dump and the OmniBook testbed's
	// Table 1.
	for _, id := range []string{"table2", "table1"} {
		if err := runOne(reg, id, 1); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	// Unknown IDs error.
	if err := runOne(reg, "table9000", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestIDsAllRegistered(t *testing.T) {
	reg := experiments.Registry()
	for _, id := range experiments.IDs() {
		if _, ok := reg[id]; !ok {
			t.Errorf("IDs() lists unregistered %q", id)
		}
	}
}
