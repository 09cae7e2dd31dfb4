package main

import (
	"testing"

	"loom/internal/experiments"
)

// TestBenchExperimentSmoke drives the same Runner loom-bench uses over one
// cheap experiment, quick mode — the command's core path minus flag
// parsing.
func TestBenchExperimentSmoke(t *testing.T) {
	spec, ok := experiments.Lookup("E15")
	if !ok {
		t.Fatal("E15 not registered")
	}
	r := &experiments.Runner{Seed: 42, Quick: true}
	tab, err := spec.Run(r)
	if err != nil {
		t.Fatalf("E15 quick: %v", err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("E15 produced no rows")
	}
}
