package state

import (
	"loom/internal/graph"
	"loom/internal/partition"
)

// Stats is the deterministic part of the reader-visible server state,
// frozen per published epoch (serve.Stats embeds it and adds the live
// mailbox, admission and persistence sections). CutEdges/ObservedEdges
// count only edges whose endpoints are both assigned — the incremental
// drift estimate the restream trigger watches.
type Stats struct {
	Epoch    uint64 `json:"epoch"`
	K        int    `json:"k"`
	Ingested int64  `json:"ingested"` // elements accepted
	Rejected int64  `json:"rejected"` // elements rejected with an error
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Assigned int    `json:"assigned"`
	// PendingWindow counts ingested vertices not yet assigned (resident in
	// the LOOM window or awaiting the next sweep).
	PendingWindow int     `json:"pending_window"`
	ObservedEdges int     `json:"observed_edges"`
	CutEdges      int     `json:"cut_edges"`
	CutFraction   float64 `json:"cut_fraction"`
	// WindowCutFraction is the cut fraction over the last completed drift
	// window (DriftConfig.WindowEdges observed edges); meaningful only
	// while WindowCutValid is true — windowing configured and at least
	// one window completed since the last restream swap.
	WindowCutFraction float64 `json:"window_cut_fraction"`
	WindowCutValid    bool    `json:"window_cut_valid"`
	Imbalance         float64 `json:"imbalance"`
	Sizes             []int   `json:"sizes"`
	Restreams         int     `json:"restreams"`
	RestreamLive      bool    `json:"restream_live"`
	// LastRestream reports the most recent completed (or failed) restream;
	// nil before the first one. The pointed-to report is immutable.
	LastRestream *RestreamReport `json:"last_restream,omitempty"`
}

// Move records one vertex whose shard changed when a restreamed assignment
// was swapped in.
type Move struct {
	V    graph.VertexID `json:"v"`
	From partition.ID   `json:"from"`
	To   partition.ID   `json:"to"`
}

// RestreamReport describes one background restream: what triggered it, the
// per-pass statistics, and the migration plan the swap implies.
type RestreamReport struct {
	// Trigger is "cut", "imbalance", "manual", or "workload" (the query
	// engine's message-rate trigger).
	Trigger string `json:"trigger"`
	// Err is non-empty when the restream failed (the old assignment stays).
	Err string `json:"err,omitempty"`
	// WorkloadSource is "static" (Config.Workload) or "observed" (a live
	// source installed by SetWorkloadSource) — the workload the loom
	// heuristic scored against. Empty for ldg/fennel.
	WorkloadSource string `json:"workload_source,omitempty"`
	// BudgetRejected is true when the restream finished but its migration
	// plan exceeded Drift.MaxMigrationFraction and the swap was refused;
	// Err then carries the detail and the old assignment keeps serving.
	BudgetRejected bool `json:"budget_rejected,omitempty"`
	// ExpectedVertices is the capacity constraint after the swap's
	// adaptive re-plan (successful swaps only).
	ExpectedVertices int `json:"expected_vertices,omitempty"`
	// Passes holds the per-pass cut/balance/migration statistics.
	Passes []partition.PassStats `json:"passes,omitempty"`
	// Vertices is the size of the graph snapshot that was restreamed.
	Vertices int `json:"vertices"`
	// Migrated counts vertices whose published placement changed at the
	// swap (len(Moves) — vertices first assigned at the swap barrier cost
	// no data movement and are excluded); MigrationFraction is Migrated
	// over the post-swap assigned count.
	Migrated          int     `json:"migrated"`
	MigrationFraction float64 `json:"migration_fraction"`
	// Moves is the vertex -> old/new shard diff, ascending by vertex. Only
	// vertices that were assigned before the swap appear.
	Moves []Move `json:"-"`
	// DurationMS is the wall-clock time of the background pass (clone to
	// adoption), measured by the shell.
	DurationMS int64 `json:"duration_ms"`
}

// View is a detached copy of the assigned portion of the serving state:
// every vertex in Graph has a placement in Assignment. Window residents
// (ingested but not yet placed) are excluded, so a View can always back a
// sharded store. The copy shares nothing with the server — readers may
// keep it indefinitely.
type View struct {
	Graph      *graph.Graph
	Assignment *partition.Assignment
	// Epoch is the published epoch the view was cut at.
	Epoch uint64
}
