package main

import (
	"testing"

	"tcast/internal/trial"
)

// TestSparseBytesSublinear pins the sparse pair's acceptance criterion:
// steady-state allocator traffic per bare trial must not scale with the
// field. A 10x population jump (1e5 -> 1e6, both above the cutover) may
// at most double bytes/op plus a page of slack — the streamed rounds
// reuse one pooled bin buffer and one rank directory, so a linear O(N)
// term (a materialized partition, a fresh shuffle buffer) blows straight
// through the bound.
func TestSparseBytesSublinear(t *testing.T) {
	const iters = 24
	small, err := measureSparseBytes(100_000, iters)
	if err != nil {
		t.Fatal(err)
	}
	large, err := measureSparseBytes(1_000_000, iters)
	if err != nil {
		t.Fatal(err)
	}
	if large > 2*small+4096 {
		t.Fatalf("sparse trial bytes grew with N: %.0f B/op at n=1e5 vs %.0f B/op at n=1e6", small, large)
	}
}

// TestSparse1e7Completes: the 10^7-node benchmark population finishes a
// session on one pooled state — the resident set stays at one field's
// worth of buffers, so the point runs even under -short CI memory.
func TestSparse1e7Completes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second single trial")
	}
	var st trial.State
	if err := runSparseTrials(10_000_000, 1, &st); err != nil {
		t.Fatal(err)
	}
}
