package workload

import (
	"math"
	"testing"

	"adaptivemm/internal/domain"
	"adaptivemm/internal/linalg"
)

// A marginal set over disjoint attribute groups must split into one block
// per connected component, with projections and row segments that
// reassemble the original answers exactly.
func TestMarginalBlocksSplitAndReassemble(t *testing.T) {
	shape := domain.MustShape(3, 4, 2, 5)
	// {0,1} and {1} connect attrs 0,1; {2,3} connects attrs 2,3; the empty
	// subset (total) rides with the first block.
	subsets := [][]int{{0, 1}, {2, 3}, {1}, {}}
	w := MarginalSet("split me", shape, subsets)

	blocks, ok := MarginalBlocks(w, 0)
	if !ok {
		t.Fatal("MarginalBlocks refused a marginal set")
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	b0, b1 := blocks[0], blocks[1]
	if got := b0.Attrs; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("block 0 attrs = %v, want [0 1]", got)
	}
	if got := b1.Attrs; len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("block 1 attrs = %v, want [2 3]", got)
	}
	if b0.Sub.Cells() != 12 || b1.Sub.Cells() != 10 {
		t.Fatalf("sub cells = %d, %d; want 12, 10", b0.Sub.Cells(), b1.Sub.Cells())
	}
	// Block 0 carries subsets {0,1}, {1} and {}: 12+4+1 = 17 queries.
	if b0.Sub.NumQueries() != 17 || b1.Sub.NumQueries() != 10 {
		t.Fatalf("sub queries = %d, %d; want 17, 10", b0.Sub.NumQueries(), b1.Sub.NumQueries())
	}
	if _, ok := b0.Sub.MarginalSubsets(); !ok {
		t.Fatal("sub-workload lost its marginal metadata")
	}

	// Projected sub-workload answers, scattered through the segments, must
	// equal the original workload answers on an arbitrary histogram.
	n := shape.Size()
	x := make([]float64, n)
	for i := range x {
		x[i] = float64((i*7)%13) - 3
	}
	want := w.MulQueries(x)
	got := make([]float64, w.NumQueries())
	for _, b := range blocks {
		sub := b.Sub.MulQueries(linalg.MulVec(b.Project, x))
		total := 0
		for _, seg := range b.Segments {
			total += seg.Len
		}
		if total != b.Sub.NumQueries() {
			t.Fatalf("block %s: segments cover %d rows, sub-workload has %d", b.Label(), total, b.Sub.NumQueries())
		}
		pos := 0
		for _, seg := range b.Segments {
			copy(got[seg.Start:seg.Start+seg.Len], sub[pos:pos+seg.Len])
			pos += seg.Len
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: reassembled %g, want %g", i, got[i], want[i])
		}
	}
}

// A connected marginal set yields a single block; a non-marginal workload
// is refused outright.
func TestMarginalBlocksConnectedAndRefusal(t *testing.T) {
	shape := domain.MustShape(4, 4, 4)
	connected := Marginals(shape, 2) // {0,1},{0,2},{1,2}: one component
	if blocks, ok := MarginalBlocks(connected, 0); !ok || len(blocks) != 1 {
		t.Fatalf("connected marginal set: blocks=%d ok=%v, want 1 block", len(blocks), ok)
	}
	if _, ok := MarginalBlocks(AllRange(shape), 0); ok {
		t.Fatal("AllRange is not a marginal set and must be refused")
	}
}

// maxBlocks merges the smallest blocks and the merged sub-workload is
// still a valid marginal set that reassembles exactly.
func TestMarginalBlocksMergeCap(t *testing.T) {
	shape := domain.MustShape(2, 3, 4, 5)
	subsets := [][]int{{0}, {1}, {2}, {3}}
	w := MarginalSet("four blocks", shape, subsets)
	blocks, ok := MarginalBlocks(w, 2)
	if !ok || len(blocks) != 2 {
		t.Fatalf("blocks=%d ok=%v, want 2 merged blocks", len(blocks), ok)
	}
	x := make([]float64, shape.Size())
	for i := range x {
		x[i] = float64(i % 7)
	}
	want := w.MulQueries(x)
	got := make([]float64, w.NumQueries())
	for _, b := range blocks {
		sub := b.Sub.MulQueries(linalg.MulVec(b.Project, x))
		pos := 0
		for _, seg := range b.Segments {
			copy(got[seg.Start:seg.Start+seg.Len], sub[pos:pos+seg.Len])
			pos += seg.Len
		}
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: reassembled %g, want %g", i, got[i], want[i])
		}
	}
}

// An explicit block-diagonal query matrix splits by cell support, zero
// rows ride with the first block, and the blocks reassemble exactly.
func TestCellBlocksSplitAndReassemble(t *testing.T) {
	rows := [][]float64{
		{1, 1, 0, 0, 0, 0}, // block A: cells 0,1
		{0, 0, 2, 0, 1, 0}, // block B: cells 2,4
		{0, 1, 0, 0, 0, 0}, // block A
		{0, 0, 0, 0, 0, 0}, // zero row: rides with block A
		{0, 0, 0, 3, 0, 1}, // block C: cells 3,5
		{0, 0, 1, 0, 0, 0}, // block B
	}
	w := FromMatrix("blocky", domain.MustShape(6), linalg.NewFromRows(rows))
	blocks, ok := CellBlocks(w, 0)
	if !ok {
		t.Fatal("CellBlocks refused an explicit workload")
	}
	if len(blocks) != 3 {
		t.Fatalf("got %d blocks, want 3", len(blocks))
	}
	x := []float64{2, -1, 4, 0.5, 3, -2}
	want := w.MulQueries(x)
	got := make([]float64, w.NumQueries())
	covered := 0
	for _, b := range blocks {
		sub := b.Sub.MulQueries(linalg.MulVec(b.Project, x))
		pos := 0
		for _, seg := range b.Segments {
			copy(got[seg.Start:seg.Start+seg.Len], sub[pos:pos+seg.Len])
			pos += seg.Len
			covered += seg.Len
		}
	}
	if covered != w.NumQueries() {
		t.Fatalf("segments cover %d rows, want %d", covered, w.NumQueries())
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("row %d: reassembled %g, want %g", i, got[i], want[i])
		}
	}
}

// Structured (non-materialized) workloads are refused without
// materializing; connected dense workloads return a single block.
func TestCellBlocksRefusals(t *testing.T) {
	if _, ok := CellBlocks(Prefix(64), 0); ok {
		t.Fatal("Prefix is matrix-free and must be refused")
	}
	if Prefix(64).HasDenseRows() {
		t.Fatal("CellBlocks must not materialize dense rows as a side effect")
	}
	connected := FromMatrix("conn", domain.MustShape(3), linalg.NewFromRows([][]float64{{1, 1, 0}, {0, 1, 1}}))
	if blocks, ok := CellBlocks(connected, 0); !ok || len(blocks) != 1 {
		t.Fatalf("connected: blocks=%d ok=%v, want 1 block", len(blocks), ok)
	}
}
