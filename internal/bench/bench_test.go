package bench

import (
	"strings"
	"testing"

	"gsdram/internal/gsdram"
	"gsdram/internal/imdb"
)

func TestTable1Renders(t *testing.T) {
	out := Table1().String()
	for _, want := range []string{"DDR3-1600", "GS-DRAM(8,3,3)", "FR-FCFS", "32 KB", "2 MB"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig7Renders(t *testing.T) {
	out := Fig7(gsdram.GS422, 4).String()
	if !strings.Contains(out, "[0 4 8 12]") {
		t.Errorf("Figure 7 missing pattern-3 stride-4 gather:\n%s", out)
	}
	if !strings.Contains(out, "[0 2 4 6]") {
		t.Errorf("Figure 7 missing pattern-1 stride-2 gather:\n%s", out)
	}
}

// TestFig9Shape runs the transaction experiment at reduced scale and
// checks the paper's claims: GS-DRAM ~= Row Store, and Column Store
// substantially slower (3x on average in the paper).
func TestFig9Shape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunFig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	row := r.AvgCycles(imdb.RowStore)
	col := r.AvgCycles(imdb.ColumnStore)
	gs := r.AvgCycles(imdb.GSStore)
	if gs > 1.25*row {
		t.Errorf("GS-DRAM (%.0f) should match Row Store (%.0f) for transactions", gs, row)
	}
	if col < 1.8*gs {
		t.Errorf("Column Store (%.0f) should be much slower than GS-DRAM (%.0f)", col, gs)
	}
	if got := r.Table().String(); !strings.Contains(got, "1-0-1") {
		t.Errorf("table missing mix label:\n%s", got)
	}
}

// TestFig10Shape runs the analytics experiment at reduced scale and
// checks: GS-DRAM ~= Column Store, Row Store substantially slower (2x in
// the paper), and prefetching helps everyone.
func TestFig10Shape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunFig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, pf := range []bool{false, true} {
		row := r.AvgCycles(imdb.RowStore, pf)
		col := r.AvgCycles(imdb.ColumnStore, pf)
		gs := r.AvgCycles(imdb.GSStore, pf)
		if gs > 1.25*col {
			t.Errorf("prefetch=%v: GS-DRAM (%.0f) should match Column Store (%.0f)", pf, gs, col)
		}
		if row < 1.5*gs {
			t.Errorf("prefetch=%v: Row Store (%.0f) should be much slower than GS-DRAM (%.0f)", pf, row, gs)
		}
	}
	for _, l := range []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore} {
		if r.AvgCycles(l, true) >= r.AvgCycles(l, false) {
			t.Errorf("%v: prefetching did not help (%.0f vs %.0f)", l, r.AvgCycles(l, true), r.AvgCycles(l, false))
		}
	}
}

// TestFig11Shape checks the HTAP claims: GS-DRAM analytics ~= Column
// Store, and GS-DRAM transaction throughput at least Row Store's.
func TestFig11Shape(t *testing.T) {
	// HTAP needs a table larger than the L2: the paper's effect is
	// FR-FCFS bandwidth contention, which a cache-resident table hides.
	opts := QuickOptions()
	opts.Tuples = 65536
	r, err := RunFig11(opts)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi < 2; pi++ {
		gsA := r.AnalyticsCycles[imdb.GSStore][pi]
		colA := r.AnalyticsCycles[imdb.ColumnStore][pi]
		rowA := r.AnalyticsCycles[imdb.RowStore][pi]
		if float64(gsA) > 1.3*float64(colA) {
			t.Errorf("prefetch=%d: GS analytics %d vs column %d", pi, gsA, colA)
		}
		if rowA < gsA {
			t.Errorf("prefetch=%d: row-store analytics %d beat GS %d", pi, rowA, gsA)
		}
		gsT := r.TxnThroughput[imdb.GSStore][pi]
		rowT := r.TxnThroughput[imdb.RowStore][pi]
		colT := r.TxnThroughput[imdb.ColumnStore][pi]
		// GS-DRAM must stay within a whisker of Row Store's throughput
		// without prefetching and clearly beat it with prefetching (the
		// paper's headline: the prefetcher turns the row-store analytics
		// thread into a bandwidth hog, while GS-DRAM touches 8x fewer
		// lines per DRAM row).
		if pi == 0 && gsT < 0.85*rowT {
			t.Errorf("prefetch=off: GS throughput %.0f well below row store %.0f", gsT, rowT)
		}
		if pi == 1 && gsT < 1.5*rowT {
			t.Errorf("prefetch=on: GS throughput %.0f does not clearly beat row store %.0f", gsT, rowT)
		}
		if gsT < colT {
			t.Errorf("prefetch=%d: GS throughput %.0f below column store %.0f", pi, gsT, colT)
		}
	}
	if out := r.AnalyticsTable().String(); !strings.Contains(out, "GS-DRAM") {
		t.Error("analytics table malformed")
	}
	if out := r.ThroughputTable().String(); !strings.Contains(out, "GS-DRAM") {
		t.Error("throughput table malformed")
	}
}

// TestFig12Shape checks the energy summary: GS-DRAM transactions energy
// ~= Row Store and well below Column Store; analytics energy ~= Column
// Store and well below Row Store.
func TestFig12Shape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunFig12(opts)
	if err != nil {
		t.Fatal(err)
	}
	gsT := r.Fig9.AvgEnergy(imdb.GSStore)
	rowT := r.Fig9.AvgEnergy(imdb.RowStore)
	colT := r.Fig9.AvgEnergy(imdb.ColumnStore)
	if gsT > 1.25*rowT {
		t.Errorf("transactions energy: GS %.3f vs row %.3f", gsT, rowT)
	}
	if colT < 1.5*gsT {
		t.Errorf("transactions energy: column %.3f should exceed GS %.3f clearly", colT, gsT)
	}
	gsA := r.Fig10.AvgEnergy(imdb.GSStore, true)
	rowA := r.Fig10.AvgEnergy(imdb.RowStore, true)
	colA := r.Fig10.AvgEnergy(imdb.ColumnStore, true)
	if gsA > 1.25*colA {
		t.Errorf("analytics energy: GS %.3f vs column %.3f", gsA, colA)
	}
	if rowA < 1.5*gsA {
		t.Errorf("analytics energy: row %.3f should exceed GS %.3f clearly", rowA, gsA)
	}
	if out := r.PerfTable().String(); !strings.Contains(out, "Transactions") {
		t.Error("perf table malformed")
	}
	if out := r.EnergyTable().String(); !strings.Contains(out, "Analytics") {
		t.Error("energy table malformed")
	}
}

// TestFig13Shape checks the GEMM claims at small scale.
func TestFig13Shape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunFig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range opts.GemmSizes {
		rs := r.Results[n]
		naive := rs[0].Stats.Cycles
		gather := rs[1].Stats.Cycles
		gs := rs[3].Stats.Cycles
		if gather >= naive {
			t.Errorf("n=%d: tiled (%d) not faster than naive (%d)", n, gather, naive)
		}
		if gs >= gather {
			t.Errorf("n=%d: GS (%d) not faster than SW-gather tiled (%d)", n, gs, gather)
		}
	}
	if out := r.Table().String(); !strings.Contains(out, "GS vs best tiled") {
		t.Error("fig13 table malformed")
	}
}

func TestKVStoreBench(t *testing.T) {
	r, err := RunKVStore(256, seeded(7, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.ScanLines[1] >= r.ScanLines[0] {
		t.Errorf("GS scan fetched %d lines, plain %d; want fewer", r.ScanLines[1], r.ScanLines[0])
	}
	if !strings.Contains(r.Table().String(), "patt 1") {
		t.Error("kv table malformed")
	}
	if _, err := RunKVStore(5, seeded(1, 0)); err == nil {
		t.Error("bad pair count accepted")
	}
}

func TestAblationShuffleTable(t *testing.T) {
	out := AblationShuffle(gsdram.GS844).String()
	// Stride 8 under simple mapping needs 8 READs; shuffled needs 1.
	found := false
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "8" {
			if fields[1] != "8" || fields[2] != "1" {
				t.Errorf("stride-8 row wrong: %q", line)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("stride-8 row missing:\n%s", out)
	}
	// Non-power-of-2 strides are listed as not one-READ gatherable.
	if !strings.Contains(out, "non-pow-2") || !strings.Contains(out, "no (Section 3.1)") {
		t.Errorf("non-power-of-2 rows missing:\n%s", out)
	}
}

func TestOptionsDefaults(t *testing.T) {
	d := DefaultOptions()
	if d.Tuples <= 0 || d.Txns <= 0 || len(d.GemmSizes) == 0 {
		t.Fatalf("defaults unusable: %+v", d)
	}
	q := QuickOptions()
	if q.Tuples >= d.Tuples {
		t.Fatal("quick options not smaller than defaults")
	}
}

// seeded returns QuickOptions drawing workload randomness from seed,
// with txns updates per graph batch (0 keeps the QuickOptions count).
func seeded(seed uint64, txns int) Options {
	o := QuickOptions()
	o.Seed = seed
	if txns > 0 {
		o.Txns = txns
	}
	return o
}
