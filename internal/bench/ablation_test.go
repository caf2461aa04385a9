package bench

import (
	"strings"
	"testing"

	"gsdram/internal/gsdram"
	"gsdram/internal/imdb"
)

// TestAutoGatherShape verifies the §4 future-work mechanism end to end:
// transparent promotion must recover most of the explicit-pattload
// advantage over plain loads.
func TestAutoGatherShape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunAutoGather(opts)
	if err != nil {
		t.Fatal(err)
	}
	explicit, plain, auto := r.Cycles[0], r.Cycles[1], r.Cycles[2]
	if plain < 2*explicit {
		t.Errorf("plain loads (%d) should be much slower than pattloads (%d)", plain, explicit)
	}
	if auto > (explicit+plain)/2 {
		t.Errorf("auto promotion (%d) recovered too little of the gap (explicit %d, plain %d)", auto, explicit, plain)
	}
	if r.Promoted == 0 {
		t.Error("no accesses were promoted")
	}
	if r.LineReads[2] >= r.LineReads[1] {
		t.Errorf("promotion did not reduce line fetches: %d vs %d", r.LineReads[2], r.LineReads[1])
	}
	if out := r.Table().String(); !strings.Contains(out, "auto promotion") {
		t.Error("table malformed")
	}
}

// TestSchedulerAblationShape: open-row + FR-FCFS (Table 1) must win on
// the streaming analytics scan; the ablations must still complete and
// stay within sane bounds.
func TestSchedulerAblationShape(t *testing.T) {
	opts := QuickOptions()
	r, err := RunSchedulerAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	baseScan := r.Cycles[0][0]
	if closedScan := r.Cycles[2][0]; closedScan < baseScan {
		t.Errorf("closed-row scan (%d) beat open-row (%d) on streaming traffic", closedScan, baseScan)
	}
	for pi := 0; pi < 3; pi++ {
		for wi := 0; wi < 2; wi++ {
			if r.Cycles[pi][wi] == 0 {
				t.Fatalf("policy %d workload %d did not run", pi, wi)
			}
		}
	}
	if out := r.Table().String(); !strings.Contains(out, "FR-FCFS, open-row (Table 1)") {
		t.Error("table malformed")
	}
}

// TestGraphShape verifies the graph workload's best-of-both claim: GS
// tracks SoA on the scan-heavy PageRank kernel and AoS on random
// updates.
func TestGraphShape(t *testing.T) {
	r, err := RunGraph(16384, 4, seeded(42, 1500))
	if err != nil {
		t.Fatal(err)
	}
	aos, soa, gs := 0, 1, 2
	if float64(r.PageRank[gs]) > 1.3*float64(r.PageRank[soa]) {
		t.Errorf("PageRank: GS %d vs SoA %d; want parity", r.PageRank[gs], r.PageRank[soa])
	}
	if r.PageRank[aos] < r.PageRank[gs] {
		t.Errorf("PageRank: AoS %d beat GS %d", r.PageRank[aos], r.PageRank[gs])
	}
	if float64(r.Update[gs]) > 1.3*float64(r.Update[aos]) {
		t.Errorf("updates: GS %d vs AoS %d; want parity", r.Update[gs], r.Update[aos])
	}
	if float64(r.Update[soa]) < 1.5*float64(r.Update[gs]) {
		t.Errorf("updates: SoA %d should clearly trail GS %d", r.Update[soa], r.Update[gs])
	}
	if out := r.Table().String(); !strings.Contains(out, "PageRank") {
		t.Error("table malformed")
	}
	if _, err := RunGraph(10, 4, seeded(1, 10)); err == nil {
		t.Error("bad vertex count accepted")
	}
}

// TestChannelScaling: a second DDR3 channel must meaningfully speed up
// the bandwidth-bound prefetched scan, and 1-channel bandwidth must sit
// below the 12.8 GB/s DDR3-1600 peak.
func TestChannelScaling(t *testing.T) {
	opts := QuickOptions()
	opts.Tuples = 65536
	r, err := RunChannels(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.GBs[0] <= 0 || r.GBs[0] > 12.8 {
		t.Errorf("1-channel bandwidth %.2f GB/s outside (0, 12.8]", r.GBs[0])
	}
	if float64(r.Cycles[1]) > 0.75*float64(r.Cycles[0]) {
		t.Errorf("2 channels gave only %d vs %d cycles; want a real speedup", r.Cycles[1], r.Cycles[0])
	}
	if !strings.Contains(r.Table().String(), "GB/s") {
		t.Error("table malformed")
	}
}

// TestImpulseComparison: controller-side gathering (Impulse-like) must
// cost substantially more DRAM line reads (and energy) than the in-DRAM
// gather, with equal cache-side behaviour.
func TestImpulseComparison(t *testing.T) {
	opts := QuickOptions()
	opts.Tuples = 32768
	r, err := RunImpulse(opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.LineReads[1] < 6*r.LineReads[0] {
		t.Errorf("controller gather read %d lines vs GS %d; want ~8x", r.LineReads[1], r.LineReads[0])
	}
	if r.EnergyMJ[1] <= r.EnergyMJ[0] {
		t.Errorf("controller gather energy %.3f not above GS %.3f", r.EnergyMJ[1], r.EnergyMJ[0])
	}
	if r.Cycles[1] < r.Cycles[0] {
		t.Errorf("controller gather (%d) faster than GS (%d)", r.Cycles[1], r.Cycles[0])
	}
	if !strings.Contains(r.Table().String(), "Impulse") {
		t.Error("table malformed")
	}
}

// TestPatternSweep: each extra pattern bit halves the line fetches of the
// field scan; cycles decrease monotonically.
func TestPatternSweep(t *testing.T) {
	opts := QuickOptions()
	opts.Tuples = 32768
	r, err := RunPatternSweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 3; p++ {
		// Demand fetch counts halve (prefetches add noise; use a loose 1.7x).
		if float64(r.LineReads[p-1]) < 1.7*float64(r.LineReads[p]) {
			t.Errorf("p=%d: line reads %d -> %d; want ~2x drop", p, r.LineReads[p-1], r.LineReads[p])
		}
		if r.Cycles[p] >= r.Cycles[p-1] {
			t.Errorf("p=%d: cycles did not decrease (%d -> %d)", p, r.Cycles[p-1], r.Cycles[p])
		}
	}
	if !strings.Contains(r.Table().String(), "widest stride") {
		t.Error("table malformed")
	}
}

// TestStoreBufferAblation: the store buffer must help every layout a
// little and the column store the most, without changing the layout
// ordering (GS ~ Row << Column).
func TestStoreBufferAblation(t *testing.T) {
	opts := QuickOptions()
	r, err := RunStoreBuffer(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore} {
		c := r.Cycles[l]
		if c[1] > c[0] {
			t.Errorf("%v: store buffer slowed it down (%d -> %d)", l, c[0], c[1])
		}
	}
	colGain := float64(r.Cycles[imdb.ColumnStore][0]) / float64(r.Cycles[imdb.ColumnStore][1])
	gsGain := float64(r.Cycles[imdb.GSStore][0]) / float64(r.Cycles[imdb.GSStore][1])
	if colGain < gsGain {
		t.Errorf("column store gain %.2f below GS gain %.2f; writes should matter more for the column store", colGain, gsGain)
	}
	// Layout ordering survives.
	if r.Cycles[imdb.ColumnStore][1] < 15*r.Cycles[imdb.GSStore][1]/10 {
		t.Errorf("with store buffer, column store (%d) no longer clearly behind GS (%d)", r.Cycles[imdb.ColumnStore][1], r.Cycles[imdb.GSStore][1])
	}
	if !strings.Contains(r.Table().String(), "store buffer") {
		t.Error("table malformed")
	}
}

// TestPixelsShape: the GS image histograms with ~8x fewer line fetches;
// shading stays at parity (whole-record access).
func TestPixelsShape(t *testing.T) {
	r, err := RunPixels(8192, 500, seeded(9, 0))
	if err != nil {
		t.Fatal(err)
	}
	if r.HistLines[1]*6 > r.HistLines[0] {
		t.Errorf("GS histogram fetched %d lines vs plain %d; want ~8x fewer", r.HistLines[1], r.HistLines[0])
	}
	if r.HistCycles[1] >= r.HistCycles[0] {
		t.Errorf("GS histogram (%d) not faster than plain (%d)", r.HistCycles[1], r.HistCycles[0])
	}
	ratio := float64(r.ShadeCycles[1]) / float64(r.ShadeCycles[0])
	if ratio > 1.3 || ratio < 0.7 {
		t.Errorf("shade cycles diverged: GS %d vs plain %d", r.ShadeCycles[1], r.ShadeCycles[0])
	}
	if !strings.Contains(r.Table().String(), "patt 7") {
		t.Error("table malformed")
	}
	if _, err := RunPixels(10, 5, seeded(1, 0)); err == nil {
		t.Error("bad pixel count accepted")
	}
}

// TestEnergyBreakdownTable: components are positive and sum close to the
// reported totals.
func TestEnergyBreakdownTable(t *testing.T) {
	r, err := RunFig12(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := r.EnergyBreakdownTable().String()
	if !strings.Contains(out, "DRAM commands") || !strings.Contains(out, "GS-DRAM") {
		t.Fatalf("breakdown malformed:\n%s", out)
	}
}

// TestAllExperimentsQuick is the integration smoke test behind
// `gsbench -exp all`: every runner completes at quick scale.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("integration smoke test")
	}
	opts := QuickOptions()
	if _, err := RunFig9(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig10(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig11(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFig13(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunKVStore(256, seeded(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunGraph(1024, 4, seeded(1, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := RunChannels(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunImpulse(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPatternSweep(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunStoreBuffer(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAutoGather(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunSchedulerAblation(opts); err != nil {
		t.Fatal(err)
	}
	if _, err := RunPixels(512, 50, seeded(1, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestAblationECCTable(t *testing.T) {
	out := AblationECC(gsdram.GS844).String()
	if !strings.Contains(out, "intra-chip") {
		t.Fatalf("ECC ablation malformed:\n%s", out)
	}
}
