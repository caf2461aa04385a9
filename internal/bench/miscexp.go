package bench

import (
	"fmt"

	"gsdram/internal/cache"
	"gsdram/internal/cpu"
	"gsdram/internal/gemm"
	"gsdram/internal/gsdram"
	"gsdram/internal/imdb"
	"gsdram/internal/kvstore"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/sim"
	"gsdram/internal/stats"
)

// Table1 renders the simulated system configuration (paper Table 1).
func Table1() *stats.Table {
	mc := memctrl.DefaultConfig()
	l1 := cache.L1Default()
	l2 := cache.L2Default()
	t := stats.NewTable("Table 1: main parameters of the simulated system", "component", "configuration")
	t.Add("Processor", "1-2 cores, in-order model, 4 GHz")
	t.Add("L1-D Cache", fmt.Sprintf("private, %d KB, %d-way associative, LRU", l1.SizeBytes>>10, l1.Ways))
	t.Add("L2 Cache", fmt.Sprintf("shared, %d MB, %d-way associative, LRU", l2.SizeBytes>>20, l2.Ways))
	t.Add("Memory", fmt.Sprintf("DDR3-1600, %d channel(s), %d rank(s), %d banks",
		mc.Spec.Channels, mc.Spec.Ranks, mc.Spec.Banks))
	t.Add("Controller", "open row, FR-FCFS, GS-DRAM(8,3,3)")
	t.Add("Row buffer", fmt.Sprintf("%d KB per rank (%d cache-line columns)", mc.Spec.Cols*mc.Spec.LineBytes>>10, mc.Spec.Cols))
	return t
}

// Fig7 renders the gather map of Figure 7 for the given configuration,
// derived from the CTL formula over the shuffled layout.
func Fig7(p gsdram.Params, cols int) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 7: cache lines gathered by GS-DRAM(%d,%d,%d)", p.Chips, p.ShuffleStages, p.PatternBits),
		"pattern", "col ID", "word indices retrieved")
	for patt := gsdram.Pattern(0); patt <= p.MaxPattern(); patt++ {
		for c := 0; c < cols; c++ {
			t.Add(fmt.Sprint(patt), fmt.Sprint(c), fmt.Sprint(p.GatherIndices(patt, c)))
		}
	}
	return t
}

// Fig13Result holds Figure 13: GEMM execution time per size and variant.
type Fig13Result struct {
	Sizes   []int
	Results map[int][]gemm.Result // per size, in variant order
}

// Fig13Variants is the comparison set: the paper's three bars plus the
// packing ablation.
var Fig13Variants = []gemm.Variant{gemm.Naive, gemm.TiledGather, gemm.TiledPacked, gemm.GSDRAM}

// RunFig13 reproduces Figure 13: GEMM with the best tiled layout vs
// GS-DRAM, normalised to the non-tiled baseline.
func RunFig13(opts Options) (*Fig13Result, error) {
	res := &Fig13Result{Sizes: opts.GemmSizes, Results: map[int][]gemm.Result{}}
	// One job per matrix size; the variants within a size share one
	// workload (as the serial runner did), so they stay sequential inside
	// the job.
	runs := make([][]gemm.Result, len(opts.GemmSizes))
	err := opts.pool().Run(len(runs), func(j int) error {
		n := opts.GemmSizes[j]
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		w, err := gemm.NewWorkload(mach, n, opts.Seed)
		if err != nil {
			return err
		}
		for _, v := range Fig13Variants {
			r, err := w.Run(v, 0)
			if err != nil {
				return err
			}
			runs[j] = append(runs[j], r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for j, n := range opts.GemmSizes {
		res.Results[n] = runs[j]
	}
	return res, nil
}

// Table renders Figure 13 (normalised execution time, lower is better).
func (r *Fig13Result) Table() *stats.Table {
	t := stats.NewTable(
		"Figure 13: GEMM execution time normalised to the non-tiled baseline",
		"n", "Non-tiled", "Tiled+SW-gather", "Tiled+packing", "GS-DRAM", "GS vs best tiled")
	for _, n := range r.Sizes {
		rs := r.Results[n]
		base := float64(rs[0].Stats.Cycles)
		norm := func(i int) string { return fmt.Sprintf("%.3f", float64(rs[i].Stats.Cycles)/base) }
		bestTiled := rs[1].Stats.Cycles
		if rs[2].Stats.Cycles < bestTiled {
			bestTiled = rs[2].Stats.Cycles
		}
		gain := 100 * (1 - float64(rs[3].Stats.Cycles)/float64(bestTiled))
		t.Add(fmt.Sprint(n), norm(0), norm(1), norm(2), norm(3), fmt.Sprintf("%+.1f%%", gain))
	}
	return t
}

// KVResult holds the §5.3 key-value store comparison.
type KVResult struct {
	Pairs       int
	ScanLines   [2]uint64 // DRAM line fetches for a full key scan: plain, GS
	LookupCycle [2]uint64 // cycles for a miss lookup: plain, GS
}

// RunKVStore compares full-key-scan lookups on the plain and GS layouts.
// The inserted pairs are drawn from opts.Seed.
func RunKVStore(pairs int, opts Options) (*KVResult, error) {
	if pairs <= 0 || pairs%8 != 0 {
		return nil, fmt.Errorf("bench: pairs must be a positive multiple of 8")
	}
	res := &KVResult{Pairs: pairs}
	// Both layouts insert the same pairs (the rng is re-seeded per job).
	err := opts.pool().Run(2, func(idx int) error {
		gs := idx == 1
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		st, err := kvstore.New(mach, pairs, gs)
		if err != nil {
			return err
		}
		rng := sim.NewRand(opts.Seed)
		for i := 0; i < pairs; i++ {
			if _, err := st.Insert(rng.Uint64()|1, rng.Uint64()); err != nil {
				return err
			}
		}
		// A miss lookup scans every key. Time it against cold caches (a
		// fresh memory system): the scan is the paper's working-set-sized
		// access pattern, not a warm-cache replay.
		_, found, scan, err := st.Lookup(0)
		if err != nil {
			return err
		}
		if found {
			return fmt.Errorf("bench: phantom kv hit")
		}
		r, err := opts.newRig("", opts.memConfig(1))
		if err != nil {
			return err
		}
		m := r.run(0, cpu.SliceStream(scan))
		res.ScanLines[idx] = m.Mem.DRAMReads
		res.LookupCycle[idx] = m.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the key-value comparison.
func (r *KVResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Key-value store (Section 5.3): %d pairs, insert + full key scan", r.Pairs),
		"layout", "DRAM line fetches", "cycles (M)")
	t.Add("pair layout (plain)", fmt.Sprint(r.ScanLines[0]), stats.Mcycles(r.LookupCycle[0]))
	t.Add("pair layout (GS-DRAM, patt 1)", fmt.Sprint(r.ScanLines[1]), stats.Mcycles(r.LookupCycle[1]))
	return t
}

// AutoGatherResult holds the transparent pattern-promotion experiment.
type AutoGatherResult struct {
	Opts Options
	// Cycles / DRAM line fetches for a 1-column scan of the GS table
	// issued as: explicit pattloads, plain loads (no promotion), plain
	// loads with transparent promotion.
	Cycles    [3]uint64
	LineReads [3]uint64
	Promoted  uint64
}

// RunAutoGather evaluates the §4 future-work mechanism: the same
// unmodified (plain-load) column scan over a pattmalloc'd table, with and
// without the controller's transparent pattern promotion, against the
// explicit-pattload upper bound.
func RunAutoGather(opts Options) (*AutoGatherResult, error) {
	res := &AutoGatherResult{Opts: opts}
	type mode struct {
		plain bool
		auto  bool
	}
	modes := []mode{{false, false}, {true, false}, {true, true}}
	err := opts.pool().Run(len(modes), func(i int) error {
		md := modes[i]
		db, err := templateDB(imdb.GSStore, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := opts.memConfig(1)
		cfg.AutoPattern = md.auto
		r, err := opts.newRig("", cfg)
		if err != nil {
			return err
		}
		var ar imdb.AnalyticsResult
		var s cpu.Stream
		if md.plain {
			s, err = db.PlainAnalyticsStream([]int{0}, &ar)
		} else {
			s, err = db.AnalyticsStream([]int{0}, &ar)
		}
		if err != nil {
			return err
		}
		m := r.run(0, s)
		checkSums(&ar, opts.Tuples, []int{0})
		res.Cycles[i] = m.Cycles
		res.LineReads[i] = m.Mem.DRAMReads
		if md.auto {
			res.Promoted = r.mem.AutoPattStats().Promoted
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the transparent-promotion comparison.
func (r *AutoGatherResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Transparent pattern promotion (Section 4, future work): 1-column scan, %d tuples", r.Opts.Tuples),
		"access mode", "cycles (M)", "DRAM line fetches")
	labels := []string{"explicit pattload", "plain loads", "plain loads + auto promotion"}
	for i, l := range labels {
		t.Add(l, stats.Mcycles(r.Cycles[i]), fmt.Sprint(r.LineReads[i]))
	}
	return t
}

// SchedulerAblationResult compares FR-FCFS against FCFS and open-row
// against closed-row on the analytics scan (streaming), the transaction
// workload (random), and the two-core HTAP mix (where request reordering
// actually has requests to reorder).
type SchedulerAblationResult struct {
	Opts Options
	// Cycles indexed by [policy][workload]: policy 0 = FR-FCFS/open-row
	// (Table 1), 1 = FCFS/open-row, 2 = FR-FCFS/closed-row.
	// Workload 0 = analytics scan, 1 = transactions.
	Cycles [3][2]uint64
	// HTAPThroughput is the HTAP transaction throughput (txns/s, with
	// prefetching) under each policy.
	HTAPThroughput [3]float64
}

// RunSchedulerAblation quantifies how much the paper's controller
// configuration (FR-FCFS, open row) matters for the evaluated workloads.
func RunSchedulerAblation(opts Options) (*SchedulerAblationResult, error) {
	res := &SchedulerAblationResult{Opts: opts}
	pols := []struct {
		sched memctrl.SchedPolicy
		row   memctrl.RowPolicy
	}{
		{memctrl.PolicyFRFCFS, memctrl.OpenRow},
		{memctrl.PolicyFCFS, memctrl.OpenRow},
		{memctrl.PolicyFRFCFS, memctrl.ClosedRow},
	}
	// One job per (policy, sub-run): sub-runs 0 and 1 are the single-core
	// workloads, sub-run 2 is the two-core HTAP mix.
	err := opts.pool().Run(len(pols)*3, func(j int) error {
		pi, sub := j/3, j%3
		pol := pols[pi]
		db, err := templateDB(imdb.GSStore, opts.Tuples)
		if err != nil {
			return err
		}
		// The HTAP mix runs on two cores with prefetching on.
		htap := sub == 2
		cores := 1
		if htap {
			cores = 2
		}
		cfg := opts.memConfig(cores)
		cfg.EnablePrefetch = htap
		cfg.Mem.Sched = pol.sched
		cfg.Mem.Row = pol.row
		r, err := opts.newRig("", cfg)
		if err != nil {
			return err
		}
		if sub == 1 {
			s, err := db.TransactionStream(imdb.TxnMix{RO: 2, WO: 1, RW: 1}, opts.Txns, opts.Seed, nil)
			if err != nil {
				return err
			}
			res.Cycles[pi][1] = r.run(0, s).Cycles
			return nil
		}
		as, err := db.AnalyticsStream([]int{0}, nil)
		if err != nil {
			return err
		}
		if sub == 0 {
			res.Cycles[pi][0] = r.run(0, as).Cycles
			return nil
		}
		var tr imdb.TxnResult
		ts, err := db.TransactionStream(imdb.TxnMix{RO: 1, WO: 1}, 0, opts.Seed, &tr)
		if err != nil {
			return err
		}
		done := r.runHTAP(as, ts)
		res.HTAPThroughput[pi] = float64(tr.Completed) / (float64(done) / 4e9)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the scheduler/row-policy ablation.
func (r *SchedulerAblationResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Controller ablation: GS-DRAM table, %d tuples / %d txns", r.Opts.Tuples, r.Opts.Txns),
		"policy", "analytics scan (Mcyc)", "transactions (Mcyc)", "HTAP txn tput (M/s)")
	labels := []string{"FR-FCFS, open-row (Table 1)", "FCFS, open-row", "FR-FCFS, closed-row"}
	for i, l := range labels {
		t.Add(l, stats.Mcycles(r.Cycles[i][0]), stats.Mcycles(r.Cycles[i][1]),
			fmt.Sprintf("%.2f", r.HTAPThroughput[i]/1e6))
	}
	return t
}

// AblationShuffle renders the §3.2 chip-conflict ablation: READ commands
// needed per gather under the simple vs. shuffled mapping. Power-of-2
// strides are the design target (zero conflicts under shuffling);
// non-power-of-2 strides illustrate the "additional challenges" of §3.1 —
// they are conflict-free under the simple mapping (odd strides are
// coprime with the chip count) but no pattern ID can express them, so
// GS-DRAM gains nothing either way.
func AblationShuffle(p gsdram.Params) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation (Sections 3.1/3.2): READs per %d-value gather, GS-DRAM(%d,%d,%d)", p.Chips, p.Chips, p.ShuffleStages, p.PatternBits),
		"stride", "simple mapping", "column-ID shuffling", "one-READ gatherable")
	for stride := 1; stride <= p.Chips; stride *= 2 {
		set := gsdram.StrideSet(0, stride, p.Chips)
		t.Add(fmt.Sprint(stride),
			fmt.Sprint(p.ReadsNeeded(gsdram.SimpleMapping, set)),
			fmt.Sprint(p.ReadsNeeded(gsdram.ShuffledMapping, set)),
			"yes (pattern)")
	}
	for _, stride := range []int{3, 5, 6, 7} {
		set := gsdram.StrideSet(0, stride, p.Chips)
		t.Add(fmt.Sprintf("%d (non-pow-2)", stride),
			fmt.Sprint(p.ReadsNeeded(gsdram.SimpleMapping, set)),
			fmt.Sprint(p.ReadsNeeded(gsdram.ShuffledMapping, set)),
			"no (Section 3.1)")
	}
	return t
}

// AblationECC renders the §6.3 ECC-bandwidth ablation: ECC-chip reads per
// gather with a conventional ECC chip vs one with intra-chip column
// translation.
func AblationECC(p gsdram.Params) *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("ECC bandwidth (Section 6.3): ECC-chip reads per gather, GS-DRAM(%d,%d,%d)", p.Chips, p.ShuffleStages, p.PatternBits),
		"pattern", "conventional ECC chip", "intra-chip translation")
	for patt := gsdram.Pattern(0); patt <= p.MaxPattern(); patt++ {
		t.Addf(fmt.Sprint(patt),
			p.ECCReadsPerGather(patt, 0, false),
			p.ECCReadsPerGather(patt, 0, true))
	}
	return t
}
