package spec

import (
	"gsdram/internal/bench"
	core "gsdram/internal/gsdram"
	"gsdram/internal/imdb"
	"gsdram/internal/stats"
)

// runnerFunc executes one experiment for a spec: it returns the
// structured result, an optional cycles/speedups summary, and the
// rendered tables.
type runnerFunc func(s *Spec, opts bench.Options) (result any, summary any, tables []*stats.Table, err error)

// entry couples a runnable experiment with its name, so dispatch,
// usage errors, and sweep expansion all share one registry.
type entry struct {
	name string
	run  runnerFunc
}

// registry is the full experiment registry in the fixed execution order
// shared by every gsbench mode (it was extracted verbatim from
// cmd/gsbench so the CLI and the farm construct identical rigs).
var registry = []entry{
	{"table1", func(_ *Spec, _ bench.Options) (any, any, []*stats.Table, error) {
		t := bench.Table1()
		return t, nil, []*stats.Table{t}, nil
	}},
	{"fig7", func(_ *Spec, _ bench.Options) (any, any, []*stats.Table, error) {
		t1 := bench.Fig7(core.GS422, 4)
		t2 := bench.Fig7(core.GS844, 8)
		ts := []*stats.Table{t1, t2}
		return ts, nil, ts, nil
	}},
	{"fig9", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunFig9(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, fig9Summary(r), []*stats.Table{r.Table()}, nil
	}},
	{"fig9sampled", func(s *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		// Always sampled, independent of the spec's Sample section: this
		// run keeps a wall-clock row in the -json document so bench-gate
		// can regression-gate the sampled path's speed.
		sopts := opts
		if sopts.Sample == nil {
			sopts.Sample = DefaultSample().Config()
		}
		r, err := bench.RunFig9(sopts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, fig9SampledSummary(r), []*stats.Table{r.SampledTable()}, nil
	}},
	{"fig10", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunFig10(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, fig10Summary(r), []*stats.Table{r.Table()}, nil
	}},
	{"fig11", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunFig11(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.AnalyticsTable(), r.ThroughputTable()}, nil
	}},
	{"fig12", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunFig12(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.PerfTable(), r.EnergyTable(), r.EnergyBreakdownTable()}, nil
	}},
	{"fig13", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunFig13(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"kvstore", func(s *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunKVStore(s.KVPairs, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"graph", func(s *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunGraph(s.Vertices, s.Degree, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"channels", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunChannels(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"impulse", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunImpulse(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"pattbits", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunPatternSweep(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"storebuf", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunStoreBuffer(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"autogather", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunAutoGather(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"schedpol", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunSchedulerAblation(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"pixels", func(s *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunPixels(s.Tuples&^7, 2000, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, nil, []*stats.Table{r.Table()}, nil
	}},
	{"ablation", func(_ *Spec, _ bench.Options) (any, any, []*stats.Table, error) {
		t := bench.AblationShuffle(core.GS844)
		t2 := bench.AblationECC(core.GS844)
		ts := []*stats.Table{t, t2}
		return ts, nil, ts, nil
	}},
	{"hashjoin", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunHashJoin(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, indexedSummary(r), []*stats.Table{r.Table()}, nil
	}},
	{"spmv", func(_ *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunSpMV(opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, indexedSummary(r), []*stats.Table{r.Table()}, nil
	}},
	{"ptrchase", func(s *Spec, opts bench.Options) (any, any, []*stats.Table, error) {
		r, err := bench.RunPtrChase(s.Vertices, s.Degree, opts)
		if err != nil {
			return nil, nil, nil, err
		}
		return r, indexedSummary(r), []*stats.Table{r.Table()}, nil
	}},
}

// indexedSummary condenses an indexed-workload result into per-variant
// cycles, the headline gatherv speedup over the non-coalesced scalar
// fallback, and the burst mix showing how much of the win came from
// in-DRAM pattern gathers.
func indexedSummary(r *bench.IndexedResult) any {
	patterned := 0.0
	if r.Bursts[2] > 0 {
		patterned = float64(r.Patterned[2]) / float64(r.Bursts[2])
	}
	return map[string]any{
		"cycles": map[string]uint64{
			"scalar":       r.Cycles[0],
			"gatherv_flat": r.Cycles[1],
			"gatherv_gs":   r.Cycles[2],
		},
		"speedup_gatherv_vs_fallback": ratio(float64(r.Cycles[0]), float64(r.Cycles[2])),
		"speedup_gs_vs_flat":          ratio(float64(r.Cycles[1]), float64(r.Cycles[2])),
		"patterned_burst_fraction":    patterned,
	}
}

// Names lists the registry in execution order.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// lookup resolves an experiment name.
func lookup(name string) (runnerFunc, bool) {
	for _, e := range registry {
		if e.name == name {
			return e.run, true
		}
	}
	return nil, false
}

// sampledEntries extracts the per-run sampled estimates from the
// experiments that support interval sampling; nil otherwise.
func sampledEntries(result any) []bench.SampledEntry {
	switch r := result.(type) {
	case *bench.Fig9Result:
		return r.SampledEntries()
	case *bench.Fig10Result:
		return r.SampledEntries()
	case *bench.PatternSweepResult:
		return r.SampledEntries()
	}
	return nil
}

// fig9Summary condenses Figure 9 into per-layout average cycles and the
// headline speedups.
func fig9Summary(r *bench.Fig9Result) any {
	row, col, gs := r.AvgCycles(imdb.RowStore), r.AvgCycles(imdb.ColumnStore), r.AvgCycles(imdb.GSStore)
	return map[string]any{
		"avg_cycles": map[string]float64{
			"row_store":    row,
			"column_store": col,
			"gs_dram":      gs,
		},
		"speedup_vs_row":    ratio(row, gs),
		"speedup_vs_column": ratio(col, gs),
	}
}

// fig10Summary condenses Figure 10 (prefetched analytics) the same way.
func fig10Summary(r *bench.Fig10Result) any {
	row, col, gs := r.AvgCycles(imdb.RowStore, true), r.AvgCycles(imdb.ColumnStore, true), r.AvgCycles(imdb.GSStore, true)
	return map[string]any{
		"avg_cycles_prefetch": map[string]float64{
			"row_store":    row,
			"column_store": col,
			"gs_dram":      gs,
		},
		"speedup_vs_row":    ratio(row, gs),
		"speedup_vs_column": ratio(col, gs),
	}
}

// fig9SampledSummary extends the Figure 9 summary with the sampling
// quality stats: the worst relative CI half-width and the detailed
// fraction, averaged over runs.
func fig9SampledSummary(r *bench.Fig9Result) any {
	s := fig9Summary(r).(map[string]any)
	var maxCI, frac float64
	n := 0
	for _, e := range r.SampledEntries() {
		if ci := e.Result.RelCI(); ci > maxCI {
			maxCI = ci
		}
		frac += e.Result.SampledFraction()
		n++
	}
	if n > 0 {
		s["max_rel_ci"] = maxCI
		s["detail_fraction"] = frac / float64(n)
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
