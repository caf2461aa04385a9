package bench

import (
	"fmt"

	"gsdram/internal/imdb"
	"gsdram/internal/sample"
	"gsdram/internal/stats"
)

// Fig9Result holds Figure 9: execution time of the transaction workload
// per mix and layout.
type Fig9Result struct {
	Opts  Options
	Mixes []imdb.TxnMix
	Runs  map[imdb.Layout][]RunMetrics // indexed like Mixes
	// Sampled holds the per-run estimates when the experiment ran under
	// interval sampling (Options.Sample); nil otherwise.
	Sampled map[imdb.Layout][]*sample.Result
}

// RunFig9 reproduces Figure 9: 10000 transactions per mix, for Row Store,
// Column Store and GS-DRAM.
func RunFig9(opts Options) (*Fig9Result, error) {
	res := &Fig9Result{Opts: opts, Mixes: imdb.Figure9Mixes, Runs: map[imdb.Layout][]RunMetrics{}}
	nm := len(res.Mixes)
	runs := make([]RunMetrics, len(layouts)*nm)
	// One job per (layout, mix), in the historical layout-major order. Each
	// job builds its own rig and owns result slot j; the workload seed is
	// opts.Seed for every run so all layouts replay the same transactions.
	ests := make([]*sample.Result, len(runs))
	err := opts.pool().Run(len(runs), func(j int) error {
		layout, mix := layouts[j/nm], res.Mixes[j%nm]
		label := fmt.Sprintf("fig9/%v/%v", layout, mix)
		if opts.Sample != nil {
			label = "" // sampled rigs are untelemetered
		}
		db, err := templateDB(layout, opts.Tuples)
		if err != nil {
			return err
		}
		r, err := opts.newRig(label, opts.memConfig(1))
		if err != nil {
			return err
		}
		var tr imdb.TxnResult
		s, err := db.TransactionStream(mix, opts.Txns, opts.Seed, &tr)
		if err != nil {
			return err
		}
		var m RunMetrics
		if opts.Sample != nil {
			m, ests[j], err = runSampled(sampleConfigFor(*opts.Sample, j), db.Machine(), r, s)
			if err != nil {
				return fmt.Errorf("bench: %v/%v sampled: %w", layout, mix, err)
			}
		} else {
			m = r.run(0, s)
		}
		if tr.Completed != uint64(opts.Txns) {
			return fmt.Errorf("bench: %v/%v completed %d txns, want %d", layout, mix, tr.Completed, opts.Txns)
		}
		runs[j] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, layout := range layouts {
		res.Runs[layout] = runs[li*nm : (li+1)*nm : (li+1)*nm]
	}
	if opts.Sample != nil {
		res.Sampled = map[imdb.Layout][]*sample.Result{}
		for li, layout := range layouts {
			res.Sampled[layout] = ests[li*nm : (li+1)*nm : (li+1)*nm]
		}
	}
	return res, nil
}

// SampledEntries flattens the sampled estimates in the fixed
// (layout-major) run order; empty when the experiment ran in full
// detail.
func (r *Fig9Result) SampledEntries() []SampledEntry {
	var es []SampledEntry
	for _, l := range layouts {
		for i, est := range r.Sampled[l] {
			es = append(es, SampledEntry{Run: fmt.Sprintf("fig9/%v/%v", l, r.Mixes[i]), Result: est})
		}
	}
	return es
}

// SampledTable renders the sampled Figure 9 estimates with their
// confidence intervals.
func (r *Fig9Result) SampledTable() *stats.Table {
	conf := 0.95
	if ests := r.Sampled[imdb.GSStore]; len(ests) > 0 && ests[0] != nil {
		conf = ests[0].Confidence
	}
	t := stats.NewTable(
		fmt.Sprintf("Figure 9 (sampled): %d txns, %d tuples (estimated Mcycles ± relative CI at %g%% confidence)",
			r.Opts.Txns, r.Opts.Tuples, conf*100),
		"mix (RO-WO-RW)", "Row Store", "Column Store", "GS-DRAM", "Col/GS ratio", "windows", "detail %")
	if r.Sampled == nil {
		return t
	}
	for i, mix := range r.Mixes {
		cell := func(l imdb.Layout) string {
			est := r.Sampled[l][i]
			return fmt.Sprintf("%s ±%.1f%%", stats.Mcycles(est.Cycles), est.RelCI()*100)
		}
		col, gs := r.Sampled[imdb.ColumnStore][i], r.Sampled[imdb.GSStore][i]
		t.Add(mix.String(), cell(imdb.RowStore), cell(imdb.ColumnStore), cell(imdb.GSStore),
			stats.Ratio(float64(col.Cycles), float64(gs.Cycles)),
			fmt.Sprint(gs.Windows),
			fmt.Sprintf("%.1f", gs.SampledFraction()*100))
	}
	return t
}

// Table renders the Figure 9 series (execution time in million cycles).
func (r *Fig9Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 9: transaction workload, %d txns, %d tuples (execution time, Mcycles)", r.Opts.Txns, r.Opts.Tuples),
		"mix (RO-WO-RW)", "Row Store", "Column Store", "GS-DRAM", "Col/GS ratio")
	for i, mix := range r.Mixes {
		row := r.Runs[imdb.RowStore][i].Cycles
		col := r.Runs[imdb.ColumnStore][i].Cycles
		gs := r.Runs[imdb.GSStore][i].Cycles
		t.Add(mix.String(), stats.Mcycles(row), stats.Mcycles(col), stats.Mcycles(gs),
			stats.Ratio(float64(col), float64(gs)))
	}
	return t
}

// AvgCycles returns the mean cycles per layout across mixes.
func (r *Fig9Result) AvgCycles(l imdb.Layout) float64 {
	var sum float64
	for _, m := range r.Runs[l] {
		sum += float64(m.Cycles)
	}
	return sum / float64(len(r.Runs[l]))
}

// AvgEnergy returns the mean total energy (mJ) per layout across mixes.
func (r *Fig9Result) AvgEnergy(l imdb.Layout) float64 {
	var sum float64
	for _, m := range r.Runs[l] {
		sum += m.Energy.TotalMJ()
	}
	return sum / float64(len(r.Runs[l]))
}

// Fig10Point identifies one analytics configuration.
type Fig10Point struct {
	Columns  int // 1 or 2
	Prefetch bool
}

// Fig10Result holds Figure 10: analytics execution time.
type Fig10Result struct {
	Opts   Options
	Points []Fig10Point
	Runs   map[imdb.Layout][]RunMetrics
	// Sampled holds the per-run estimates when the experiment ran under
	// interval sampling (Options.Sample); nil otherwise.
	Sampled map[imdb.Layout][]*sample.Result
}

// RunFig10 reproduces Figure 10: sum of 1 or 2 columns, without and with
// prefetching, for the three layouts.
func RunFig10(opts Options) (*Fig10Result, error) {
	res := &Fig10Result{
		Opts: opts,
		Points: []Fig10Point{
			{1, false}, {2, false}, {1, true}, {2, true},
		},
		Runs: map[imdb.Layout][]RunMetrics{},
	}
	np := len(res.Points)
	runs := make([]RunMetrics, len(layouts)*np)
	ests := make([]*sample.Result, len(runs))
	err := opts.pool().Run(len(runs), func(j int) error {
		layout, pt := layouts[j/np], res.Points[j%np]
		label := fmt.Sprintf("fig10/%v/%dcol/prefetch=%v", layout, pt.Columns, pt.Prefetch)
		if opts.Sample != nil {
			label = ""
		}
		db, err := templateDB(layout, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := opts.memConfig(1)
		cfg.EnablePrefetch = pt.Prefetch
		r, err := opts.newRig(label, cfg)
		if err != nil {
			return err
		}
		columns := []int{0}
		if pt.Columns == 2 {
			columns = []int{0, 1}
		}
		var ar imdb.AnalyticsResult
		s, err := db.AnalyticsStream(columns, &ar)
		if err != nil {
			return err
		}
		var m RunMetrics
		if opts.Sample != nil {
			m, ests[j], err = runSampled(sampleConfigFor(*opts.Sample, j), db.Machine(), r, s)
			if err != nil {
				return fmt.Errorf("bench: fig10 %v sampled: %w", layout, err)
			}
		} else {
			m = r.run(0, s)
		}
		checkSums(&ar, opts.Tuples, columns)
		runs[j] = m
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, layout := range layouts {
		res.Runs[layout] = runs[li*np : (li+1)*np : (li+1)*np]
	}
	if opts.Sample != nil {
		res.Sampled = map[imdb.Layout][]*sample.Result{}
		for li, layout := range layouts {
			res.Sampled[layout] = ests[li*np : (li+1)*np : (li+1)*np]
		}
	}
	return res, nil
}

// SampledEntries flattens the sampled estimates in the fixed run order;
// empty when the experiment ran in full detail.
func (r *Fig10Result) SampledEntries() []SampledEntry {
	var es []SampledEntry
	for _, l := range layouts {
		for i, est := range r.Sampled[l] {
			pt := r.Points[i]
			es = append(es, SampledEntry{
				Run:    fmt.Sprintf("fig10/%v/%dcol/prefetch=%v", l, pt.Columns, pt.Prefetch),
				Result: est,
			})
		}
	}
	return es
}

// Table renders the Figure 10 series.
func (r *Fig10Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 10: analytics workload, %d tuples (execution time, Mcycles)", r.Opts.Tuples),
		"query", "Row Store", "Column Store", "GS-DRAM", "Row/GS ratio", "lines fetched (Row/Col/GS)")
	for i, pt := range r.Points {
		label := fmt.Sprintf("%d column(s), prefetch=%v", pt.Columns, pt.Prefetch)
		row := r.Runs[imdb.RowStore][i]
		col := r.Runs[imdb.ColumnStore][i]
		gs := r.Runs[imdb.GSStore][i]
		t.Add(label, stats.Mcycles(row.Cycles), stats.Mcycles(col.Cycles), stats.Mcycles(gs.Cycles),
			stats.Ratio(float64(row.Cycles), float64(gs.Cycles)),
			fmt.Sprintf("%d / %d / %d", row.Ctrl.ReadsServed, col.Ctrl.ReadsServed, gs.Ctrl.ReadsServed))
	}
	return t
}

// avgOver averages cycles or energy over the points selected by keep.
func (r *Fig10Result) avgOver(l imdb.Layout, keep func(Fig10Point) bool, energy bool) float64 {
	var sum float64
	n := 0
	for i, pt := range r.Points {
		if !keep(pt) {
			continue
		}
		if energy {
			sum += r.Runs[l][i].Energy.TotalMJ()
		} else {
			sum += float64(r.Runs[l][i].Cycles)
		}
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgCycles averages analytics cycles with the given prefetch setting.
func (r *Fig10Result) AvgCycles(l imdb.Layout, prefetch bool) float64 {
	return r.avgOver(l, func(p Fig10Point) bool { return p.Prefetch == prefetch }, false)
}

// AvgEnergy averages analytics energy with the given prefetch setting.
func (r *Fig10Result) AvgEnergy(l imdb.Layout, prefetch bool) float64 {
	return r.avgOver(l, func(p Fig10Point) bool { return p.Prefetch == prefetch }, true)
}

// Fig11Result holds Figure 11: HTAP analytics time and transaction
// throughput, without and with prefetching.
type Fig11Result struct {
	Opts Options
	// Indexed by prefetch (0 = off, 1 = on), then layout.
	AnalyticsCycles map[imdb.Layout][2]uint64
	TxnThroughput   map[imdb.Layout][2]float64 // transactions per second
}

// RunFig11 reproduces Figure 11: one analytics thread (sum of one column)
// and one transaction thread (1 read-only + 1 write-only field) run
// concurrently on two cores sharing the L2 and memory controller; the
// transaction thread runs until the analytics query completes.
func RunFig11(opts Options) (*Fig11Result, error) {
	res := &Fig11Result{
		Opts:            opts,
		AnalyticsCycles: map[imdb.Layout][2]uint64{},
		TxnThroughput:   map[imdb.Layout][2]float64{},
	}
	type htapRun struct {
		cycles     uint64
		throughput float64
	}
	runs := make([]htapRun, len(layouts)*2)
	err := opts.pool().Run(len(runs), func(j int) error {
		layout, prefetch := layouts[j/2], j%2 == 1
		db, err := templateDB(layout, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := opts.memConfig(2)
		cfg.EnablePrefetch = prefetch
		r, err := opts.newRig(fmt.Sprintf("fig11/%v/prefetch=%v", layout, prefetch), cfg)
		if err != nil {
			return err
		}
		var ar imdb.AnalyticsResult
		as, err := db.AnalyticsStream([]int{0}, &ar)
		if err != nil {
			return err
		}
		var tr imdb.TxnResult
		ts, err := db.TransactionStream(imdb.TxnMix{RO: 1, WO: 1}, 0 /* unbounded */, opts.Seed, &tr)
		if err != nil {
			return err
		}
		analyticsDone := r.runHTAP(as, ts)

		// The analytics thread mutates nothing, so the column sum must
		// still be exact even with concurrent writers to other fields:
		// the transaction mix writes one random field, which may be
		// column 0, so only check when it cannot be.
		_ = ar

		seconds := float64(analyticsDone) / 4e9
		runs[j] = htapRun{
			cycles:     uint64(analyticsDone),
			throughput: float64(tr.Completed) / seconds,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, layout := range layouts {
		var ac [2]uint64
		var tp [2]float64
		for pi := 0; pi < 2; pi++ {
			ac[pi] = runs[li*2+pi].cycles
			tp[pi] = runs[li*2+pi].throughput
		}
		res.AnalyticsCycles[layout] = ac
		res.TxnThroughput[layout] = tp
	}
	return res, nil
}

// AnalyticsTable renders Figure 11a.
func (r *Fig11Result) AnalyticsTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Figure 11a: HTAP analytics performance, %d tuples (Mcycles)", r.Opts.Tuples),
		"layout", "w/o prefetch", "with prefetch")
	for _, l := range layouts {
		t.Add(l.String(), stats.Mcycles(r.AnalyticsCycles[l][0]), stats.Mcycles(r.AnalyticsCycles[l][1]))
	}
	return t
}

// ThroughputTable renders Figure 11b.
func (r *Fig11Result) ThroughputTable() *stats.Table {
	t := stats.NewTable(
		"Figure 11b: HTAP transaction throughput (millions/sec)",
		"layout", "w/o prefetch", "with prefetch")
	for _, l := range layouts {
		t.Add(l.String(),
			fmt.Sprintf("%.2f", r.TxnThroughput[l][0]/1e6),
			fmt.Sprintf("%.2f", r.TxnThroughput[l][1]/1e6))
	}
	return t
}

// Fig12Result summarises performance and energy (Figure 12) from the
// Figure 9 and Figure 10 results.
type Fig12Result struct {
	Fig9  *Fig9Result
	Fig10 *Fig10Result
}

// RunFig12 reproduces Figure 12 by averaging the transaction workload
// (Figure 9) and the analytics workload with prefetching (Figure 10).
func RunFig12(opts Options) (*Fig12Result, error) {
	f9, err := RunFig9(opts)
	if err != nil {
		return nil, err
	}
	f10, err := RunFig10(opts)
	if err != nil {
		return nil, err
	}
	return &Fig12Result{Fig9: f9, Fig10: f10}, nil
}

// PerfTable renders Figure 12a (average execution time).
func (r *Fig12Result) PerfTable() *stats.Table {
	t := stats.NewTable(
		"Figure 12a: average performance (Mcycles)",
		"workload", "Row Store", "Column Store", "GS-DRAM")
	t.Add("Transactions",
		stats.Mcycles(uint64(r.Fig9.AvgCycles(imdb.RowStore))),
		stats.Mcycles(uint64(r.Fig9.AvgCycles(imdb.ColumnStore))),
		stats.Mcycles(uint64(r.Fig9.AvgCycles(imdb.GSStore))))
	t.Add("Analytics (prefetch)",
		stats.Mcycles(uint64(r.Fig10.AvgCycles(imdb.RowStore, true))),
		stats.Mcycles(uint64(r.Fig10.AvgCycles(imdb.ColumnStore, true))),
		stats.Mcycles(uint64(r.Fig10.AvgCycles(imdb.GSStore, true))))
	return t
}

// EnergyTable renders Figure 12b (average energy).
func (r *Fig12Result) EnergyTable() *stats.Table {
	t := stats.NewTable(
		"Figure 12b: average energy (mJ)",
		"workload", "Row Store", "Column Store", "GS-DRAM")
	t.Addf("Transactions",
		r.Fig9.AvgEnergy(imdb.RowStore),
		r.Fig9.AvgEnergy(imdb.ColumnStore),
		r.Fig9.AvgEnergy(imdb.GSStore))
	t.Addf("Analytics (prefetch)",
		r.Fig10.AvgEnergy(imdb.RowStore, true),
		r.Fig10.AvgEnergy(imdb.ColumnStore, true),
		r.Fig10.AvgEnergy(imdb.GSStore, true))
	t.Addf("Analytics (no prefetch)",
		r.Fig10.AvgEnergy(imdb.RowStore, false),
		r.Fig10.AvgEnergy(imdb.ColumnStore, false),
		r.Fig10.AvgEnergy(imdb.GSStore, false))
	return t
}

// EnergyBreakdownTable splits the prefetched-analytics energy into DRAM
// and processor components per layout — the DRAMPower-vs-McPAT split the
// paper's §5.1 energy discussion draws on.
func (r *Fig12Result) EnergyBreakdownTable() *stats.Table {
	t := stats.NewTable(
		"Figure 12b detail: analytics (prefetch) energy breakdown (mJ)",
		"layout", "DRAM commands", "DRAM background+refresh", "CPU dynamic", "CPU static", "total")
	// Point 2 of Fig10 runs is {1 column, prefetch}; average 1 and 2
	// column points for each layout.
	for _, l := range layouts {
		var cmd, bg, dyn, st, tot float64
		n := 0
		for i, pt := range r.Fig10.Points {
			if !pt.Prefetch {
				continue
			}
			e := r.Fig10.Runs[l][i].Energy
			cmd += e.DRAMCommandMJ
			bg += e.DRAMBackgroundMJ + e.DRAMRefreshMJ
			dyn += e.CPUDynamicMJ
			st += e.CPUStaticMJ
			tot += e.TotalMJ()
			n++
		}
		f := float64(n)
		t.Addf(l.String(), cmd/f, bg/f, dyn/f, st/f, tot/f)
	}
	return t
}
