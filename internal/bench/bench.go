// Package bench contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (§5): Table 1 (system
// configuration), Figure 7 (gather map), Figure 9 (transactions),
// Figure 10 (analytics), Figure 11 (HTAP), Figure 12 (performance/energy
// summary), Figure 13 (GEMM), plus the §5.3 key-value workload and the
// §3.2 shuffling ablation.
//
// Each runner returns structured results plus a rendered text table, so
// both cmd/gsbench and the Go benchmarks share one implementation.
package bench

import (
	"fmt"
	"sync"

	"gsdram/internal/cpu"
	"gsdram/internal/energy"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/runner"
	"gsdram/internal/sample"
)

// SimVersion names the simulator's semantic version. It participates in
// the experiment-spec code fingerprint (internal/spec), which keys the
// on-disk result cache: bump it whenever a change alters simulation
// results (timing model, coherence, workload generation, document
// schema), so cached documents from older semantics can never be
// returned for new requests. Builds stamped with VCS info additionally
// mix the commit revision into the fingerprint.
const SimVersion = "gsdram-sim/2"

// Options scales the experiments. The zero value is unusable; start from
// DefaultOptions.
type Options struct {
	// Tuples is the database table size. The paper uses 1048576 (a 64 MB
	// table); the default is 131072 (8 MB) so the full suite runs in
	// minutes. Shapes are table-size independent once the table exceeds
	// the L2.
	Tuples int
	// Txns is the number of transactions per Figure 9 run (paper: 10000).
	Txns int
	// GemmSizes are the matrix dimensions for Figure 13 (paper: 32-1024).
	GemmSizes []int
	// Seed drives all workload randomness.
	Seed uint64
	// Workers is the number of concurrent simulation runs per experiment.
	// Zero selects runtime.GOMAXPROCS(0); 1 reproduces the historical
	// serial execution order bit-for-bit. Every worker count produces
	// identical results: runs are independent rigs whose seeds depend only
	// on the run index (see internal/runner).
	Workers int
	// Sample, when non-nil, switches the runners that support it (Figure
	// 9, Figure 10, the pattern sweep) to interval sampling
	// (internal/sample): each run's Cycles and Energy become the sampled
	// extrapolation, and the result carries the per-run estimates with
	// their confidence intervals. Sampled runs are untelemetered. The
	// per-run placement seed is derived from Sample.Seed and the run
	// index, so results stay identical at any worker count.
	Sample *sample.Config
	// Capture, when non-nil, enables telemetry capture for this batch's
	// labelled runs: every labelled rig records its metrics registry,
	// epoch series, and DRAM/stall traces into the capture, drained with
	// Capture.Drain after the runner returns. Capture is per-batch state
	// (never serialized, never part of a spec hash); concurrent batches
	// with independent captures do not serialize on any global switch.
	// Telemetry observes without mutating — results are bit-identical
	// with capture on or off.
	Capture *Capture
	// NoInline disables every core's event-horizon fast path (see
	// internal/cpu): each op then schedules through the event queue,
	// exactly reproducing the pure event-driven execution. It backs the
	// gsbench -noinline escape hatch and the equivalence tests; results
	// are bit-identical either way. Sampled runs fast-forward through
	// their own core and ignore it.
	NoInline bool `json:",omitempty"`
	// L2Latency, when non-zero, overrides the model's L2 hit latency in
	// CPU cycles for every rig of the batch. It is an ablation knob for
	// regression-forensics testing: perturbing one latency stage on
	// purpose gives `gsbench explain` a known-cause delta to attribute.
	L2Latency uint64 `json:",omitempty"`
}

// pool returns the worker pool the experiment's runs are submitted to.
func (o Options) pool() runner.Pool { return runner.Pool{Workers: o.Workers} }

// DefaultOptions returns the default experiment scale.
func DefaultOptions() Options {
	return Options{
		Tuples:    131072,
		Txns:      10000,
		GemmSizes: []int{32, 64, 128, 256},
		Seed:      42,
	}
}

// Validate reports whether the options describe a runnable experiment
// scale; the CLI flag layer and the spec layer (internal/spec) both
// defer to it so they cannot drift.
func (o Options) Validate() error {
	if o.Tuples <= 0 {
		return fmt.Errorf("tuples must be positive, got %d", o.Tuples)
	}
	if o.Txns <= 0 {
		return fmt.Errorf("txns must be positive, got %d", o.Txns)
	}
	if len(o.GemmSizes) == 0 {
		return fmt.Errorf("at least one GEMM size is required")
	}
	for _, n := range o.GemmSizes {
		if n <= 0 {
			return fmt.Errorf("GEMM sizes must be positive, got %d", n)
		}
	}
	if o.Workers < 0 {
		return fmt.Errorf("workers must be >= 0, got %d", o.Workers)
	}
	if s := o.Sample; s != nil && s.Interval <= s.Warmup+s.Measure {
		return fmt.Errorf("sample interval (%d) must exceed warmup + measure (%d)",
			s.Interval, s.Warmup+s.Measure)
	}
	return nil
}

// QuickOptions returns a reduced scale for unit tests and -short runs.
func QuickOptions() Options {
	return Options{
		Tuples:    8192,
		Txns:      500,
		GemmSizes: []int{32, 64},
		Seed:      42,
	}
}

// RunMetrics captures one simulated run of the event-driven system.
type RunMetrics struct {
	Cycles    uint64 // runtime of the measured core(s)
	CoreStats []cpu.Stats
	Mem       memsys.Stats
	Ctrl      memctrl.Stats
	Energy    energy.Report
}

// rigTemplates caches one populated machine+DB per (layout, tuples):
// population is deterministic, so every run with the same key starts from
// bit-identical state whether it clones the template or rebuilds from
// scratch, and cloning row data is far cheaper than re-running the
// per-line functional writes. The cache is shared across experiments and
// guarded for the concurrent worker pool.
var rigTemplates struct {
	sync.Mutex
	m map[rigKey]*imdb.DB
}

type rigKey struct {
	layout imdb.Layout
	tuples int
}

// templateDB returns a clone of the populated template for (layout,
// tuples), building the template on first use.
func templateDB(layout imdb.Layout, tuples int) (*imdb.DB, error) {
	rigTemplates.Lock()
	defer rigTemplates.Unlock()
	key := rigKey{layout: layout, tuples: tuples}
	tpl := rigTemplates.m[key]
	if tpl == nil {
		mach, err := machine.Default()
		if err != nil {
			return nil, err
		}
		tpl, err = imdb.New(mach, layout, tuples)
		if err != nil {
			return nil, err
		}
		if rigTemplates.m == nil {
			rigTemplates.m = make(map[rigKey]*imdb.DB)
		}
		rigTemplates.m[key] = tpl
	}
	return tpl.Clone(), nil
}

// layouts is the fixed comparison order used by every IMDB figure.
var layouts = []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore}

// checkSum panics if a functional analytics result does not match the
// closed form — every benchmark run double-checks data correctness.
func checkSums(res *imdb.AnalyticsResult, tuples int, columns []int) {
	for i, f := range columns {
		want := imdb.ExpectedColumnSum(tuples, f)
		if res.Sums[i] != want {
			panic(fmt.Sprintf("bench: analytics sum mismatch: column %d = %d, want %d", f, res.Sums[i], want))
		}
	}
}
