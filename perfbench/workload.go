package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"gsdram/internal/gemm"
	"gsdram/internal/graph"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/spec"
	"gsdram/internal/telemetry"
)

// ciEpoch is the telemetry epoch CI's baseline run uses (-epoch 10000000);
// BENCH_seed.json was produced with it, so a captured pass at any other
// epoch would not match it byte for byte.
const ciEpoch = 10_000_000

// ciSeed is the workload seed of BENCH_seed.json.
const ciSeed = 42

// workload is one named input set. A pass runs its registry experiments
// once, through spec.Run, exactly as gsbench builds them.
type workload struct {
	name string
	// baseline marks the run CI gates on and BENCH_seed.json records:
	// its inputs are pinned to that file's seed whatever --seed says,
	// its passes capture telemetry and build the gsbench -json document,
	// and BENCH_seed.json is its reference.
	baseline bool
	// specs returns the experiments one pass runs, in order.
	specs func(seed uint64, workers int) []*spec.Spec
	// setup calls, once each, the public constructors the pass's rigs
	// are built from, at workload scale.
	setup func(seed uint64) error
}

// defaultSpec carries gsbench's default flag values, the scale of the
// txn, pagerank and gather workloads.
func defaultSpec(exp string, seed uint64, workers int) *spec.Spec {
	return &spec.Spec{
		Experiment: exp,
		Tuples:     txnTuples,
		Txns:       defaultTxns,
		GemmSizes:  []int{32, 64, 128, 256},
		KVPairs:    4096,
		Vertices:   graphVertices,
		Degree:     graphDegree,
		Seed:       seed,
		Workers:    workers,
	}
}

// Workload scales.
const (
	txnTuples     = 131072
	defaultTxns   = 10000 // Figure 9 transactions per run; graph updates
	graphVertices = 32768
	graphDegree   = 8
	gatherTuples  = 524288
	gatherProbes  = 40000
	ciTuples      = 8192
	ciVertices    = 8192
)

var workloads = []*workload{
	{
		name: "txn",
		specs: func(seed uint64, workers int) []*spec.Spec {
			return []*spec.Spec{defaultSpec("fig9", seed, workers)}
		},
		setup: func(uint64) error {
			return buildTables(txnTuples, imdb.RowStore, imdb.ColumnStore, imdb.GSStore)
		},
	},
	{
		name: "pagerank",
		specs: func(seed uint64, workers int) []*spec.Spec {
			return []*spec.Spec{defaultSpec("graph", seed, workers)}
		},
		setup: func(seed uint64) error {
			return buildGraphs(graphVertices, graphDegree, seed)
		},
	},
	{
		name: "gather",
		specs: func(seed uint64, workers int) []*spec.Spec {
			var out []*spec.Spec
			for _, exp := range []string{"hashjoin", "spmv"} {
				s := defaultSpec(exp, seed, workers)
				s.Tuples, s.Txns = gatherTuples, gatherProbes
				out = append(out, s)
			}
			return out
		},
		setup: func(seed uint64) error {
			if err := buildTables(gatherTuples, imdb.RowStore, imdb.GSStore); err != nil {
				return err
			}
			// RunSpMV sizes its matrix from the tuple knob: rows =
			// tuples/64 and cols = 8*tuples, 16 non-zeros per row.
			for _, gs := range []bool{false, true} {
				mach, err := machine.Default()
				if err != nil {
					return err
				}
				if _, err := gemm.NewSpMV(mach, gatherTuples/64, gatherTuples*8, 16, seed, gs); err != nil {
					return err
				}
			}
			return nil
		},
	},
	{
		name:     "ci-suite",
		baseline: true,
		specs: func(seed uint64, workers int) []*spec.Spec {
			var out []*spec.Spec
			for _, exp := range spec.Names() {
				s := &spec.Spec{
					Experiment: exp,
					Tuples:     ciTuples,
					Txns:       500,
					GemmSizes:  []int{32, 64},
					KVPairs:    2048,
					Vertices:   ciVertices,
					Degree:     8,
					Seed:       seed,
					Workers:    workers,
				}
				if exp == "fig9sampled" {
					s.Sample = spec.DefaultSample()
				}
				out = append(out, s)
			}
			return out
		},
		setup: func(seed uint64) error {
			if err := buildTables(ciTuples, imdb.RowStore, imdb.ColumnStore, imdb.GSStore); err != nil {
				return err
			}
			return buildGraphs(ciVertices, 8, seed)
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// buildTables builds one populated machine + table per layout: the rig
// templates the bench package caches on first use.
func buildTables(tuples int, layouts ...imdb.Layout) error {
	for _, l := range layouts {
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		if _, err := imdb.New(mach, l, tuples); err != nil {
			return err
		}
	}
	return nil
}

// buildGraphs builds the seeded graph on every vertex layout, as each
// graph run does before it simulates.
func buildGraphs(vertices, degree int, seed uint64) error {
	for _, l := range []graph.Layout{graph.AoS, graph.SoA, graph.GS} {
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		if _, err := graph.NewRandom(mach, l, vertices, degree, seed); err != nil {
			return err
		}
	}
	return nil
}

// pass is one execution of a workload's experiments.
type pass struct {
	wall     time.Duration // host time of the experiments (and document)
	outcomes []*spec.Outcome
	err      error
}

// runPass runs every experiment of the workload once. capture arms
// telemetry; labelled tags each experiment's CPU-profile samples with
// its name (pprof label "exp"), which child goroutines inherit.
func runPass(w *workload, seed uint64, workers int, capture, labelled bool) pass {
	specs := w.specs(seed, workers)
	for _, s := range specs {
		s.Telemetry = capture
		if capture {
			s.Epoch = ciEpoch
		}
	}
	var p pass
	start := time.Now()
	for _, s := range specs {
		var out *spec.Outcome
		var err error
		run := func(context.Context) { out, err = spec.Run(s) }
		if labelled {
			pprof.Do(context.Background(), pprof.Labels("exp", s.Experiment), run)
		} else {
			run(context.Background())
		}
		if err != nil {
			p.err = fmt.Errorf("%s: %w", s.Experiment, err)
			return p
		}
		p.outcomes = append(p.outcomes, out)
	}
	if w.baseline {
		params := specs[0].Params()
		params["exp"] = "all"
		doc := spec.Document{
			Manifest: telemetry.Manifest{
				Tool:      "gsbench",
				GoVersion: runtime.Version(),
				Seed:      seed,
				Workers:   workers,
				Epoch:     specs[0].Epoch,
				Params:    params,
			},
		}
		for _, out := range p.outcomes {
			doc.Experiments = append(doc.Experiments, out.Record())
		}
		if _, err := doc.Marshal(); err != nil {
			p.err = fmt.Errorf("document: %w", err)
			return p
		}
	}
	p.wall = time.Since(start)
	return p
}
