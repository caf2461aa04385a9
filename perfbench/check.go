package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"

	"gsdram/internal/bench"
	"gsdram/internal/imdb"
	"gsdram/internal/spec"
)

// The output check. Every simulated run's cycles, and digests of each
// experiment's whole document record (every counter and functional
// checksum in it, and its telemetry series when captured), are compared
// exactly against a reference:
//
//   - ci-suite: BENCH_seed.json, for every experiment that simulates.
//     table1, fig7 and ablation simulate nothing (they render tables), so
//     they are checked against reference.json like the other workloads.
//   - txn, pagerank, gather: reference.json, keyed by workload seed.
//
// A run fails when its cycles differ, when its experiment's digest
// differs, or when its experiment returned an error.

//go:embed reference.json
var referenceJSON []byte

// expRef is the reference for one experiment of one pass.
type expRef struct {
	Cycles []uint64 `json:"cycles"`
	// Digest covers the record without its telemetry section, which a
	// captured pass adds; Telemetry covers that section, when the
	// reference run captured.
	Digest    string `json:"digest"`
	Telemetry string `json:"telemetry,omitempty"`
}

// referenceFile is reference.json.
type referenceFile struct {
	// TuningSeeds are the workload seeds --seed maps onto; HeldOutSeed is
	// run only when asked for by value, so a claim made while tuning on
	// the others can be rechecked on inputs it was not fitted to.
	TuningSeeds []uint64 `json:"tuning_seeds"`
	HeldOutSeed uint64   `json:"held_out_seed"`
	// Workloads maps workload → seed → experiment → reference.
	Workloads map[string]map[string]map[string]expRef `json:"workloads"`
}

func loadReference() (*referenceFile, error) {
	var r referenceFile
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	if len(r.TuningSeeds) == 0 {
		return nil, fmt.Errorf("reference.json: no tuning seeds")
	}
	return &r, nil
}

// workloadSeed maps --seed onto the seed the inputs are generated from:
// a seed the reference holds is used as is (the held-out seed included);
// any other picks a tuning seed by remainder, so every --seed has a
// reference and equal --seed values give equal inputs.
func (r *referenceFile) workloadSeed(w *workload, seed uint64) uint64 {
	if w.baseline {
		return ciSeed
	}
	if _, ok := r.Workloads[w.name][strconv.FormatUint(seed, 10)]; ok {
		return seed
	}
	return r.TuningSeeds[seed%uint64(len(r.TuningSeeds))]
}

// checker compares passes against their references.
type checker struct {
	// refs maps experiment → reference for the workload seed in use.
	refs map[string]expRef
	// seedDoc maps experiment → its raw record in BENCH_seed.json; nil
	// outside ci-suite. Converted to an expRef on first use (the result
	// type is only known once a pass has produced one).
	seedDoc map[string]json.RawMessage
}

func newChecker(ref *referenceFile, w *workload, seed uint64, benchSeedPath string) (*checker, error) {
	c := &checker{refs: ref.Workloads[w.name][strconv.FormatUint(seed, 10)]}
	if !w.baseline {
		if c.refs == nil {
			return nil, fmt.Errorf("reference.json has no %s reference for seed %d", w.name, seed)
		}
		return c, nil
	}
	raw, err := os.ReadFile(benchSeedPath)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Experiments []json.RawMessage `json:"experiments"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", benchSeedPath, err)
	}
	c.seedDoc = map[string]json.RawMessage{}
	for _, e := range doc.Experiments {
		var head struct {
			Experiment string `json:"experiment"`
		}
		if err := json.Unmarshal(e, &head); err != nil {
			return nil, fmt.Errorf("%s: %w", benchSeedPath, err)
		}
		c.seedDoc[head.Experiment] = e
	}
	return c, nil
}

// reference returns the reference for one outcome's experiment.
func (c *checker) reference(out *spec.Outcome) (expRef, error) {
	name := out.Spec.Experiment
	if ref, ok := c.refs[name]; ok {
		return ref, nil
	}
	raw, ok := c.seedDoc[name]
	if !ok {
		return expRef{}, fmt.Errorf("no reference for %s", name)
	}
	ref, err := seedRef(raw, out.Result)
	if err != nil {
		return expRef{}, fmt.Errorf("BENCH_seed.json %s: %w", name, err)
	}
	if c.refs == nil {
		c.refs = map[string]expRef{}
	}
	c.refs[name] = ref
	return ref, nil
}

// seedRef derives an experiment's reference from its BENCH_seed.json
// record, decoding the result into the type the experiment returns.
func seedRef(raw json.RawMessage, like any) (expRef, error) {
	d, err := canonicalDigests(raw)
	if err != nil {
		return expRef{}, err
	}
	var rec struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		return expRef{}, err
	}
	t := reflect.TypeOf(like)
	if t == nil || t.Kind() != reflect.Pointer {
		return expRef{}, fmt.Errorf("result type %v has no simulated runs", t)
	}
	v := reflect.New(t.Elem())
	if err := json.Unmarshal(rec.Result, v.Interface()); err != nil {
		return expRef{}, err
	}
	return expRef{Cycles: runCycles(v.Interface()), Digest: d.record, Telemetry: d.telemetry}, nil
}

// checkOutcomes checks one pass. It returns the runs checked (an
// experiment that simulates nothing counts as one) and how many failed,
// with a description of each failure.
func (c *checker) checkOutcomes(outs []*spec.Outcome) (attempted, failed int, problems []string) {
	for _, out := range outs {
		cycles := runCycles(out.Result)
		units := max(len(cycles), 1)
		attempted += units
		ref, err := c.reference(out)
		if err != nil {
			failed += units
			problems = append(problems, err.Error())
			continue
		}
		d, err := recordDigests(out.Record())
		if err != nil {
			failed += units
			problems = append(problems, fmt.Sprintf("%s: %v", out.Spec.Experiment, err))
			continue
		}
		if d.record != ref.Digest {
			failed += units
			problems = append(problems, fmt.Sprintf("%s: record digest %s, reference %s", out.Spec.Experiment, short(d.record), short(ref.Digest)))
			continue
		}
		if d.telemetry != "" && ref.Telemetry != "" && d.telemetry != ref.Telemetry {
			failed += units
			problems = append(problems, fmt.Sprintf("%s: telemetry digest %s, reference %s", out.Spec.Experiment, short(d.telemetry), short(ref.Telemetry)))
			continue
		}
		if len(cycles) != len(ref.Cycles) {
			failed += units
			problems = append(problems, fmt.Sprintf("%s: %d runs, reference has %d", out.Spec.Experiment, len(cycles), len(ref.Cycles)))
			continue
		}
		for i := range cycles {
			if cycles[i] != ref.Cycles[i] {
				failed++
				problems = append(problems, fmt.Sprintf("%s run %d: %d cycles, reference %d", out.Spec.Experiment, i, cycles[i], ref.Cycles[i]))
			}
		}
	}
	return attempted, failed, problems
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// digests identifies an experiment's document record: record covers
// everything but the telemetry section, telemetry that section ("" when
// the pass did not capture).
type digests struct{ record, telemetry string }

// recordDigests digests an experiment's document record.
func recordDigests(rec spec.Record) (digests, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return digests{}, err
	}
	return canonicalDigests(raw)
}

// canonicalDigests hashes a record's JSON with map keys sorted and
// numbers kept as written, minus the fields that describe how the run
// was executed rather than what it computed: wall_ns and the runners'
// echoed Options (worker count, capture handle).
func canonicalDigests(raw []byte) (digests, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		return digests{}, err
	}
	dropKeys(rec, "wall_ns", "Opts")
	var d digests
	var err error
	if tel, ok := rec["telemetry"]; ok {
		delete(rec, "telemetry")
		if d.telemetry, err = sha(tel); err != nil {
			return digests{}, err
		}
	}
	d.record, err = sha(rec)
	return d, err
}

func sha(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

func dropKeys(v any, keys ...string) any {
	switch x := v.(type) {
	case map[string]any:
		for _, k := range keys {
			delete(x, k)
		}
		for k, e := range x {
			x[k] = dropKeys(e, keys...)
		}
	case []any:
		for i, e := range x {
			x[i] = dropKeys(e, keys...)
		}
	}
	return v
}

// runCycles lists the simulated cycles of every run an experiment result
// reports, in a fixed order. Results that simulate nothing (rendered
// tables) yield none. Sampled Figure 9 runs report their extrapolated
// cycles.
func runCycles(result any) []uint64 {
	layouts := []imdb.Layout{imdb.RowStore, imdb.ColumnStore, imdb.GSStore}
	var out []uint64
	switch r := result.(type) {
	case *bench.Fig9Result:
		for _, l := range layouts {
			for _, m := range r.Runs[l] {
				out = append(out, m.Cycles)
			}
		}
	case *bench.Fig10Result:
		for _, l := range layouts {
			for _, m := range r.Runs[l] {
				out = append(out, m.Cycles)
			}
		}
	case *bench.Fig11Result:
		for _, l := range layouts {
			c := r.AnalyticsCycles[l]
			out = append(out, c[:]...)
		}
	case *bench.Fig12Result:
		out = append(runCycles(r.Fig9), runCycles(r.Fig10)...)
	case *bench.Fig13Result:
		sizes := append([]int(nil), r.Sizes...)
		sort.Ints(sizes)
		for _, n := range sizes {
			for _, g := range r.Results[n] {
				out = append(out, g.Stats.Cycles)
			}
		}
	case *bench.KVResult:
		out = append(out, r.LookupCycle[:]...)
	case *bench.GraphResult:
		out = append(append(out, r.PageRank[:]...), r.Update[:]...)
	case *bench.ChannelsResult:
		out = append(out, r.Cycles[:]...)
	case *bench.ImpulseResult:
		out = append(out, r.Cycles[:]...)
	case *bench.PatternSweepResult:
		out = append(out, r.Cycles[:]...)
	case *bench.StoreBufferResult:
		for _, l := range layouts {
			c := r.Cycles[l]
			out = append(out, c[:]...)
		}
	case *bench.AutoGatherResult:
		out = append(out, r.Cycles[:]...)
	case *bench.SchedulerAblationResult:
		for _, c := range r.Cycles {
			out = append(out, c[:]...)
		}
	case *bench.PixelsResult:
		out = append(append(out, r.HistCycles[:]...), r.ShadeCycles[:]...)
	case *bench.IndexedResult:
		out = append(out, r.Cycles[:]...)
	}
	return out
}

// sumCycles totals the simulated cycles of a pass.
func sumCycles(outs []*spec.Outcome) float64 {
	var total float64
	for _, out := range outs {
		for _, c := range runCycles(out.Result) {
			total += float64(c)
		}
	}
	return total
}

// passReference records a pass as the reference for its seed.
func passReference(outs []*spec.Outcome) (map[string]expRef, error) {
	refs := map[string]expRef{}
	for _, out := range outs {
		d, err := recordDigests(out.Record())
		if err != nil {
			return nil, err
		}
		refs[out.Spec.Experiment] = expRef{Cycles: runCycles(out.Result), Digest: d.record, Telemetry: d.telemetry}
	}
	return refs, nil
}
