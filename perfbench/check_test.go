package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"regexp"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"
)

// The benchmark's self-tests: a perturbed reference must be caught, the
// seed mapping must be stable, and layer attribution must account for
// every profile sample. Run with: cd perfbench && go test .

func testChecker(t *testing.T, name string, seed uint64) (*workload, *checker) {
	t.Helper()
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newChecker(ref, w, ref.workloadSeed(w, seed), "../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	return w, c
}

func copyRefs(m map[string]expRef) map[string]expRef {
	out := map[string]expRef{}
	for k, v := range m {
		v.Cycles = append([]uint64(nil), v.Cycles...)
		out[k] = v
	}
	return out
}

func TestPerturbedReferenceIsCaught(t *testing.T) {
	w, c := testChecker(t, "txn", 1)
	p := runPass(w, 1, 2, false, false)
	if p.err != nil {
		t.Fatal(p.err)
	}
	attempted, failed, probs := c.checkOutcomes(p.outcomes)
	if attempted != 24 || failed != 0 {
		t.Fatalf("unperturbed reference: %d of %d runs failed: %v", failed, attempted, probs)
	}

	orig := c.refs
	c.refs = copyRefs(orig)
	r := c.refs["fig9"]
	r.Cycles[5]++
	c.refs["fig9"] = r
	if _, failed, _ := c.checkOutcomes(p.outcomes); failed != 1 {
		t.Errorf("one perturbed run cycle count: %d runs failed, want 1", failed)
	}

	c.refs = copyRefs(orig)
	r = c.refs["fig9"]
	r.Digest = "0" + r.Digest[1:]
	c.refs["fig9"] = r
	if _, failed, _ := c.checkOutcomes(p.outcomes); failed != 24 {
		t.Errorf("perturbed record digest: %d runs failed, want 24", failed)
	}

	// A pass that errors counts as failed.
	tl := &tally{chk: c}
	tl.check(pass{err: fmt.Errorf("boom")})
	if tl.failed != 1 || tl.attempted != 1 {
		t.Errorf("errored pass: %d of %d failed, want 1 of 1", tl.failed, tl.attempted)
	}
}

func TestPerturbedBenchSeedIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole ci-suite")
	}
	w, c := testChecker(t, "ci-suite", 42)
	p := runPass(w, ciSeed, 2, true, false)
	if p.err != nil {
		t.Fatal(p.err)
	}
	_, failed, probs := c.checkOutcomes(p.outcomes)
	if failed != 0 {
		t.Fatalf("BENCH_seed.json: %d runs failed: %v", failed, probs)
	}

	// Bump one telemetered run's end cycle in BENCH_seed.json.
	_, c = testChecker(t, "ci-suite", 42)
	re := regexp.MustCompile(`"end_cycle": (\d+)`)
	raw := c.seedDoc["hashjoin"]
	m := re.FindSubmatchIndex(raw)
	if m == nil {
		t.Fatal("no end_cycle in the hashjoin record")
	}
	n, err := strconv.ParseUint(string(raw[m[2]:m[3]]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.seedDoc["hashjoin"] = append(append(append([]byte(nil), raw[:m[2]]...), strconv.FormatUint(n+1, 10)...), raw[m[3]:]...)
	if _, failed, _ := c.checkOutcomes(p.outcomes); failed != 3 {
		t.Errorf("perturbed BENCH_seed.json end cycle: %d runs failed, want hashjoin's 3", failed)
	}

	// Bump one result cycle count of an experiment without telemetry.
	_, c = testChecker(t, "ci-suite", 42)
	raw = c.seedDoc["graph"]
	re = regexp.MustCompile(`"PageRank": \[\s*(\d+)`)
	if m = re.FindSubmatchIndex(raw); m == nil {
		t.Fatal("no PageRank cycles in the graph record")
	}
	n, err = strconv.ParseUint(string(raw[m[2]:m[3]]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	c.seedDoc["graph"] = append(append(append([]byte(nil), raw[:m[2]]...), strconv.FormatUint(n+1, 10)...), raw[m[3]:]...)
	if _, failed, _ := c.checkOutcomes(p.outcomes); failed != 6 {
		t.Errorf("perturbed BENCH_seed.json graph cycles: %d runs failed, want graph's 6", failed)
	}
}

func TestWorkloadSeed(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := lookupWorkload("txn")
	ci, _ := lookupWorkload("ci-suite")
	if got := ref.workloadSeed(txn, 3); got != 3 {
		t.Errorf("tuning seed 3 maps to %d", got)
	}
	if got := ref.workloadSeed(txn, ref.HeldOutSeed); got != ref.HeldOutSeed {
		t.Errorf("held-out seed maps to %d", got)
	}
	for s := uint64(0); s < 1000; s++ {
		got := ref.workloadSeed(txn, s)
		if got == ref.HeldOutSeed && s != ref.HeldOutSeed {
			t.Fatalf("--seed %d reaches the held-out seed", s)
		}
		if got != ref.workloadSeed(txn, s) {
			t.Fatalf("--seed %d maps unstably", s)
		}
		if _, ok := ref.Workloads["txn"][strconv.FormatUint(got, 10)]; !ok {
			t.Fatalf("--seed %d maps to %d, which has no reference", s, got)
		}
	}
	if got := ref.workloadSeed(ci, 5); got != ciSeed {
		t.Errorf("ci-suite seed %d, want %d", got, ciSeed)
	}
	for _, name := range []string{"txn", "pagerank", "gather"} {
		if _, ok := ref.Workloads[name][strconv.FormatUint(ref.HeldOutSeed, 10)]; !ok {
			t.Errorf("%s has no held-out reference", name)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gsdram/internal/sim.(*EventQueue).Step":              "sim",
		"container/heap.Push":                                 "sim",
		"gsdram/internal/graph.(*Graph).PageRankStream.func1": "graph",
		"gsdram/internal/prefetch.(*Stream).Train":            "cache",
		"gsdram/internal/addrmap.Spec.Decompose":              "machine",
		"encoding/json.(*encodeState).marshal":                "telemetry",
		"gsdram/internal/fastsim.Exec":                        "sample",
		"runtime.mallocgc":                                    "runtime",
		"runtime/pprof.(*profMap).lookup":                     "runtime",
		"internal/runtime/atomic.(*Uint32).Load":              "runtime",
		"gsdram/internal/bench.runStreamsSB":                  "other",
		"slices.SortFunc[go.shape.[]gsdram/internal/x.T]":     "other",
		"": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for _, l := range layerOfPackage {
		found := false
		for _, x := range layers {
			found = found || x == l
		}
		if !found {
			t.Errorf("table maps to unreported layer %q", l)
		}
	}
}

func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("profiler busy:", err)
	}
	pprof.Do(context.Background(), pprof.Labels("exp", "spin"), func(context.Context) {
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			sink++
		}
	})
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	lt := layerTime{}
	lt.add(samples)
	if len(lt["spin"]) == 0 {
		t.Error("no sample carries the exp label")
	}
	var sum float64
	for _, f := range lt.selfFrac() {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("self_frac sums to %v", sum)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if _, med, _ := quartiles([]float64{3}); med != 3 {
		t.Errorf("median of one value = %v", med)
	}
}
