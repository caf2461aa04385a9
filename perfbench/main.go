// Command perfbench is the repository's benchmark: it runs one named
// workload of the GS-DRAM simulator for a fixed host-time budget, checks
// every simulated run against a committed reference, and reports host
// time end to end (--trace 0) or split across the simulator's layers
// (--trace 1). Every timing it reports is host (wall or CPU) time of the
// simulator itself; simulated cycles appear only in the output check and
// as the numerator of sim_cycles_per_s. The simulated machine is not
// validated against real hardware, so no accuracy figure is given.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload txn --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --workload all runs every workload, untraced then traced, each in its
// own process, and prints all their tables. --write-reference FILE
// regenerates reference.json. METRICS.md documents the metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"text/tabwriter"
	"time"

	"gsdram/internal/spec"
)

// Run shape.
const (
	// An untraced run sets up at least setupReps times and keeps going for
	// setupBudget (at most setupMaxReps times); setup_s is the median.
	setupReps    = 5
	setupMaxReps = 50
	setupBudget  = 2 * time.Second
	minPasses    = 3 // timed passes per untraced run, even past --seconds
	minRounds    = 2 // traced rounds per traced run, even past --seconds
	// microBudget is the part of a traced run's --seconds kept for the
	// layer microbenchmarks.
	microBudget = 3 * time.Second
)

// Reference seeds, used by --write-reference.
var (
	tuningSeeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	heldOutSeed = uint64(7919)
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	workers  int
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	var o options
	var writeRef string
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: txn, pagerank, gather, ci-suite, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&o.seconds, "seconds", 15, "host seconds to measure for")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&writeRef, "write-reference", "", "regenerate the reference for every workload seed into FILE and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	// Concurrent simulation runs per experiment, and GOMAXPROCS: two, or
	// one on a single-CPU machine.
	o.workers = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(o.workers)
	var err error
	switch {
	case writeRef != "":
		err = writeReference(writeRef, o.workers)
	case o.workload == "all":
		err = runAll(args)
	default:
		err = measure(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally accumulates the output check over a run.
type tally struct {
	chk       *checker
	attempted int
	failed    int
	problems  []string
}

func (t *tally) check(p pass) {
	if p.err != nil {
		t.attempted++
		t.failed++
		t.problems = append(t.problems, p.err.Error())
		return
	}
	a, f, probs := t.chk.checkOutcomes(p.outcomes)
	t.attempted += a
	t.failed += f
	t.problems = append(t.problems, probs...)
}

// measure runs one workload and prints its tables and result line.
func measure(o options, w io.Writer) error {
	wl, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	seed := ref.workloadSeed(wl, o.seed)
	chk, err := newChecker(ref, wl, seed, "BENCH_seed.json")
	if err != nil {
		return err
	}
	t := &tally{chk: chk}
	fmt.Fprintf(w, "perfbench %s: --seed %d → workload seed %d, %d workers, %s; all times are host time\n",
		wl.name, o.seed, seed, o.workers, runtime.Version())
	var res *result
	if o.trace == 0 {
		res, err = measureEndToEnd(wl, seed, o, t, w)
	} else {
		res, err = measureLayers(wl, seed, o, t, w)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = res.Correct && t.failed == 0
	for i, p := range t.problems {
		if i == 10 {
			fmt.Fprintf(w, "check: … %d more\n", len(t.problems)-i)
			break
		}
		fmt.Fprintln(w, "check:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// measureEndToEnd: set-up, a warm-up pass, then timed passes.
func measureEndToEnd(wl *workload, seed uint64, o options, t *tally, w io.Writer) (*result, error) {
	var setup []float64
	for s0 := time.Now(); len(setup) < setupReps || (len(setup) < setupMaxReps && time.Since(s0) < setupBudget); {
		runtime.GC()
		start := time.Now()
		if err := wl.setup(seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
	}
	runtime.GC()
	// The warm-up pass fills the bench package's rig-template cache
	// (process-global) so the timed passes run at steady speed; this
	// process runs no other workload, so nothing else warms it.
	t.check(runPass(wl, seed, o.workers, wl.baseline, false))
	runtime.GC()

	var walls, rates []float64
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < time.Duration(o.seconds)*time.Second; n++ {
		runtime.GC() // start every pass from the same heap, outside the timing
		p := runPass(wl, seed, o.workers, wl.baseline, false)
		t.check(p)
		if p.err != nil {
			continue
		}
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, sumCycles(p.outcomes)/p.wall.Seconds())
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	failedFrac := 0.0
	if t.attempted > 0 {
		failedFrac = float64(t.failed) / float64(t.attempted)
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "end-to-end (host time; capture", onOff(wl.baseline)+")")
	fmt.Fprintln(tw, "metric\tmedian\tq1\tq3\tsamples\tunit\t")
	row := func(name string, v []float64, unit, samples string) {
		q1, med, q3 := quartiles(v)
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%.4g\t%s\t%s\t\n", name, med, q1, q3, samples, unit)
	}
	row("wall_s", walls, "s", fmt.Sprintf("%d passes", len(walls)))
	row("sim_cycles_per_s", rates, "cycles/s", fmt.Sprintf("%d passes", len(rates)))
	row("setup_s", setup, "s", fmt.Sprintf("%d set-ups", len(setup)))
	fmt.Fprintf(tw, "peak_rss_mb\t%.4g\t\t\t1 process\tMB\t\n", rss)
	fmt.Fprintf(tw, "failed_frac\t%.4g\t\t\t%d runs\tfraction\t\n", failedFrac, t.attempted)
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "pass wall_s in order: %s\n", formatSeries(walls))
	if len(walls) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	return &result{
		Correct: true,
		Metrics: map[string]metric{
			"wall_s":           {median(walls), "s"},
			"sim_cycles_per_s": {median(rates), "cycles/s"},
			"setup_s":          {median(setup), "s"},
			"peak_rss_mb":      {rss, "MB"},
		},
	}, nil
}

// runtimeSample reads the Go runtime counters a pass is charged with.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4]}
}

// measureLayers: a warm-up pass, then rounds of an untraced pass, a
// traced pass (CPU profile on, samples labelled by experiment) and a
// pass with telemetry capture toggled, then the microbenchmarks.
func measureLayers(wl *workload, seed uint64, o options, t *tally, w io.Writer) (*result, error) {
	t.check(runPass(wl, seed, o.workers, wl.baseline, false))
	runtime.GC()

	lt := layerTime{}
	var plain, traced, toggled []float64
	var allocMB, allocs, gcCycles, gcFrac []float64
	// counts holds, per experiment, the simulated work of one pass, read
	// from a captured pass's telemetry.
	counts := map[string]unitCounts{}
	budget := time.Duration(o.seconds)*time.Second - microBudget
	start := time.Now()
	for round := 0; round < minRounds || time.Since(start) < budget; round++ {
		// Rotate the phase order so no phase always runs first.
		for k := 0; k < 3; k++ {
			runtime.GC() // as in untraced runs
			switch (round + k) % 3 {
			case 0:
				before := readRuntime()
				p := runPass(wl, seed, o.workers, wl.baseline, false)
				after := readRuntime()
				t.check(p)
				if p.err != nil {
					continue
				}
				plain = append(plain, p.wall.Seconds())
				allocMB = append(allocMB, (after.allocBytes-before.allocBytes)/(1<<20))
				allocs = append(allocs, after.allocObjects-before.allocObjects)
				gcCycles = append(gcCycles, after.gcCycles-before.gcCycles)
				gcFrac = append(gcFrac, ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU))
				if wl.baseline {
					addCounts(counts, p.outcomes)
				}
			case 1:
				var buf bytes.Buffer
				if err := pprof.StartCPUProfile(&buf); err != nil {
					return nil, err
				}
				p := runPass(wl, seed, o.workers, wl.baseline, true)
				pprof.StopCPUProfile()
				t.check(p)
				if p.err != nil {
					continue
				}
				samples, err := parseCPUProfile(buf.Bytes())
				if err != nil {
					return nil, err
				}
				lt.add(samples)
				traced = append(traced, p.wall.Seconds())
			case 2:
				p := runPass(wl, seed, o.workers, !wl.baseline, false)
				t.check(p)
				if p.err != nil {
					continue
				}
				toggled = append(toggled, p.wall.Seconds())
				if !wl.baseline {
					addCounts(counts, p.outcomes)
				}
			}
		}
	}
	if len(plain) == 0 || len(traced) == 0 || len(toggled) == 0 {
		return nil, fmt.Errorf("no pass completed")
	}
	if wl.name == "pagerank" {
		// The graph experiment builds its rigs without telemetry; replay
		// its runs with a metrics registry to count their work.
		c, err := replayGraph(seed, t)
		if err != nil {
			return nil, err
		}
		counts["graph"] = c
	}
	micro, err := runMicrobenches()
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	frac := lt.selfFrac()
	var sum float64
	for _, l := range layers {
		m[l+".self_frac"] = metric{frac[l], "fraction"}
		sum += frac[l]
	}
	fracOK := sum > 1-1e-9 && sum < 1+1e-9
	if !fracOK {
		t.problems = append(t.problems, fmt.Sprintf("self_frac values sum to %v, not 1", sum))
	}

	counted := map[string]bool{}
	var total unitCounts
	for exp, c := range counts {
		counted[exp] = true
		total = total.plus(c)
	}
	passes := float64(len(traced))
	perUnit := func(layer string, units float64) float64 {
		return ratio(float64(lt.ns(layer, counted)), units*passes)
	}
	m["cpu.ns_per_instr"] = metric{perUnit("cpu", total.instrs), "ns"}
	m["cache.ns_per_access"] = metric{perUnit("cache", total.cacheAccesses), "ns"}
	m["memctrl.ns_per_request"] = metric{perUnit("memctrl", total.requests), "ns"}
	m["dram.ns_per_cmd"] = metric{perUnit("dram", total.cmds), "ns"}

	m["runtime.alloc_mb"] = metric{median(allocMB), "MB"}
	m["runtime.allocs"] = metric{median(allocs), "count"}
	m["runtime.gc_cycles"] = metric{median(gcCycles), "count"}
	m["runtime.gc_cpu_frac"] = metric{median(gcFrac), "fraction"}

	captureOn, captureOff := toggled, plain
	if wl.baseline {
		captureOn, captureOff = plain, toggled
	}
	m["telemetry.overhead_frac"] = metric{median(captureOn)/median(captureOff) - 1, "fraction"}
	m["trace_overhead_frac"] = metric{median(traced)/median(plain) - 1, "fraction"}
	for _, mb := range microbenches {
		m[mb.name] = metric{micro[mb.name], "ns"}
		if mb.allocs != "" {
			m[mb.allocs] = metric{micro[mb.allocs], "allocs/op"}
		}
	}

	fmt.Fprintf(w, "per-layer (host time; %d rounds of untraced, traced and capture-%s passes)\n",
		len(traced), onOff(!wl.baseline))
	fmt.Fprintf(w, "  untraced pass %.4g s, traced %.4g s, capture-%s %.4g s (medians)\n",
		median(plain), median(traced), onOff(!wl.baseline), median(toggled))
	fmt.Fprintf(w, "  work per pass in %s: %.0f instructions, %.0f cache lookups, %.0f memctrl requests, %.0f DDR commands\n",
		strings.Join(sortedKeys(counted), ", "), total.instrs, total.cacheAccesses, total.requests, total.cmds)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\t")
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(tw, "%s\t%.4g\t%s\t\n", name, m[name].Value, m[name].Unit)
	}
	if err := tw.Flush(); err != nil {
		return nil, err
	}
	return &result{Correct: fracOK, Metrics: m}, nil
}

// peakRSSMB is the process's peak resident set so far.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// runAll runs every workload untraced and traced, each in a fresh
// process so no workload's warm caches reach another's timings.
func runAll(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var rest []string
	for i := 0; i < len(args); i++ {
		a := strings.TrimLeft(args[i], "-")
		name, _, inline := strings.Cut(a, "=")
		if name == "workload" || name == "trace" {
			if !inline {
				i++
			}
			continue
		}
		rest = append(rest, args[i])
	}
	failed := false
	for _, wl := range workloads {
		for _, trace := range []string{"0", "1"} {
			cmd := exec.Command(self, append([]string{"--workload", wl.name, "--trace", trace}, rest...)...)
			cmd.Stderr = os.Stderr
			out, err := cmd.StdoutPipe()
			if err != nil {
				return err
			}
			if err := cmd.Start(); err != nil {
				return err
			}
			var last string
			sc := bufio.NewScanner(out)
			for sc.Scan() {
				last = sc.Text()
				if !strings.HasPrefix(last, "{") {
					fmt.Println(last)
				}
			}
			if err := cmd.Wait(); err != nil {
				return fmt.Errorf("%s --trace %s: %w", wl.name, trace, err)
			}
			var r result
			if err := json.Unmarshal([]byte(last), &r); err != nil {
				return fmt.Errorf("%s --trace %s: result line: %w", wl.name, trace, err)
			}
			fmt.Printf("%s --trace %s: correct=%v, %d of %d runs failed\n\n", wl.name, trace, r.Correct, r.Failed, r.Attempted)
			failed = failed || !r.Correct
		}
	}
	if failed {
		return fmt.Errorf("a workload failed its output check")
	}
	return nil
}

// writeReference runs one pass per workload seed and writes the
// reference file. ci-suite keeps only its experiments that simulate
// nothing; BENCH_seed.json is the reference for the rest.
func writeReference(path string, workers int) error {
	rf := referenceFile{
		TuningSeeds: tuningSeeds,
		HeldOutSeed: heldOutSeed,
		Workloads:   map[string]map[string]map[string]expRef{},
	}
	for _, wl := range workloads {
		seeds := append(append([]uint64(nil), tuningSeeds...), heldOutSeed)
		if wl.baseline {
			seeds = []uint64{ciSeed}
		}
		bySeed := map[string]map[string]expRef{}
		for _, seed := range seeds {
			p := runPass(wl, seed, workers, wl.baseline, false)
			if p.err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, p.err)
			}
			refs, err := passReference(p.outcomes)
			if err != nil {
				return err
			}
			if wl.baseline {
				for exp, r := range refs {
					if len(r.Cycles) > 0 {
						delete(refs, exp)
					}
				}
			}
			bySeed[strconv.FormatUint(seed, 10)] = refs
			fmt.Fprintf(os.Stderr, "%s seed %d: %d experiments\n", wl.name, seed, len(refs))
		}
		rf.Workloads[wl.name] = bySeed
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// unitCounts is simulated work: the denominators of the per-unit host
// costs.
type unitCounts struct {
	instrs, cacheAccesses, requests, cmds float64
}

func (u unitCounts) plus(v unitCounts) unitCounts {
	return unitCounts{u.instrs + v.instrs, u.cacheAccesses + v.cacheAccesses, u.requests + v.requests, u.cmds + v.cmds}
}

// addCounts records each captured experiment's work per pass (the same
// in every pass: the simulation is deterministic).
func addCounts(counts map[string]unitCounts, outs []*spec.Outcome) {
	for _, out := range outs {
		if len(out.Telemetry) == 0 {
			continue
		}
		var c unitCounts
		for _, te := range out.Telemetry {
			c = c.plus(countsFromMetrics(te.Metrics))
		}
		counts[out.Spec.Experiment] = c
	}
}

// countsFromMetrics reads one run's work from its exported registry:
// core instructions, L1 and L2 lookups, requests the controller served,
// and DDR commands issued.
func countsFromMetrics(m map[string]any) unitCounts {
	var c unitCounts
	for k, v := range m {
		x, ok := v.(uint64)
		if !ok {
			continue
		}
		f := float64(x)
		switch {
		case strings.HasPrefix(k, "core.") && strings.HasSuffix(k, ".instructions"):
			c.instrs += f
		case strings.HasPrefix(k, "cache.") && (strings.HasSuffix(k, ".hits") || strings.HasSuffix(k, ".misses")):
			c.cacheAccesses += f
		case k == "memctrl.reads_served" || k == "memctrl.writes_served":
			c.requests += f
		case strings.HasPrefix(k, "dram."):
			for _, s := range []string{".acts", ".pres", ".reads", ".writes", ".refreshes"} {
				if strings.HasSuffix(k, s) {
					c.cmds += f
				}
			}
		}
	}
	return c
}

// formatSeries renders values compactly, in order.
func formatSeries(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// quartiles returns the first quartile, median and third quartile by
// the "exclusive" method of Python's statistics.quantiles(n=4).
func quartiles(v []float64) (q1, med, q3 float64) {
	if len(v) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		h := p * float64(len(s)+1)
		i := int(h)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (h-float64(i))*(s[i]-s[i-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
