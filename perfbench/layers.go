package main

import "strings"

// layers are the simulator's layers in report order; every profile
// sample is charged to exactly one, by the package of its leaf frame.
var layers = []string{
	"sim", "cpu", "imdb", "graph", "gemm", "cache", "memsys", "memctrl",
	"dram", "gsdram", "machine", "telemetry", "sample", "runtime", "other",
}

// layerOfPackage is the leaf-package → layer table. Packages not listed
// (the bench runners, kvstore, pixels, energy, spec, sort, sync, …) are
// charged to "other", which is reported so unmapped time cannot grow
// unseen.
var layerOfPackage = map[string]string{
	"gsdram/internal/sim": "sim",
	"container/heap":      "sim", // the event queue's heap

	"gsdram/internal/cpu": "cpu",

	// Workload stream generators.
	"gsdram/internal/imdb":  "imdb",
	"gsdram/internal/graph": "graph",
	"gsdram/internal/gemm":  "gemm",

	"gsdram/internal/cache":    "cache",
	"gsdram/internal/prefetch": "cache",
	"gsdram/internal/autopatt": "cache",

	"gsdram/internal/memsys":  "memsys",
	"gsdram/internal/memctrl": "memctrl",
	"gsdram/internal/dram":    "dram",
	"gsdram/internal/gsdram":  "gsdram",

	"gsdram/internal/machine": "machine",
	"gsdram/internal/addrmap": "machine",
	"gsdram/internal/vm":      "machine",

	"gsdram/internal/telemetry": "telemetry",
	"gsdram/internal/metrics":   "telemetry",
	"gsdram/internal/latency":   "telemetry",
	"gsdram/internal/flight":    "telemetry",
	"gsdram/internal/trace":     "telemetry",
	"encoding/json":             "telemetry", // the run document

	"gsdram/internal/sample":  "sample",
	"gsdram/internal/fastsim": "sample",
	"gsdram/internal/ckpt":    "sample",
}

// layerOf maps a leaf function to its layer. The Go runtime, including
// its internal packages and the profiler, is one layer.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if l, ok := layerOfPackage[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// layerTime is CPU time per layer, split by the "exp" label.
type layerTime map[string]map[string]int64 // exp → layer → ns

func (lt layerTime) add(samples []cpuSample) {
	for _, s := range samples {
		m := lt[s.exp]
		if m == nil {
			m = map[string]int64{}
			lt[s.exp] = m
		}
		m[layerOf(s.leaf)] += s.ns
	}
}

// selfFrac returns each layer's share of all CPU time.
func (lt layerTime) selfFrac() map[string]float64 {
	var total int64
	by := map[string]int64{}
	for _, m := range lt {
		for l, ns := range m {
			by[l] += ns
			total += ns
		}
	}
	out := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			out[l] = float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}

// ns returns a layer's CPU time over the given experiments.
func (lt layerTime) ns(layer string, exps map[string]bool) int64 {
	var t int64
	for exp, m := range lt {
		if exps[exp] {
			t += m[layer]
		}
	}
	return t
}
