// Package spec defines the serializable ExperimentSpec: a complete,
// canonically-hashable description of one gsbench experiment run — the
// experiment name, every workload knob, the seed, the execution options
// (workers, inline fast path, sampling, telemetry) and a code-version
// fingerprint. The CLI and the simulation farm (internal/farm) both
// construct their rigs from a Spec, so a spec hash identifies a result
// document: bit-identical determinism (DESIGN.md §5.1/§5.3) makes the
// hash a trustworthy content address for the result cache
// (internal/resultcache).
//
// The cache key is SHA-256 over the canonical JSON of the normalized
// spec. Every field participates, including Workers and NoInline even
// though results are bit-identical across them: the stored document
// embeds both in its manifest, and a cache hit must return a document
// whose manifest agrees with the request. Changing any field, the seed,
// or the fingerprint therefore changes the key (a conservative miss is
// always safe; a false hit never is).
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"

	"gsdram/internal/bench"
	"gsdram/internal/sample"
	"gsdram/internal/telemetry"
)

// Sample mirrors sample.Config's knobs with stable JSON names, so the
// canonical encoding cannot drift when the simulator-side struct grows
// fields that do not affect results (e.g. checkpoint writers).
type Sample struct {
	Interval uint64 `json:"interval"`
	Warmup   uint64 `json:"warmup"`
	Measure  uint64 `json:"measure"`
	Seed     uint64 `json:"seed"`
	FFWarm   uint64 `json:"ffwarm"`
}

// Config converts the spec's sampling section into the simulator's.
func (s *Sample) Config() *sample.Config {
	if s == nil {
		return nil
	}
	return &sample.Config{
		Interval: s.Interval,
		Warmup:   s.Warmup,
		Measure:  s.Measure,
		Seed:     s.Seed,
		FFWarm:   s.FFWarm,
	}
}

// DefaultSample returns the sampling configuration the gsbench flags
// default to; fig9sampled falls back to it when a spec carries no
// explicit sampling section.
func DefaultSample() *Sample {
	return &Sample{Interval: 16384, Warmup: 512, Measure: 1024, Seed: 1}
}

// Spec fully describes one experiment run. The zero value is not
// runnable; construct one from flags (cmd/gsbench) or JSON (the farm
// API) and Normalize it before hashing.
type Spec struct {
	// Experiment is a registry name (see Names).
	Experiment string `json:"experiment"`
	// Workload scale knobs, mirroring the gsbench flags.
	Tuples    int    `json:"tuples"`
	Txns      int    `json:"txns"`
	GemmSizes []int  `json:"gemm_sizes"`
	KVPairs   int    `json:"kvpairs"`
	Vertices  int    `json:"vertices"`
	Degree    int    `json:"degree"`
	Seed      uint64 `json:"seed"`
	// Execution options. Workers and NoInline do not change results
	// (pinned bit-identical) but are part of the key; see the package
	// comment.
	Workers  int     `json:"workers"`
	NoInline bool    `json:"noinline"`
	Sample   *Sample `json:"sample,omitempty"`
	// L2Latency, when non-zero, overrides the model's L2 hit latency in
	// CPU cycles (model default: 18). It is an ablation knob for
	// regression forensics — perturbing one stage gives `gsbench
	// explain` a known-cause delta — and, unlike Workers/NoInline, it
	// changes results, so it participates in the hash like any workload
	// knob. omitempty keeps the canonical encoding (and therefore every
	// existing cache key) unchanged for specs that leave it at 0.
	L2Latency uint64 `json:"l2_latency,omitempty"`
	// Telemetry enables capture; the run document then carries per-run
	// metrics, the epoch series and the latency summary, exactly like
	// gsbench -json. Epoch is the sampling interval in cycles (0 with
	// telemetry on normalizes to telemetry.DefaultEpoch; forced to 0
	// when telemetry is off, where it has no effect).
	Telemetry bool   `json:"telemetry"`
	Epoch     uint64 `json:"epoch"`
	// Fingerprint names the simulator version that produced (or may
	// reuse) the result. Empty normalizes to DefaultFingerprint(); a
	// fingerprint mismatch is a cache miss, which is how results are
	// invalidated across code changes.
	Fingerprint string `json:"fingerprint"`
}

// Normalized returns a copy with defaults filled so that equal requests
// encode identically: the fingerprint is stamped, a nil gemm list
// becomes empty, and the telemetry epoch is canonicalized.
func (s Spec) Normalized() *Spec {
	if s.Fingerprint == "" {
		s.Fingerprint = DefaultFingerprint()
	}
	if s.GemmSizes == nil {
		s.GemmSizes = []int{}
	}
	if !s.Telemetry {
		s.Epoch = 0
	} else if s.Epoch == 0 {
		s.Epoch = uint64(telemetry.DefaultEpoch)
	}
	return &s
}

// Canonical returns the canonical encoding the hash is computed over:
// the JSON of the normalized spec. encoding/json writes struct fields
// in declaration order with no whitespace variance, so equal normalized
// specs encode byte-identically.
func (s Spec) Canonical() []byte {
	b, err := json.Marshal(s.Normalized())
	if err != nil {
		// A Spec contains only marshalable fields; this cannot fail.
		panic(fmt.Sprintf("spec: canonical encoding failed: %v", err))
	}
	return b
}

// Hash returns the spec's content address: lowercase hex SHA-256 of the
// canonical encoding.
func (s Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:])
}

// Validate reports whether the spec describes a runnable experiment.
func (s *Spec) Validate() error {
	if _, ok := lookup(s.Experiment); !ok {
		return fmt.Errorf("spec: unknown experiment %q (valid: %s)",
			s.Experiment, strings.Join(Names(), ", "))
	}
	if err := s.BenchOptions().Validate(); err != nil {
		return fmt.Errorf("spec: %v", err)
	}
	if s.KVPairs <= 0 || s.Vertices <= 0 || s.Degree <= 0 {
		return fmt.Errorf("spec: kvpairs (%d), vertices (%d) and degree (%d) must be positive",
			s.KVPairs, s.Vertices, s.Degree)
	}
	if s.Workers < 0 {
		return fmt.Errorf("spec: workers must be >= 0, got %d", s.Workers)
	}
	// fig9sampled supplies its own sampling config and ignores the
	// fast-path toggle for the sampled pass, so only the general
	// combination is rejected (there is no event-driven path to fall
	// back to when most instructions fast-forward functionally).
	if s.NoInline && s.Sample != nil && s.Experiment != "fig9sampled" {
		return fmt.Errorf("spec: sampling cannot be combined with noinline")
	}
	return nil
}

// BenchOptions resolves the spec into the experiment Options the
// runners consume.
func (s *Spec) BenchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.Tuples = s.Tuples
	o.Txns = s.Txns
	o.Seed = s.Seed
	o.Workers = s.Workers
	if len(s.GemmSizes) > 0 {
		o.GemmSizes = append([]int(nil), s.GemmSizes...)
	}
	o.Sample = s.Sample.Config()
	o.NoInline = s.NoInline
	o.L2Latency = s.L2Latency
	return o
}

// Params renders the spec as manifest parameters, with the same keys
// the CLI writes so farm documents and -json documents diff cleanly.
func (s *Spec) Params() map[string]string {
	sizes := make([]string, len(s.GemmSizes))
	for i, n := range s.GemmSizes {
		sizes[i] = strconv.Itoa(n)
	}
	return map[string]string{
		"exp":         s.Experiment,
		"tuples":      strconv.Itoa(s.Tuples),
		"txns":        strconv.Itoa(s.Txns),
		"gemm":        strings.Join(sizes, ","),
		"kvpairs":     strconv.Itoa(s.KVPairs),
		"vertices":    strconv.Itoa(s.Vertices),
		"degree":      strconv.Itoa(s.Degree),
		"noinline":    strconv.FormatBool(s.NoInline),
		"sample":      strconv.FormatBool(s.Sample != nil),
		"l2lat":       strconv.FormatUint(s.L2Latency, 10),
		"fingerprint": s.Fingerprint,
	}
}

// Manifest builds the run-document manifest for this spec.
func (s *Spec) Manifest(goVersion string) telemetry.Manifest {
	return telemetry.Manifest{
		Tool:      "gsbench",
		GoVersion: goVersion,
		Seed:      s.Seed,
		Workers:   s.Workers,
		Epoch:     s.Epoch,
		Params:    s.Params(),
	}
}

var (
	fingerprintOnce sync.Once
	fingerprint     string
)

// DefaultFingerprint identifies the simulator code that is running:
// bench.SimVersion (bumped by hand when simulation semantics change)
// plus, when the binary carries VCS build info, the commit revision and
// dirty bit. Every commit therefore invalidates the result cache
// automatically — conservative, but a stale hit can never happen — and
// builds without VCS stamps (go test, plain go run) still degrade to
// the hand-bumped version rather than colliding on an empty string.
func DefaultFingerprint() string {
	fingerprintOnce.Do(func() {
		fingerprint = bench.SimVersion
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		var rev, dirty string
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				rev = kv.Value
			case "vcs.modified":
				if kv.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			if len(rev) > 12 {
				rev = rev[:12]
			}
			fingerprint += "+" + rev + dirty
		}
	})
	return fingerprint
}
