// Package farm is the sharded sweep engine behind `gsbench serve` and
// `gsbench sweep`: a work queue that fans sweep points (experiment
// specs, internal/spec) across a worker pool, backed by the
// content-addressed result cache (internal/resultcache) so a point
// whose spec hash is already stored completes without executing a
// single simulated cycle. Multiple servers sharing one cache directory
// shard a sweep across processes or hosts; the cache's atomic writes
// and the simulator's bit-identical determinism make every hit
// trustworthy.
//
// The engine deduplicates identical points in flight (single-flight per
// spec hash), retries points whose worker fails or panics, streams
// per-point progress events (including lifecycle spans), and drains
// gracefully: a draining engine rejects new sweeps but finishes every
// accepted point. It also observes itself: point counters, latency
// histograms, and queue gauges are exportable in the Prometheus text
// format via WriteMetrics.
package farm

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"gsdram/internal/metrics"
	"gsdram/internal/resultcache"
	"gsdram/internal/spec"
)

// Runner executes one spec and returns its run document. The default is
// spec.RunDocument; tests inject failures and counters here.
type Runner func(*spec.Spec) ([]byte, error)

// Options configures an Engine.
type Options struct {
	// Workers is the number of concurrently executing sweep points in
	// this process (0 = GOMAXPROCS). Every point may run concurrently
	// with every other — telemetry capture (internal/bench.Capture) and
	// the noinline and l2_latency settings travel with the point's own
	// bench.Options — and each point additionally parallelizes
	// internally via its spec's Workers field.
	Workers int
	// Retries is how many times a point is re-executed after a worker
	// failure (error or panic) before the point is marked failed.
	Retries int
	// Runner overrides the execution function (nil = spec.RunDocument).
	Runner Runner
	// Logger receives structured engine events (job accepted, point
	// done/failed, retries). Nil discards them.
	Logger *slog.Logger
	// FlightDir, when non-empty, enables regression forensics for
	// troubled points: the first failed attempt of a point triggers a
	// flight-recorded re-run (spec.DumpFlight) whose NDJSON dump is
	// written to <FlightDir>/<hash12>.flight.ndjson. Empty disables.
	FlightDir string
}

// task is one queued sweep point.
type task struct {
	job   *Job
	index int
}

// Engine owns the queue, the worker pool, and the job table.
type Engine struct {
	cache     *resultcache.Cache
	runner    Runner
	workers   int
	retries   int
	logger    *slog.Logger
	flightDir string
	began     time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []task
	jobs     map[string]*Job
	jobOrder []*Job
	nextJob  int
	inflight map[string]chan struct{}
	draining bool
	started  bool
	wg       sync.WaitGroup

	// Self-observation state, all guarded by mu (the engine's workers
	// update it under short critical sections; scrapes snapshot it).
	active       int // points currently inside runPoint
	submittedPts metrics.Counter
	completedPts metrics.Counter
	cachedPts    metrics.Counter
	executedPts  metrics.Counter
	failedPts    metrics.Counter
	retriedPts   metrics.Counter
	dedupWaits   metrics.Counter
	pointLat     metrics.Histogram             // executed-point wall µs
	runDur       map[string]*metrics.Histogram // per-experiment wall µs
}

// New returns an engine over cache; call Start before submitting.
func New(cache *resultcache.Cache, opts Options) *Engine {
	e := &Engine{
		cache:     cache,
		runner:    opts.Runner,
		workers:   opts.Workers,
		retries:   opts.Retries,
		logger:    opts.Logger,
		flightDir: opts.FlightDir,
		began:     time.Now(),
		jobs:      map[string]*Job{},
		inflight:  map[string]chan struct{}{},
		runDur:    map[string]*metrics.Histogram{},
	}
	if e.runner == nil {
		e.runner = spec.RunDocument
	}
	if e.workers <= 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.retries < 0 {
		e.retries = 0
	}
	if e.logger == nil {
		e.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Cache returns the engine's result cache.
func (e *Engine) Cache() *resultcache.Cache { return e.cache }

// Workers returns the pool size.
func (e *Engine) Workers() int { return e.workers }

// Start launches the worker pool. Idempotent.
func (e *Engine) Start() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.started {
		return
	}
	e.started = true
	e.wg.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		go e.worker()
	}
}

// Submit validates, normalizes and hashes every point, creates a job,
// and enqueues all points. It returns an error (without side effects)
// when any point is invalid or the engine is draining.
func (e *Engine) Submit(points []spec.Spec) (*Job, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("farm: empty sweep")
	}
	pts := make([]*Point, len(points))
	for i, s := range points {
		ns := s.Normalized()
		if err := ns.Validate(); err != nil {
			return nil, fmt.Errorf("farm: point %d: %w", i, err)
		}
		pts[i] = &Point{Spec: *ns, Hash: ns.Hash(), Status: PointPending}
	}

	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return nil, ErrDraining
	}
	e.nextJob++
	j := newJob(fmt.Sprintf("job-%d", e.nextJob), pts)
	e.jobs[j.ID] = j
	e.jobOrder = append(e.jobOrder, j)
	for i := range pts {
		e.queue = append(e.queue, task{job: j, index: i})
	}
	e.submittedPts.Add(uint64(len(pts)))
	e.cond.Broadcast()
	e.mu.Unlock()
	e.logger.Info("sweep accepted", "job", j.ID, "points", len(pts))
	return j, nil
}

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = fmt.Errorf("farm: engine is draining, not accepting sweeps")

// Job returns a submitted job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// JobSummary is one job's identity and progress, as listed by Jobs.
type JobSummary struct {
	ID       string `json:"id"`
	Complete bool   `json:"complete"`
	Totals   Totals `json:"totals"`
}

// Jobs lists every submitted job in submission order.
func (e *Engine) Jobs() []JobSummary {
	e.mu.Lock()
	order := make([]*Job, len(e.jobOrder))
	copy(order, e.jobOrder)
	e.mu.Unlock()
	out := make([]JobSummary, len(order))
	for i, j := range order {
		out[i] = JobSummary{ID: j.ID, Complete: j.Complete(), Totals: j.Totals()}
	}
	return out
}

// PointStats counts sweep points by outcome across the engine's
// lifetime. Completed = Cached + Executed, always.
type PointStats struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Cached    uint64 `json:"cached"`
	Executed  uint64 `json:"executed"`
	Failed    uint64 `json:"failed"`
}

// Stats describes the engine's current load and lifetime counters.
type Stats struct {
	Workers  int   `json:"workers"`
	Queue    int   `json:"queue"`
	Inflight int   `json:"inflight"`
	Jobs     int   `json:"jobs"`
	Draining bool  `json:"draining"`
	UptimeNS int64 `json:"uptime_ns"`

	Points            PointStats `json:"points"`
	SingleflightWaits uint64     `json:"singleflight_waits"`
	Retries           uint64     `json:"retries"`
	// Point latency quantiles over executed (non-cached) points, from
	// the power-of-2 latency histogram (upper bounds, so exact to
	// within a factor of 2).
	PointLatP50US uint64 `json:"point_lat_p50_us"`
	PointLatP95US uint64 `json:"point_lat_p95_us"`

	Cache resultcache.Stats `json:"cache"`
}

// Stats snapshots the engine.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return Stats{
		Workers:  e.workers,
		Queue:    len(e.queue),
		Inflight: e.active,
		Jobs:     len(e.jobs),
		Draining: e.draining,
		UptimeNS: time.Since(e.began).Nanoseconds(),
		Points: PointStats{
			Submitted: e.submittedPts.Value(),
			Completed: e.completedPts.Value(),
			Cached:    e.cachedPts.Value(),
			Executed:  e.executedPts.Value(),
			Failed:    e.failedPts.Value(),
		},
		SingleflightWaits: e.dedupWaits.Value(),
		Retries:           e.retriedPts.Value(),
		PointLatP50US:     e.pointLat.Quantile(0.50),
		PointLatP95US:     e.pointLat.Quantile(0.95),
		Cache:             e.cache.Stats(),
	}
}

// WriteMetrics writes the engine's self-observation metrics in the
// Prometheus text exposition format: point counters, queue and inflight
// gauges, cache counters, the global point-latency histogram, and one
// run-duration histogram per experiment (labeled {experiment="..."}).
//
// metrics.Registry is single-threaded by design, so the engine does not
// keep one live: each scrape snapshots the counters under the engine
// lock into a fresh registry. Scrapes are rare and the copy is tiny.
func (e *Engine) WriteMetrics(w io.Writer) error {
	e.mu.Lock()
	reg := metrics.New()
	submitted, completed := e.submittedPts, e.completedPts
	cached, executed, failed := e.cachedPts, e.executedPts, e.failedPts
	retried, waits := e.retriedPts, e.dedupWaits
	reg.RegisterCounter("farm.points_submitted", &submitted)
	reg.RegisterCounter("farm.points_completed", &completed)
	reg.RegisterCounter("farm.points_cached", &cached)
	reg.RegisterCounter("farm.points_executed", &executed)
	reg.RegisterCounter("farm.points_failed", &failed)
	reg.RegisterCounter("farm.point_retries", &retried)
	reg.RegisterCounter("farm.singleflight_waits", &waits)
	cs := e.cache.Stats()
	hits, misses, puts := metrics.Counter(cs.Hits), metrics.Counter(cs.Misses), metrics.Counter(cs.Puts)
	reg.RegisterCounter("farm.cache_hits", &hits)
	reg.RegisterCounter("farm.cache_misses", &misses)
	reg.RegisterCounter("farm.cache_puts", &puts)
	queue, inflight := int64(len(e.queue)), int64(e.active)
	workers, jobs := int64(e.workers), int64(len(e.jobs))
	var draining int64
	if e.draining {
		draining = 1
	}
	uptime := time.Since(e.began).Nanoseconds()
	reg.RegisterGaugeFunc("farm.queue_depth", func() int64 { return queue })
	reg.RegisterGaugeFunc("farm.inflight_points", func() int64 { return inflight })
	reg.RegisterGaugeFunc("farm.workers", func() int64 { return workers })
	reg.RegisterGaugeFunc("farm.jobs", func() int64 { return jobs })
	reg.RegisterGaugeFunc("farm.draining", func() int64 { return draining })
	reg.RegisterGaugeFunc("farm.uptime_ns", func() int64 { return uptime })
	lat := e.pointLat
	reg.RegisterHistogram("farm.point_latency_us", &lat)

	labeled := []metrics.LabeledRegistry{{Reg: reg}}
	exps := make([]string, 0, len(e.runDur))
	for exp := range e.runDur {
		exps = append(exps, exp)
	}
	sort.Strings(exps)
	for _, exp := range exps {
		h := *e.runDur[exp]
		r := metrics.New()
		r.RegisterHistogram("farm.run_duration_us", &h)
		labeled = append(labeled, metrics.LabeledRegistry{
			Labels: map[string]string{"experiment": exp},
			Reg:    r,
		})
	}
	e.mu.Unlock()
	return metrics.WritePrometheusMulti(w, labeled)
}

// Drain stops intake (Submit fails with ErrDraining), lets the pool
// finish every queued and in-flight point, and waits for the workers to
// exit, or for ctx.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	e.cond.Broadcast()
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// worker pulls points until the queue is empty and the engine drains.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.draining {
			e.cond.Wait()
		}
		if len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		t := e.queue[0]
		e.queue = e.queue[1:]
		e.active++
		e.mu.Unlock()
		e.runPoint(t) // decrements e.active before the point is reported
	}
}

// acquire registers this goroutine as the single executor for hash.
// When another executor is already running the same hash, it returns
// (false, ch); wait on ch, then re-check the cache.
func (e *Engine) acquire(hash string) (leader bool, ch <-chan struct{}) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.inflight[hash]; ok {
		return false, c
	}
	c := make(chan struct{})
	e.inflight[hash] = c
	return true, c
}

// release ends this goroutine's leadership for hash and wakes waiters.
func (e *Engine) release(hash string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.inflight[hash]; ok {
		close(c)
		delete(e.inflight, hash)
	}
}

// execute runs one spec, converting a worker panic into an error so a
// crashing point is retried like any other failure instead of taking
// the server down.
func (e *Engine) execute(s *spec.Spec) (doc []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("farm: worker panic: %v", r)
		}
	}()
	return e.runner(s)
}

// finishPoint marks point i done, updating the engine's counters and
// latency histograms for an executed point. The engine's accounting —
// the worker leaving the active set included — is settled before the
// job reports the point, so a caller woken by the job's completion
// reads Stats that already include it.
func (e *Engine) finishPoint(j *Job, i, attempts int, cached bool, wallNS int64, experiment string) {
	e.mu.Lock()
	e.active--
	e.completedPts.Inc()
	if cached {
		e.cachedPts.Inc()
	} else {
		e.executedPts.Inc()
		us := uint64(wallNS / 1000)
		e.pointLat.Observe(us)
		h := e.runDur[experiment]
		if h == nil {
			h = &metrics.Histogram{}
			e.runDur[experiment] = h
		}
		h.Observe(us)
	}
	e.mu.Unlock()
	j.finish(i, attempts, cached, wallNS)
	e.logger.Info("point done", "job", j.ID, "point", i,
		"hash", shortHash(j.points[i].Hash), "experiment", experiment,
		"cached", cached, "attempts", attempts,
		"dur", time.Duration(wallNS))
}

// dumpFlight re-runs a troubled point with the flight recorder armed
// and writes the NDJSON dump next to the cache. Best-effort: a dump
// failure is logged, never escalated — the point's retry/fail flow is
// decided by the original error alone.
func (e *Engine) dumpFlight(j *Job, i int, p *Point) {
	if e.flightDir == "" {
		return
	}
	path := filepath.Join(e.flightDir, shortHash(p.Hash)+".flight.ndjson")
	f, err := os.Create(path)
	if err != nil {
		e.logger.Warn("flight dump failed", "job", j.ID, "point", i, "err", err)
		return
	}
	defer f.Close()
	// The re-run is expected to fail again — that is what makes the dump
	// useful. The NDJSON written before the failure is kept either way.
	if err := spec.DumpFlight(&p.Spec, 0, f); err != nil {
		e.logger.Info("flight dump captured failing re-run", "job", j.ID,
			"point", i, "path", path, "err", err)
	} else {
		e.logger.Info("flight dump written", "job", j.ID, "point", i, "path", path)
	}
}

// shortHash abbreviates a spec hash for log lines.
func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

// runPoint drives one point to done or failed: cache hit → done
// (cached); otherwise become the hash's single executor, run, store,
// done; on failure retry up to Retries times. Followers of an in-flight
// identical point wait and then take the leader's cached result. Every
// stage closes a lifecycle span on the point (queued, cache_probe,
// singleflight_wait, running, store), emitted as "span" events. Both
// outcomes leave the worker's active count (e.active--) in the critical
// section that counts them, before the job hears of the point.
func (e *Engine) runPoint(t task) {
	j, i := t.job, t.index
	p := j.start(i)
	attempts := 0
	var lastErr error
	for {
		probeStart := j.offset()
		_, hit, err := e.cache.Get(p.Hash)
		j.span(i, SpanCacheProbe, probeStart)
		if err != nil {
			lastErr = err
		} else if hit {
			e.finishPoint(j, i, attempts, true, 0, p.Spec.Experiment)
			return
		}
		leader, ch := e.acquire(p.Hash)
		if !leader {
			// An identical point is executing right now; its completion
			// fills the cache. Waiting costs this worker slot but no
			// simulation work.
			e.mu.Lock()
			e.dedupWaits.Inc()
			e.mu.Unlock()
			waitStart := j.offset()
			<-ch
			j.span(i, SpanSingleflightWait, waitStart)
			continue
		}
		attempts++
		runStart := j.offset()
		start := time.Now()
		doc, err := e.execute(&p.Spec)
		j.span(i, SpanRunning, runStart)
		if err == nil {
			storeStart := j.offset()
			err = e.cache.Put(p.Hash, doc)
			j.span(i, SpanStore, storeStart)
		}
		wall := time.Since(start)
		e.release(p.Hash)
		if err == nil {
			e.finishPoint(j, i, attempts, false, wall.Nanoseconds(), p.Spec.Experiment)
			return
		}
		lastErr = err
		if attempts == 1 {
			// First failure of this point: capture a flight dump before
			// any retry, while the failure is fresh.
			e.dumpFlight(j, i, p)
		}
		if attempts > e.retries {
			e.mu.Lock()
			e.active--
			e.failedPts.Inc()
			e.mu.Unlock()
			j.fail(i, attempts, lastErr)
			e.logger.Error("point failed", "job", j.ID, "point", i,
				"hash", shortHash(p.Hash), "experiment", p.Spec.Experiment,
				"attempts", attempts, "err", lastErr)
			return
		}
		e.mu.Lock()
		e.retriedPts.Inc()
		e.mu.Unlock()
		e.logger.Warn("point retrying", "job", j.ID, "point", i,
			"hash", shortHash(p.Hash), "attempt", attempts, "err", lastErr)
	}
}
