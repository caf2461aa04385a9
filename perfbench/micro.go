package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"gsdram/internal/addrmap"
	"gsdram/internal/cache"
	"gsdram/internal/cpu"
	"gsdram/internal/dram"
	"gsdram/internal/graph"
	"gsdram/internal/gsdram"
	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memctrl"
	"gsdram/internal/memsys"
	"gsdram/internal/metrics"
	"gsdram/internal/sim"
	"gsdram/internal/telemetry"
)

// Layer microbenchmarks: each times one layer's public entry point in
// isolation, as host nanoseconds per operation.

// microBatch is the host time one timed batch of operations aims at;
// microReps batches are timed and the median reported.
const (
	microBatch = 20 * time.Millisecond
	microReps  = 5
)

// microResult is one microbenchmark's median cost per operation.
type microResult struct {
	ns     float64 // host ns per op
	allocs float64 // heap allocations per op
}

// timeOp times op(n), which must perform n operations. n is first grown
// until one call takes microBatch; then microReps calls are timed.
func timeOp(op func(n int)) microResult {
	n := 1
	for {
		start := time.Now()
		op(n)
		el := time.Since(start)
		if el >= microBatch || n >= 1<<30 {
			break
		}
		if el <= 0 {
			n *= 100
			continue
		}
		next := int(float64(n) * 1.2 * float64(microBatch) / float64(el))
		n = min(max(next, n+1), 100*n)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	per := make([]float64, microReps)
	for i := range per {
		start := time.Now()
		op(n)
		per[i] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	runtime.ReadMemStats(&ms)
	sort.Float64s(per)
	return microResult{
		ns:     per[len(per)/2],
		allocs: float64(ms.Mallocs-mallocs) / float64(n*microReps),
	}
}

// microbench is one named microbenchmark. prepare builds its fixture and
// returns the timed operation.
type microbench struct {
	name    string // metric name of the ns/op figure
	allocs  string // metric name of the allocs/op figure, if reported
	prepare func() (func(n int), error)
}

var microbenches = []microbench{
	{name: "sim.schedule_step_ns", prepare: prepareSchedule},
	{name: "cpu.l1hit_step_ns", prepare: prepareL1Hit},
	{name: "cache.lookup_ns", prepare: prepareCacheLookup},
	{name: "cache.fill_ns", prepare: prepareCacheFill},
	{name: "memsys.miss_ns", prepare: prepareMiss},
	{name: "memctrl.enqueue_drain_ns", prepare: prepareEnqueueDrain},
	{name: "memctrl.coalesce_plan_ns", prepare: prepareCoalesce},
	{name: "dram.earliest_issue_ns", prepare: prepareEarliestIssue},
	{name: "gsdram.readline_ns", prepare: prepareReadLine},
	{name: "gsdram.clone_write_ns", prepare: prepareCloneWrite},
	{name: "imdb.txn_next_ns", allocs: "imdb.txn_next_allocs", prepare: prepareTxnNext},
	{name: "graph.pagerank_next_ns", allocs: "graph.pagerank_next_allocs", prepare: preparePageRankNext},
	{name: "telemetry.epoch_sample_ns", prepare: prepareEpochSample},
}

// runMicrobenches runs every microbenchmark and returns its metrics.
func runMicrobenches() (map[string]float64, error) {
	out := map[string]float64{}
	for _, mb := range microbenches {
		op, err := mb.prepare()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", mb.name, err)
		}
		r := timeOp(op)
		out[mb.name] = r.ns
		if mb.allocs != "" {
			out[mb.allocs] = r.allocs
		}
		runtime.GC() // drop the fixture before the next one
	}
	return out, nil
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink uint64

func noop(sim.Cycle) {}

// prepareSchedule: one Schedule plus the Step that dispatches it, on a
// queue holding 8 far-future events (a one-core rig's controller,
// refresh and sampler keep a handful pending).
func prepareSchedule() (func(int), error) {
	q := &sim.EventQueue{}
	for i := 0; i < 8; i++ {
		q.Schedule(sim.Cycle(1)<<50+sim.Cycle(i), noop)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			q.Schedule(q.Now()+sim.Cycle(1+i&3), noop)
			q.Step()
		}
	}, nil
}

// hitStream replays loads of one line; refilling remaining and
// restarting the core replays another batch against the warm L1.
type hitStream struct {
	remaining int
	op        cpu.Op
}

func (s *hitStream) Next() (cpu.Op, bool) {
	if s.remaining == 0 {
		return cpu.Op{}, false
	}
	s.remaining--
	return s.op, true
}

// prepareL1Hit: one core step of an L1-hit load on the inline fast path.
func prepareL1Hit() (func(int), error) {
	q := &sim.EventQueue{}
	mem, err := memsys.New(memsys.DefaultConfig(1), q)
	if err != nil {
		return nil, err
	}
	s := &hitStream{op: cpu.Load(0x40, 0x1), remaining: 64}
	c := cpu.New(0, q, mem, s, nil)
	c.Start(0)
	q.Run() // takes the miss and warms the L1
	return func(n int) {
		s.remaining = n
		c.Start(q.Now())
		q.Run()
	}, nil
}

// lineAddrs returns n pseudo-random line addresses below limit.
func lineAddrs(n int, limit uint64, seed uint64) []addrmap.Addr {
	rng := sim.NewRand(seed)
	lines := int(limit / 64)
	out := make([]addrmap.Addr, n)
	for i := range out {
		out[i] = addrmap.Addr(rng.Intn(lines) * 64)
	}
	return out
}

// prepareCacheLookup: a hitting tag lookup in the paper's L1.
func prepareCacheLookup() (func(int), error) {
	c, err := cache.New(cache.L1Default())
	if err != nil {
		return nil, err
	}
	addrs := make([]addrmap.Addr, 256) // 16 KB: resident in the 32 KB L1
	for i := range addrs {
		addrs[i] = addrmap.Addr(i * 64)
		c.Fill(addrs[i], gsdram.DefaultPattern, false)
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if c.Lookup(addrs[i&255], gsdram.DefaultPattern, false) {
				sink++
			}
		}
	}, nil
}

// prepareCacheFill: a fill that usually evicts, over a working set four
// times the L1.
func prepareCacheFill() (func(int), error) {
	c, err := cache.New(cache.L1Default())
	if err != nil {
		return nil, err
	}
	addrs := lineAddrs(4096, 1<<30, 3)
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, ev := c.Fill(addrs[i&4095], gsdram.DefaultPattern, i&7 == 0); ev {
				sink++
			}
		}
	}, nil
}

// prepareMiss: a load that misses both caches and goes to DRAM, issued
// after the previous one returns, through memsys, memctrl and dram.
func prepareMiss() (func(int), error) {
	q := &sim.EventQueue{}
	s, err := memsys.New(memsys.DefaultConfig(1), q)
	if err != nil {
		return nil, err
	}
	addrs := lineAddrs(1<<16, addrmap.Default.Capacity(), 5) // 4 MB, twice the L2
	k, left := 0, 0
	var issue func(now sim.Cycle)
	issue = func(now sim.Cycle) {
		if left == 0 {
			return
		}
		left--
		a := memsys.Access{Core: 0, Addr: addrs[k&(1<<16-1)]}
		k++
		if done, hit := s.Access(now, a, issue); hit {
			q.Schedule(done, issue)
		}
	}
	return func(n int) {
		left = n
		q.Schedule(q.Now()+1, issue)
		q.Run()
	}, nil
}

// prepareEnqueueDrain: enqueue a batch of 32 random reads and run the
// controller until it has served them (FR-FCFS picks and DDR commands).
func prepareEnqueueDrain() (func(int), error) {
	q := &sim.EventQueue{}
	c, err := memctrl.New(memctrl.DefaultConfig(), q)
	if err != nil {
		return nil, err
	}
	addrs := lineAddrs(1<<12, addrmap.Default.Capacity(), 7)
	k := 0
	return func(n int) {
		for done := 0; done < n; {
			batch := min(32, n-done)
			for i := 0; i < batch; i++ {
				r := c.NewRequest()
				r.Addr = addrs[k&(1<<12-1)]
				k++
				c.Enqueue(q.Now(), r)
			}
			q.Run()
			done += batch
		}
	}, nil
}

// prepareCoalesce: plan one 256-element vector, half a stride-8 field
// walk (pattern bursts), half random (fallback).
func prepareCoalesce() (func(int), error) {
	spec := addrmap.Default
	c := memctrl.NewCoalescer(spec, gsdram.GS844)
	rng := sim.NewRand(11)
	words := int(spec.Capacity() / 8)
	addrs := make([]addrmap.Addr, 256)
	for i := range addrs {
		if i%2 == 0 {
			addrs[i] = addrmap.Addr(i/2*spec.LineBytes + 5*8)
		} else {
			addrs[i] = addrmap.Addr(rng.Intn(words) * 8)
		}
	}
	if _, err := c.Plan(addrs, true, 7); err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			b, _ := c.Plan(addrs, true, 7)
			sink += uint64(len(b))
		}
	}, nil
}

// prepareEarliestIssue: the timing-legality query the controller makes
// for every candidate command, on a rank with open rows.
func prepareEarliestIssue() (func(int), error) {
	r := dram.NewRank(8, dram.DDR3_1600(), 5)
	var t sim.Cycle
	for b := 0; b < 8; b++ {
		t = r.EarliestIssue(dram.CmdACT, b, t)
		r.Issue(dram.CmdACT, b, b, t)
	}
	kinds := []dram.CmdKind{dram.CmdRD, dram.CmdWR, dram.CmdPRE, dram.CmdACT}
	return func(n int) {
		for i := 0; i < n; i++ {
			sink += uint64(r.EarliestIssue(kinds[i&3], i&7, t))
		}
	}, nil
}

// prepareReadLine: a stride-8 pattern gather out of the GS-DRAM array.
func prepareReadLine() (func(int), error) {
	m := gsdram.NewModule(gsdram.GS844, gsdram.Geometry{Banks: 8, Rows: 16, Cols: 128})
	line := make([]uint64, gsdram.GS844.Chips)
	for i := range line {
		line[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	for bank := 0; bank < 8; bank++ {
		for row := 0; row < 16; row++ {
			if err := m.WriteLine(bank, row, 0, gsdram.DefaultPattern, true, line); err != nil {
				return nil, err
			}
		}
	}
	patt := m.Params().MaxPattern()
	return func(n int) {
		for i := 0; i < n; i++ {
			if _, err := m.ReadLine(i&7, i&15, i&127, patt, true, line); err != nil {
				panic(err) // the geometry above makes every index valid
			}
		}
	}, nil
}

// prepareCloneWrite: clone a machine holding a populated txn-scale table,
// then perform the clone's first write (what every txn run does).
func prepareCloneWrite() (func(int), error) {
	mach, err := machine.Default()
	if err != nil {
		return nil, err
	}
	db, err := imdb.New(mach, imdb.RowStore, txnTuples)
	if err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			c := mach.Clone()
			if err := c.WriteWord(db.FieldAddr(i%txnTuples, 0), uint64(i)); err != nil {
				panic(err) // FieldAddr is inside the table
			}
		}
	}, nil
}

// prepareTxnNext: one op of the Figure 9 transaction generator (mix
// 4-2-2) over a txn-scale GS-DRAM table.
func prepareTxnNext() (func(int), error) {
	mach, err := machine.Default()
	if err != nil {
		return nil, err
	}
	db, err := imdb.New(mach, imdb.GSStore, txnTuples)
	if err != nil {
		return nil, err
	}
	var res imdb.TxnResult
	s, err := db.TransactionStream(imdb.Figure9Mixes[7], 0, 1, &res) // unbounded
	if err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			if op, ok := s.Next(); ok {
				sink += uint64(op.Addr)
			}
		}
	}, nil
}

// preparePageRankNext: one op of the PageRank stream on the pagerank
// workload's GS-layout graph, restarting the stream when it ends.
func preparePageRankNext() (func(int), error) {
	mach, err := machine.Default()
	if err != nil {
		return nil, err
	}
	g, err := graph.NewRandom(mach, graph.GS, graphVertices, graphDegree, 1)
	if err != nil {
		return nil, err
	}
	var res graph.PageRankResult
	s, err := g.PageRankStream(2, &res)
	if err != nil {
		return nil, err
	}
	return func(n int) {
		for i := 0; i < n; i++ {
			op, ok := s.Next()
			if !ok {
				if s, err = g.PageRankStream(2, &res); err != nil {
					panic(err) // the same arguments succeeded above
				}
				continue
			}
			sink += uint64(op.Addr)
		}
	}, nil
}

// prepareEpochSample: one epoch snapshot of a one-core rig's full
// metrics registry (caches, memsys, memctrl, dram, latency).
func prepareEpochSample() (func(int), error) {
	q := &sim.EventQueue{}
	reg := metrics.New()
	cfg := memsys.DefaultConfig(1)
	cfg.Metrics = reg
	mem, err := memsys.New(cfg, q)
	if err != nil {
		return nil, err
	}
	c := cpu.New(0, q, mem, &hitStream{}, nil)
	c.RegisterMetrics(reg, "core.0")
	return func(n int) {
		// A fresh sampler per call bounds the series it accumulates; a
		// pending no-op event keeps it ticking for n epochs.
		s := telemetry.NewSampler(q, reg, 1)
		s.Start()
		q.Schedule(q.Now()+sim.Cycle(n), noop)
		q.Run()
		sink += uint64(len(s.Series().Epochs))
	}, nil
}
