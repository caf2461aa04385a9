package bench

import (
	"fmt"

	"gsdram/internal/imdb"
	"gsdram/internal/machine"
	"gsdram/internal/memsys"
	"gsdram/internal/pixels"
	"gsdram/internal/sample"
	"gsdram/internal/sim"
	"gsdram/internal/stats"
)

// ImpulseResult compares GS-DRAM against the Impulse/DGMS class of
// related work (paper §7): gather at the memory controller from ordinary
// line reads. Cache-side behaviour is identical; the DRAM side is not.
type ImpulseResult struct {
	Opts Options
	// Indexed: 0 = GS-DRAM (in-DRAM gather), 1 = controller gather.
	Cycles    [2]uint64
	LineReads [2]uint64
	EnergyMJ  [2]float64
}

// RunImpulse runs the prefetched 1-column analytics scan under both
// gather implementations.
func RunImpulse(opts Options) (*ImpulseResult, error) {
	res := &ImpulseResult{Opts: opts}
	modes := []memsys.GatherMode{memsys.GatherInDRAM, memsys.GatherAtController}
	err := opts.pool().Run(len(modes), func(i int) error {
		db, err := templateDB(imdb.GSStore, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := opts.memConfig(1)
		cfg.EnablePrefetch = true
		cfg.Gather = modes[i]
		r, err := opts.newRig("", cfg)
		if err != nil {
			return err
		}
		var ar imdb.AnalyticsResult
		s, err := db.AnalyticsStream([]int{0}, &ar)
		if err != nil {
			return err
		}
		m := r.run(0, s)
		checkSums(&ar, opts.Tuples, []int{0})
		res.Cycles[i] = m.Cycles
		res.LineReads[i] = m.Ctrl.ReadsServed
		res.EnergyMJ[i] = m.Energy.TotalMJ()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the related-work comparison.
func (r *ImpulseResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Gather placement (Section 7 related work): prefetched 1-column scan, %d tuples", r.Opts.Tuples),
		"mechanism", "cycles (M)", "DRAM line reads", "energy (mJ)")
	labels := []string{"GS-DRAM (in-DRAM gather)", "controller gather (Impulse-like)"}
	for i, l := range labels {
		t.Add(l, stats.Mcycles(r.Cycles[i]), fmt.Sprint(r.LineReads[i]),
			fmt.Sprintf("%.2f", r.EnergyMJ[i]))
	}
	return t
}

// PatternSweepResult is the §3.5 parameter-space study: analytics cost as
// a function of available pattern bits.
type PatternSweepResult struct {
	Opts Options
	// Indexed by pattern bits 0..3.
	Cycles    [4]uint64
	LineReads [4]uint64
	// Sampled holds the per-point estimates when the sweep ran under
	// interval sampling (Options.Sample); all nil otherwise.
	Sampled [4]*sample.Result
}

// RunPatternSweep runs the 1-column scan on the GS layout with 0..3
// pattern bits: stride-2^p gathers fetch 8/2^p lines per 8 tuples, so
// each extra pattern bit halves the fetch count.
func RunPatternSweep(opts Options) (*PatternSweepResult, error) {
	res := &PatternSweepResult{Opts: opts}
	err := opts.pool().Run(4, func(p int) error {
		label := fmt.Sprintf("pattbits/p%d", p)
		if opts.Sample != nil {
			label = ""
		}
		db, err := templateDB(imdb.GSStore, opts.Tuples)
		if err != nil {
			return err
		}
		cfg := opts.memConfig(1)
		cfg.EnablePrefetch = true
		r, err := opts.newRig(label, cfg)
		if err != nil {
			return err
		}
		var ar imdb.AnalyticsResult
		s, err := db.AnalyticsStreamPatternBits([]int{0}, p, &ar)
		if err != nil {
			return err
		}
		var m RunMetrics
		if opts.Sample != nil {
			m, res.Sampled[p], err = runSampled(sampleConfigFor(*opts.Sample, p), db.Machine(), r, s)
			if err != nil {
				return fmt.Errorf("bench: pattern sweep p=%d sampled: %w", p, err)
			}
		} else {
			m = r.run(0, s)
		}
		checkSums(&ar, opts.Tuples, []int{0})
		res.Cycles[p] = m.Cycles
		res.LineReads[p] = m.Ctrl.ReadsServed
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// SampledEntries flattens the sampled estimates in sweep order; empty
// when the sweep ran in full detail.
func (r *PatternSweepResult) SampledEntries() []SampledEntry {
	var es []SampledEntry
	for p, est := range r.Sampled {
		if est != nil {
			es = append(es, SampledEntry{Run: fmt.Sprintf("pattbits/p%d", p), Result: est})
		}
	}
	return es
}

// Table renders the pattern-bit sweep.
func (r *PatternSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Pattern-bit sweep (Section 3.5): prefetched 1-column scan, %d tuples", r.Opts.Tuples),
		"pattern bits", "widest stride", "cycles (M)", "DRAM line reads")
	for p := 0; p <= 3; p++ {
		t.Add(fmt.Sprint(p), fmt.Sprint(1<<p), stats.Mcycles(r.Cycles[p]), fmt.Sprint(r.LineReads[p]))
	}
	return t
}

// StoreBufferResult compares transaction latency with blocking stores
// against an 8-entry store buffer, per layout. The column store issues
// one store-miss per written field, so it benefits the most; GS-DRAM and
// the row store hit the already-fetched tuple line and benefit little —
// the layout conclusion is robust to this core microarchitecture choice.
type StoreBufferResult struct {
	Opts Options
	// Cycles[layout][0] = blocking stores, [1] = 8-entry store buffer.
	Cycles map[imdb.Layout][2]uint64
}

// RunStoreBuffer runs a write-heavy transaction mix under both store
// models.
func RunStoreBuffer(opts Options) (*StoreBufferResult, error) {
	res := &StoreBufferResult{Opts: opts, Cycles: map[imdb.Layout][2]uint64{}}
	mix := imdb.TxnMix{RO: 1, WO: 3}
	sbCaps := []int{0, 8}
	runs := make([]uint64, len(layouts)*2)
	err := opts.pool().Run(len(runs), func(j int) error {
		layout, sbCap := layouts[j/2], sbCaps[j%2]
		db, err := templateDB(layout, opts.Tuples)
		if err != nil {
			return err
		}
		r, err := opts.newRig(fmt.Sprintf("storebuf/%v/sb%d", layout, sbCap), opts.memConfig(1))
		if err != nil {
			return err
		}
		s, err := db.TransactionStream(mix, opts.Txns, opts.Seed, nil)
		if err != nil {
			return err
		}
		runs[j] = r.run(sbCap, s).Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	for li, layout := range layouts {
		res.Cycles[layout] = [2]uint64{runs[li*2], runs[li*2+1]}
	}
	return res, nil
}

// Table renders the store-buffer ablation.
func (r *StoreBufferResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Store-buffer ablation: 1-read/3-write transactions, %d txns, %d tuples (Mcycles)", r.Opts.Txns, r.Opts.Tuples),
		"layout", "blocking stores", "8-entry store buffer", "speedup")
	for _, l := range layouts {
		c := r.Cycles[l]
		t.Add(l.String(), stats.Mcycles(c[0]), stats.Mcycles(c[1]), stats.Ratio(float64(c[0]), float64(c[1])))
	}
	return t
}

// PixelsResult holds the §5.3 graphics comparison: channel histogram and
// random shading on plain vs GS images.
type PixelsResult struct {
	N int
	// HistCycles / HistLines indexed: 0 = plain, 1 = GS.
	HistCycles [2]uint64
	HistLines  [2]uint64
	// ShadeCycles for a batch of random per-pixel shades.
	ShadeCycles [2]uint64
}

// RunPixels runs the graphics workload: a full-image channel histogram
// (favours gathers) and a batch of random 3-channel shades (favours
// whole records, which both layouts have). Pixel data and shade lists
// are drawn from opts.Seed.
func RunPixels(n, shades int, opts Options) (*PixelsResult, error) {
	if n <= 0 || n%8 != 0 {
		return nil, fmt.Errorf("bench: pixel count must be a positive multiple of 8")
	}
	res := &PixelsResult{N: n}
	// Both layouts fill the image from the same re-seeded rng, so they see
	// identical pixel data and shade lists.
	err := opts.pool().Run(2, func(i int) error {
		gs := i == 1
		mach, err := machine.Default()
		if err != nil {
			return err
		}
		img, err := pixels.New(mach, n, gs)
		if err != nil {
			return err
		}
		rng := sim.NewRand(opts.Seed)
		for p := 0; p < n; p++ {
			for c := 0; c < pixels.NumChannels; c++ {
				if err := img.Set(p, c, rng.Uint64()%4096); err != nil {
					return err
				}
			}
		}

		// Histogram.
		hist, err := opts.newRig("", opts.memConfig(1))
		if err != nil {
			return err
		}
		s, err := img.HistogramStream(pixels.ChanR, nil)
		if err != nil {
			return err
		}
		m := hist.run(0, s)
		res.HistCycles[i] = m.Cycles
		res.HistLines[i] = m.Ctrl.ReadsServed

		// Shading.
		shade, err := opts.newRig("", opts.memConfig(1))
		if err != nil {
			return err
		}
		list := make([]int, shades)
		for j := range list {
			list[j] = rng.Intn(n)
		}
		s, err = img.ShadeStream(list)
		if err != nil {
			return err
		}
		res.ShadeCycles[i] = shade.run(0, s).Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Table renders the graphics comparison.
func (r *PixelsResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Graphics (Section 5.3): %d pixels, 8 channels", r.N),
		"layout", "histogram cycles (M)", "histogram line fetches", "shade cycles (M)")
	labels := []string{"plain", "GS-DRAM (patt 7 channels)"}
	for i, l := range labels {
		t.Add(l, stats.Mcycles(r.HistCycles[i]), fmt.Sprint(r.HistLines[i]), stats.Mcycles(r.ShadeCycles[i]))
	}
	return t
}
