package cpu

import (
	"testing"

	"gsdram/internal/addrmap"
	"gsdram/internal/memsys"
	"gsdram/internal/sim"
)

type rig struct {
	q   *sim.EventQueue
	mem *memsys.System
}

func newRig(t *testing.T, cores int) *rig {
	t.Helper()
	q := &sim.EventQueue{}
	mem, err := memsys.New(memsys.DefaultConfig(cores), q)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{q: q, mem: mem}
}

func addr(bank, row, col int) addrmap.Addr {
	return addrmap.Default.Compose(addrmap.Loc{Bank: bank, Row: row, Col: col})
}

func TestPureComputeRuntime(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{Compute(100), Compute(50)}), nil)
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	if !s.Finished {
		t.Fatal("core never finished")
	}
	if s.Runtime() != 150 {
		t.Fatalf("runtime = %d, want 150", s.Runtime())
	}
	if s.Instructions != 150 {
		t.Fatalf("instructions = %d, want 150", s.Instructions)
	}
	if got := s.IPC(); got != 1.0 {
		t.Fatalf("IPC = %v, want 1.0", got)
	}
}

func TestLoadBlocksCore(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{Load(addr(0, 1, 0), 1)}), nil)
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	// Cold miss: 3 + 18 + 130 = 151 cycles; the core's 1-cycle issue slot
	// overlaps, so stall = 150.
	if s.MemStallCycles != 150 {
		t.Fatalf("stall = %d, want 150", s.MemStallCycles)
	}
	if s.Runtime() != 151 {
		t.Fatalf("runtime = %d, want 151", s.Runtime())
	}
	if s.Loads != 1 || s.Instructions != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestL1HitHasNoStall(t *testing.T) {
	r := newRig(t, 1)
	a := addr(0, 1, 0)
	core := New(0, r.q, r.mem, SliceStream([]Op{Load(a, 1), Load(a, 2)}), nil)
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	// Second load hits L1 (3 cycles): stall 2 on top of the cold miss 150.
	if s.MemStallCycles != 152 {
		t.Fatalf("stall = %d, want 152", s.MemStallCycles)
	}
}

func TestStoreCounts(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{Store(addr(0, 1, 0), 1), Compute(10)}), nil)
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	if s.Stores != 1 || s.Instructions != 11 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestPattLoadCarriesPattern(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{PattLoad(addr(0, 1, 0), 7, 1)}), nil)
	core.Start(0)
	r.q.Run()
	if ms := r.mem.MemStats(); ms.PatternedReads != 1 {
		t.Fatalf("patterned reads = %d, want 1", ms.PatternedReads)
	}
}

func TestPattStoreHelper(t *testing.T) {
	op := PattStore(0x40, 7, 9)
	if op.Kind != OpStore || op.Pattern != 7 || !op.Shuffled || op.AltPattern != 7 || op.PC != 9 {
		t.Fatalf("PattStore = %+v", op)
	}
}

func TestOnDoneCallback(t *testing.T) {
	r := newRig(t, 1)
	var doneAt sim.Cycle
	core := New(0, r.q, r.mem, SliceStream([]Op{Compute(42)}), func(now sim.Cycle) { doneAt = now })
	core.Start(0)
	r.q.Run()
	if doneAt != 42 {
		t.Fatalf("onDone at %d, want 42", doneAt)
	}
}

func TestStopHaltsInfiniteStream(t *testing.T) {
	r := newRig(t, 1)
	n := 0
	inf := NewRefill(func(ops []Op) []Op {
		n++
		return append(ops, Compute(10))
	})
	var core *Core
	core = New(0, r.q, r.mem, inf, nil)
	// Stop the core at cycle 105 (mid-block); it halts at the next
	// boundary.
	r.q.Schedule(105, func(sim.Cycle) { core.Stop() })
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	if !s.Finished {
		t.Fatal("core never stopped")
	}
	if s.FinishCycle != 110 {
		t.Fatalf("stopped at %d, want 110 (next op boundary)", s.FinishCycle)
	}
}

func TestTwoCoresInterleave(t *testing.T) {
	r := newRig(t, 2)
	mk := func(core int, bank int) Stream {
		i := 0
		return NewRefill(func(ops []Op) []Op {
			if i >= 20 {
				return ops
			}
			i++
			return append(ops, Load(addr(bank, 1, i), uint64(core)))
		})
	}
	c0 := New(0, r.q, r.mem, mk(0, 0), nil)
	c1 := New(1, r.q, r.mem, mk(1, 1), nil)
	c0.Start(0)
	c1.Start(0)
	r.q.Run()
	if !c0.Stats().Finished || !c1.Stats().Finished {
		t.Fatal("cores did not finish")
	}
	// Both issued memory traffic through the shared controller.
	if ms := r.mem.MemStats(); ms.ReadsServed == 0 {
		t.Fatal("no DRAM reads")
	}
}

func TestZeroLengthComputeSkipped(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{Compute(0), Compute(0), Compute(5)}), nil)
	core.Start(0)
	r.q.Run()
	if core.Stats().Runtime() != 5 {
		t.Fatalf("runtime = %d, want 5", core.Stats().Runtime())
	}
}

func TestNilStreamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil stream accepted")
		}
	}()
	New(0, nil, nil, nil, nil)
}

func TestUnknownOpPanics(t *testing.T) {
	r := newRig(t, 1)
	core := New(0, r.q, r.mem, SliceStream([]Op{{Kind: OpKind(99)}}), nil)
	core.Start(0)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown op kind did not panic")
		}
	}()
	r.q.Run()
}

// TestMemoryBoundVsComputeBound sanity-checks the performance model: a
// stream of dependent cold misses must run far slower than the same
// instruction count of pure compute.
func TestMemoryBoundVsComputeBound(t *testing.T) {
	rc := newRig(t, 1)
	compute := New(0, rc.q, rc.mem, SliceStream([]Op{Compute(100)}), nil)
	compute.Start(0)
	rc.q.Run()

	rm := newRig(t, 1)
	ops := make([]Op, 100)
	for i := range ops {
		ops[i] = Load(addr(i%8, i/8+1, (i*17)%128), uint64(i))
	}
	memBound := New(0, rm.q, rm.mem, SliceStream(ops), nil)
	memBound.Start(0)
	rm.q.Run()

	if memBound.Stats().Runtime() < 10*compute.Stats().Runtime() {
		t.Fatalf("memory-bound runtime %d not >> compute-bound %d", memBound.Stats().Runtime(), compute.Stats().Runtime())
	}
}

func TestStoreBufferHidesStoreLatency(t *testing.T) {
	mkOps := func() []Op {
		var ops []Op
		for i := 0; i < 8; i++ {
			ops = append(ops, Store(addr(i%8, 1, i), uint64(i)))
		}
		return ops
	}
	rBlock := newRig(t, 1)
	blocking := New(0, rBlock.q, rBlock.mem, SliceStream(mkOps()), nil)
	blocking.Start(0)
	rBlock.q.Run()

	rBuf := newRig(t, 1)
	buffered := NewWithStoreBuffer(0, rBuf.q, rBuf.mem, SliceStream(mkOps()), nil, 8)
	buffered.Start(0)
	rBuf.q.Run()

	if buffered.Stats().Runtime()*4 > blocking.Stats().Runtime() {
		t.Fatalf("store buffer runtime %d not well below blocking %d",
			buffered.Stats().Runtime(), blocking.Stats().Runtime())
	}
	if buffered.Stats().Stores != 8 || blocking.Stats().Stores != 8 {
		t.Fatal("store counts wrong")
	}
}

func TestStoreBufferFullStalls(t *testing.T) {
	// Capacity 1: the second store must wait for the first to drain.
	r := newRig(t, 1)
	ops := []Op{
		Store(addr(0, 1, 0), 1),
		Store(addr(1, 2, 0), 2),
		Store(addr(2, 3, 0), 3),
	}
	core := NewWithStoreBuffer(0, r.q, r.mem, SliceStream(ops), nil, 1)
	core.Start(0)
	r.q.Run()
	s := core.Stats()
	if !s.Finished {
		t.Fatal("core did not finish")
	}
	if s.MemStallCycles == 0 {
		t.Fatal("full store buffer produced no stalls")
	}
}

func TestStoreBufferLoadsStillBlock(t *testing.T) {
	r := newRig(t, 1)
	core := NewWithStoreBuffer(0, r.q, r.mem, SliceStream([]Op{Load(addr(0, 1, 0), 1)}), nil, 8)
	core.Start(0)
	r.q.Run()
	if core.Stats().Runtime() != 151 {
		t.Fatalf("load runtime = %d, want 151 (loads still block)", core.Stats().Runtime())
	}
}
