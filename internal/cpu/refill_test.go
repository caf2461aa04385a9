package cpu

import (
	"reflect"
	"testing"
)

// drain pulls every op from s, failing past limit ops.
func drain(t *testing.T, s Stream, limit int) []Op {
	t.Helper()
	var out []Op
	for {
		op, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, op)
		if len(out) > limit {
			t.Fatalf("stream yielded more than %d ops", limit)
		}
	}
}

func TestRefillEmptyFirstBatchEndsStream(t *testing.T) {
	calls := 0
	s := NewRefill(func(ops []Op) []Op {
		calls++
		return ops
	})
	for i := 0; i < 3; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("empty stream yielded an op")
		}
	}
	if calls != 1 {
		t.Fatalf("fill called %d times, want 1", calls)
	}
}

func TestRefillNeverFillsAfterEnd(t *testing.T) {
	calls, batches := 0, 3
	s := NewRefill(func(ops []Op) []Op {
		calls++
		if calls > batches+1 {
			t.Fatalf("fill called again after end of stream (call %d)", calls)
		}
		if calls > batches {
			return ops
		}
		return append(ops, Compute(calls), Compute(10*calls))
	})
	got := drain(t, s, 100)
	for i := 0; i < 5; i++ {
		if _, ok := s.Next(); ok {
			t.Fatal("stream resumed after end")
		}
	}
	want := []Op{Compute(1), Compute(10), Compute(2), Compute(20), Compute(3), Compute(30)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if calls != batches+1 {
		t.Fatalf("fill called %d times, want %d", calls, batches+1)
	}
}

func TestRefillReusesBuffer(t *testing.T) {
	var prev []Op
	calls := 0
	s := NewRefill(func(ops []Op) []Op {
		calls++
		if len(ops) != 0 {
			t.Fatalf("fill %d got %d leftover ops", calls, len(ops))
		}
		if prev != nil {
			if cap(ops) != cap(prev) || &ops[:1][0] != &prev[0] {
				t.Fatalf("fill %d got a new array (cap %d), want the previous batch's (cap %d)",
					calls, cap(ops), cap(prev))
			}
		}
		if calls > 4 {
			return ops
		}
		for i := 0; i < 8; i++ {
			ops = append(ops, Compute(i+1))
		}
		prev = ops
		return ops
	})
	if n := len(drain(t, s, 100)); n != 32 {
		t.Fatalf("got %d ops, want 32", n)
	}
}

func TestSliceStreamYieldsSliceThenStops(t *testing.T) {
	ops := []Op{Compute(1), Load(0x40, 2), Store(0x80, 3)}
	s := SliceStream(ops)
	got := drain(t, s, 10)
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("got %+v, want %+v", got, ops)
	}
	if _, ok := s.Next(); ok {
		t.Fatal("SliceStream yielded past its end")
	}
	if n := len(drain(t, SliceStream(nil), 0)); n != 0 {
		t.Fatalf("empty SliceStream yielded %d ops", n)
	}
}
