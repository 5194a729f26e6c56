package register

import (
	"math"
	"reflect"
	"testing"
	"unsafe"
)

// Both scalar arrays must agree with the generic contract: ⊥ until
// written, last write wins, and the generic Read/Write interoperate with
// the scalar operations on the same storage.
func TestInt64ArraysSemantics(t *testing.T) {
	for _, tc := range []struct {
		name string
		mem  Int64Mem
	}{
		{"flat", NewInt64Array(4)},
		{"sharded", NewShardedInt64Array(4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mem
			if m.Size() != 4 {
				t.Fatalf("Size = %d, want 4", m.Size())
			}
			if _, ok := m.ReadInt64(0); ok {
				t.Error("fresh register not ⊥ via ReadInt64")
			}
			if v := m.Read(0); v != nil {
				t.Errorf("fresh register Read = %v, want nil", v)
			}

			m.WriteInt64(0, 0) // 0 is a value, not ⊥
			if v, ok := m.ReadInt64(0); !ok || v != 0 {
				t.Errorf("ReadInt64 after WriteInt64(0, 0) = (%d, %v), want (0, true)", v, ok)
			}
			m.WriteInt64(1, 41)
			m.Write(1, int64(42)) // generic write over scalar storage
			if v, ok := m.ReadInt64(1); !ok || v != 42 {
				t.Errorf("last write lost: (%d, %v)", v, ok)
			}
			if v := m.Read(1); v.(int64) != 42 {
				t.Errorf("generic Read = %v, want 42", v)
			}
			// Negative values would collide with the ⊥ encoding at -1, so
			// the arrays reject them outright.
			func() {
				defer func() {
					if recover() == nil {
						t.Error("WriteInt64 of a negative value did not panic")
					}
				}()
				m.WriteInt64(2, -1)
			}()

			defer func() {
				if recover() == nil {
					t.Error("generic Write of a non-int64 did not panic")
				}
			}()
			m.Write(3, "not a scalar")
		})
	}
}

// Each padded scalar cell must occupy exactly one cache line, or the
// padding buys nothing.
func TestPaddedWordSize(t *testing.T) {
	if sz := unsafe.Sizeof(paddedWord{}); sz != cacheLineSize {
		t.Fatalf("paddedWord is %d bytes, want %d", sz, cacheLineSize)
	}
}

// The middleware stack must carry the Int64Mem capability end to end —
// through every layer alone and in either order — and only over
// substrates that have it.
func TestMiddlewarePreservesInt64Mem(t *testing.T) {
	table := SWMRTable(2)
	meter := NewMeterSize(2)
	stack := Wrap(NewInt64Array(2), Metered(meter), DisciplineFor(table, 0))
	im, ok := stack.(Int64Mem)
	if !ok {
		t.Fatal("metered+disciplined stack over Int64Array lost the scalar fast path")
	}
	im.WriteInt64(0, 9)
	if v, ok := im.ReadInt64(0); !ok || v != 9 {
		t.Fatalf("scalar ops through the stack = (%d, %v)", v, ok)
	}
	if got := im.MaxInt64(2); got != 9 {
		t.Fatalf("MaxInt64 through the stack = %d, want 9", got)
	}
	rep := meter.Report()
	if rep.Writes != 1 || rep.Reads != 3 {
		t.Errorf("meter missed scalar ops: %d writes / %d reads, want 1/3", rep.Writes, rep.Reads)
	}

	// The discipline still bites on the scalar path: pid 0 may not write
	// register 1 under SWMR.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("WriteInt64 against the discipline did not panic")
			}
		}()
		im.WriteInt64(1, 5)
	}()

	// Every layer on its own, and both orders of the pair, keep the
	// capability and forward the collect to the same storage.
	base := NewInt64Array(2)
	base.WriteInt64(1, 4)
	for name, mem := range map[string]Mem{
		"metered":                 Wrap(base, Metered(NewMeterSize(2))),
		"disciplined":             Wrap(base, DisciplineFor(table, 1)),
		"discipline inside meter": Wrap(base, DisciplineFor(table, 1), Metered(NewMeterSize(2))),
		"meter inside discipline": Wrap(base, Metered(NewMeterSize(2)), DisciplineFor(table, 1)),
	} {
		im, ok := mem.(Int64Mem)
		if !ok {
			t.Errorf("%s: stack over Int64Array lost Int64Mem (%T)", name, mem)
			continue
		}
		if got := im.MaxInt64(2); got != 4 {
			t.Errorf("%s: MaxInt64(2) = %d, want 4", name, got)
		}
	}

	// A generic substrate must not grow the capability.
	if _, ok := Wrap(NewAtomicArray(2), Metered(meter)).(Int64Mem); ok {
		t.Error("stack over AtomicArray claims Int64Mem")
	}
	if _, ok := Wrap(NewAtomicArray(2), DisciplineFor(table, 0)).(Int64Mem); ok {
		t.Error("disciplined AtomicArray claims Int64Mem")
	}
}

// loopMax is MaxInt64 spelled as the ReadInt64 loop it replaces.
func loopMax(im Int64Mem, n int) int64 {
	max := int64(-1)
	for i := 0; i < n; i++ {
		if v, ok := im.ReadInt64(i); ok && v > max {
			max = v
		}
	}
	return max
}

// MaxInt64(n) is the maximum over a ReadInt64 loop on every scalar
// memory the SDK builds: −1 while registers 0..n−1 are all ⊥, a written 0
// counts as a value, and registers at or past n are never looked at.
func TestMaxInt64MatchesReadLoop(t *testing.T) {
	const size = 6
	for _, tc := range []struct {
		name string
		mem  Int64Mem
	}{
		{"flat", NewInt64Array(size)},
		{"sharded", NewShardedInt64Array(size)},
		{"metered+disciplined", Wrap(NewInt64Array(size), Metered(NewMeterSize(size)), DisciplineFor(make([][]int, size), 0)).(Int64Mem)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mem
			check := func(stage string) {
				t.Helper()
				for n := 0; n <= size; n++ {
					if got, want := m.MaxInt64(n), loopMax(m, n); got != want {
						t.Errorf("%s: MaxInt64(%d) = %d, ReadInt64 loop gives %d", stage, n, got, want)
					}
				}
			}
			check("all ⊥")
			if got := m.MaxInt64(size); got != -1 {
				t.Errorf("all ⊥: MaxInt64 = %d, want -1", got)
			}
			m.WriteInt64(2, 0)
			check("written 0")
			if got := m.MaxInt64(size); got != 0 {
				t.Errorf("written 0: MaxInt64 = %d, want 0", got)
			}
			if got := m.MaxInt64(2); got != -1 {
				t.Errorf("written 0 at r2: MaxInt64(2) = %d, want -1", got)
			}
			m.WriteInt64(5, 100)
			m.WriteInt64(1, 7)
			check("mixed")
			if got := m.MaxInt64(5); got != 7 {
				t.Errorf("r5 = 100 is past n = 5: MaxInt64(5) = %d, want 7", got)
			}
			m.WriteInt64(0, math.MaxInt64)
			check("largest value")
			if got := m.MaxInt64(1); got != math.MaxInt64 {
				t.Errorf("MaxInt64(1) = %d, want MaxInt64", got)
			}
		})
	}
}

// A collect through the metered layer leaves the same report as the n
// single reads it stands for: totals, per-register counts, MaxReadIndex.
func TestMaxInt64MeterAccounting(t *testing.T) {
	const size = 5
	table := SWMRTable(size)
	bulkMeter, loopMeter := NewMeterSize(size), NewMeterSize(size)
	bulk := Wrap(NewInt64Array(size), Metered(bulkMeter), DisciplineFor(table, 3)).(Int64Mem)
	loop := Wrap(NewInt64Array(size), Metered(loopMeter), DisciplineFor(table, 3)).(Int64Mem)
	for _, n := range []int{0, 2, 3, 1, 5} {
		bulk.WriteInt64(3, int64(n))
		loop.WriteInt64(3, int64(n))
		bulk.MaxInt64(n)
		for i := 0; i < n; i++ {
			loop.ReadInt64(i)
		}
		got, want := bulkMeter.Report(), loopMeter.Report()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after MaxInt64(%d): report %+v, want %+v", n, got, want)
		}
	}
	if rep := bulkMeter.Report(); rep.Reads != 11 || rep.MaxReadIndex != 4 {
		t.Errorf("final report: %d reads, max index %d; want 11, 4", rep.Reads, rep.MaxReadIndex)
	}
}
