package dense

import (
	"errors"
	"fmt"
	"testing"

	"tsspace/internal/hbcheck"
	"tsspace/internal/register"
	"tsspace/internal/timestamp"
)

func TestUsesNMinusOneRegisters(t *testing.T) {
	for _, n := range []int{2, 3, 10, 101} {
		if got := New(n).Registers(); got != n-1 {
			t.Errorf("n=%d: Registers = %d, want %d", n, got, n-1)
		}
	}
}

func TestSilentProcessOrdersAgainstWriters(t *testing.T) {
	const n = 4
	alg := New(n)
	mem := timestamp.NewMem(alg)
	silent := n - 1

	// writer w1 → silent s1 → writer w2 → silent s2: all must be strictly
	// increasing under compare.
	w1, err := alg.GetTS(mem, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := alg.GetTS(mem, silent, 0)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := alg.GetTS(mem, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := alg.GetTS(mem, silent, 1)
	if err != nil {
		t.Fatal(err)
	}
	seq := []timestamp.Timestamp{w1, s1, w2, s2}
	if err := timestamp.CheckStrictlyIncreasing(seq, alg.Compare); err != nil {
		t.Fatal(err)
	}
	// The silent timestamps carry the ε component.
	if s1.Turn == 0 || s2.Turn == 0 {
		t.Errorf("silent timestamps missing ε: %v %v", s1, s2)
	}
	// Writers' timestamps are integers.
	if w1.Turn != 0 || w2.Turn != 0 {
		t.Errorf("writer timestamps carry ε: %v %v", w1, w2)
	}
}

func TestSilentOnlyExecution(t *testing.T) {
	// The silent process alone: timestamps (0,1), (0,2), … strictly
	// increasing without a single register write.
	const n = 3
	alg := New(n)
	mem := timestamp.NewMem(alg)
	var prev timestamp.Timestamp
	for seq := 0; seq < 5; seq++ {
		ts, err := alg.GetTS(mem, n-1, seq)
		if err != nil {
			t.Fatal(err)
		}
		if seq > 0 && !alg.Compare(prev, ts) {
			t.Errorf("seq %d: %v not after %v", seq, ts, prev)
		}
		prev = ts
	}
	for i := 0; i < mem.Size(); i++ {
		if mem.Read(i) != nil {
			t.Errorf("silent process wrote register %d", i)
		}
	}
}

// The broken two-silent variant must violate the happens-before property:
// two silent processes calling sequentially return equal timestamps. This
// demonstrates (a) why one non-writer is the limit of the dense-universe
// trick, i.e. why n−1 registers is tight for this construction, and (b)
// that hbcheck actually catches specification violations (failure
// injection for the checker).
func TestTwoSilentViolatesSpec(t *testing.T) {
	const n = 4
	alg := TwoSilent(n)
	mem := timestamp.NewMem(alg)
	var rec hbcheck.Recorder[timestamp.Timestamp]

	issue := func(pid, seq int) {
		t.Helper()
		start := rec.Begin()
		ts, err := alg.GetTS(mem, pid, seq)
		if err != nil {
			t.Fatal(err)
		}
		rec.End(pid, seq, start, ts)
	}
	// Silent process A then silent process B, strictly sequential: both
	// compute (0, 1).
	issue(n-1, 0)
	issue(n-2, 0)

	err := hbcheck.CheckRecorder(&rec, alg.Compare)
	if err == nil {
		t.Fatal("two-silent variant produced a consistent history; expected a violation")
	}
	var v hbcheck.Violation[timestamp.Timestamp]
	if !errors.As(err, &v) {
		t.Fatalf("unexpected error type %T: %v", err, err)
	}
	t.Logf("detected as expected: %v", v)
}

func TestWriterTableSize(t *testing.T) {
	if got := len(New(5).WriterTable()); got != 4 {
		t.Errorf("writer table size %d, want 4", got)
	}
}

func TestPidValidation(t *testing.T) {
	alg := New(3)
	mem := timestamp.NewMem(alg)
	if _, err := alg.GetTS(mem, 3, 0); err == nil {
		t.Error("pid out of range accepted")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { New(1) },
		func() { TwoSilent(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	if New(2).Name() != "dense" || TwoSilent(3).Name() != "dense-broken-2silent" {
		t.Error("unexpected names")
	}
}

// scalarStack returns the per-process memories tsspace.New builds for a
// scalar-valued algorithm: one Int64Array shared by every process, under
// an optional meter and the algorithm's writer discipline.
func scalarStack(alg *Alg, procs int, metered bool) []register.Mem {
	base := register.NewInt64Array(alg.Registers())
	var meter register.Middleware
	if metered {
		meter = register.Metered(register.NewMeterSize(base.Size()))
	}
	mems := make([]register.Mem, procs)
	for pid := range mems {
		mems[pid] = register.Wrap(base, meter, register.DisciplineFor(alg.WriterTable(), pid))
	}
	return mems
}

// The getTS the SDK runs — through the discipline, with and without the
// meter — allocates nothing, for the writers and the silent process.
func TestScalarStackGetTSZeroAllocs(t *testing.T) {
	const n = 64
	alg := New(n)
	for _, metered := range []bool{false, true} {
		mems := scalarStack(alg, n, metered)
		var k int
		allocs := testing.AllocsPerRun(200, func() {
			pid := k % n
			if _, err := alg.GetTS(mems[pid], pid, k/n); err != nil {
				t.Fatal(err)
			}
			k++
		})
		if allocs != 0 {
			t.Errorf("metered=%v: GetTS allocated %.1f objects per call, want 0", metered, allocs)
		}
	}
}

// BenchmarkGetTS runs sequential getTS calls on the boxed AtomicArray and
// on the scalar stacks the SDK builds (see scalarStack).
func BenchmarkGetTS(b *testing.B) {
	for _, stack := range []string{"boxed", "scalar", "scalar-metered"} {
		for _, n := range []int{16, 256, 4096} {
			b.Run(fmt.Sprintf("%s/n=%d", stack, n), func(b *testing.B) {
				alg := New(n)
				var mems []register.Mem
				if stack == "boxed" {
					mems = make([]register.Mem, n)
					mem := timestamp.NewMem(alg)
					for pid := range mems {
						mems[pid] = mem
					}
				} else {
					mems = scalarStack(alg, n, stack == "scalar-metered")
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := alg.GetTS(mems[i%n], i%n, i/n); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
