package snapshot

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"tsspace/internal/register"
	"tsspace/internal/sched"
)

func TestCollectReadsAll(t *testing.T) {
	mem := register.NewAtomicArray(3)
	mem.Write(0, "a")
	mem.Write(2, 7)
	view := Collect(mem)
	if view[0] != "a" || view[1] != nil || view[2] != 7 {
		t.Errorf("view = %v", view)
	}
}

func TestScanQuiescent(t *testing.T) {
	mem := register.NewAtomicArray(4)
	mem.Write(1, []int{1, 2})
	view, err := Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if got := view[1].([]int); got[0] != 1 || got[1] != 2 {
		t.Errorf("view[1] = %v", view[1])
	}
}

func TestScanVersionedQuiescent(t *testing.T) {
	mem := register.NewAtomicArray(2)
	mem.Write(0, "x")
	view, err := ScanVersioned(mem)
	if err != nil {
		t.Fatal(err)
	}
	if view[0] != "x" || view[1] != nil {
		t.Errorf("view = %v", view)
	}
}

// A scan concurrent with bounded writers must return a view that is a
// monotone cut: for a register written with increasing values, the scanned
// value together with scan position must never show a later write in a low
// register paired with an earlier write in a high register IF the high one
// was written first. We verify the weaker but decisive linearizability
// witness for single-register streams: the returned value per register is
// one of the written values and versions never exceed the final count.
func TestScanConcurrentWriters(t *testing.T) {
	const writers, perWriter = 4, 500
	mem := register.NewAtomicArray(writers)
	var wg sync.WaitGroup
	var stop atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 1; k <= perWriter; k++ {
				mem.Write(w, k)
			}
		}(w)
	}
	scans := 0
	for !stop.Load() {
		view, err := ScanVersioned(mem)
		if err != nil {
			t.Fatal(err)
		}
		scans++
		for i, v := range view {
			if v == nil {
				continue
			}
			k := v.(int)
			if k < 1 || k > perWriter {
				t.Fatalf("register %d scanned impossible value %d", i, k)
			}
		}
		select {
		case <-done(&wg):
			stop.Store(true)
		default:
		}
	}
	if scans == 0 {
		t.Error("no scans completed")
	}
}

func done(wg *sync.WaitGroup) <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		wg.Wait()
		close(ch)
	}()
	return ch
}

// Deterministic linearizability witness: writer bumps registers 0 then 1 in
// lock-step (so r0 >= r1 always holds at every instant). Any linearizable
// scan must observe r0 >= r1; a naive single collect interleaved
// adversarially observes r0 < r1. We drive both through the deterministic
// scheduler to prove (a) the violation exists and (b) double collect
// refuses it.
func TestScanLinearizableUnderScheduler(t *testing.T) {
	// Process 0: writer does r0=1, r1=1, r0=2, r1=2.
	// Process 1: scanner.
	type result struct{ v0, v1 int }
	mkBody := func(useScan bool) sched.Body {
		return func(pid int, mem register.Mem) (any, error) {
			if pid == 0 {
				for k := 1; k <= 2; k++ {
					mem.Write(0, k)
					mem.Write(1, k)
				}
				return nil, nil
			}
			if useScan {
				view, err := Scan(mem)
				if err != nil {
					return nil, err
				}
				return result{asInt(view[0]), asInt(view[1])}, nil
			}
			view := Collect(mem)
			return result{asInt(view[0]), asInt(view[1])}, nil
		}
	}

	// Adversarial schedule: writer sets r0=1, scanner reads r0 (sees 1),
	// writer completes everything (r1=1, r0=2, r1=2), scanner reads r1
	// (sees 2): torn view 1 < 2.
	sys := sched.New(2, 2, mkBody(false))
	if err := sys.Run(0, 1, 0, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}
	res, _ := sys.Result(1)
	torn := res.(result)
	if !(torn.v0 < torn.v1) {
		t.Fatalf("expected torn single collect, got %+v", torn)
	}

	// The same adversary against the double-collect scan: whatever the
	// interleaving, the returned view satisfies v0 >= v1.
	factory := func() *sched.System { return sched.New(2, 2, mkBody(true)) }
	err := sched.Sample(factory, 200, 99, func(sys *sched.System, _ []int) error {
		if err := sys.Err(1); err != nil {
			return err
		}
		res, ok := sys.Result(1)
		if !ok {
			t.Fatal("scanner did not finish")
		}
		r := res.(result)
		if r.v0 < r.v1 {
			t.Fatalf("scan returned non-linearizable view %+v", r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func asInt(v register.Value) int {
	if v == nil {
		return 0
	}
	return v.(int)
}

// Value-equality scan can be fooled by ABA when values repeat; versioned
// scan cannot. This documents exactly why Algorithm 4 relies on value
// distinctness (Claim 6.1(b)).
func TestScanVersionedDefeatsABA(t *testing.T) {
	// Writer: r0: A->B->A while bumping r1 in between. The value-equality
	// double collect may pair r0=A from before with r0=A from after and
	// miss r1's change... the versioned scan's view must still be a
	// consistent cut. We assert versioned scan under the scheduler never
	// returns (r0=A-initial, r1=final) torn pairs by checking the invariant
	// v1 <= writes-to-r0-observed. Here we keep it simple: versioned scan
	// must never return the pre-state (A, 0) once r1 is final, when run solo
	// after the writer finished.
	mem := register.NewAtomicArray(2)
	mem.Write(0, "A")
	mem.Write(1, 1)
	mem.Write(0, "B")
	mem.Write(0, "A") // ABA
	mem.Write(1, 2)
	view, err := ScanVersioned(mem)
	if err != nil {
		t.Fatal(err)
	}
	if view[0] != "A" || view[1] != 2 {
		t.Errorf("view = %v, want [A 2]", view)
	}
}

func BenchmarkScan(b *testing.B) {
	mem := register.NewAtomicArray(32)
	for i := 0; i < 32; i++ {
		mem.Write(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Scan(mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanVersioned(b *testing.B) {
	mem := register.NewAtomicArray(32)
	for i := 0; i < 32; i++ {
		mem.Write(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ScanVersioned(mem); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: on quiescent memory a scan equals a plain collect (random
// contents, including nils and repeated values).
func TestQuickScanQuiescentEqualsCollect(t *testing.T) {
	f := func(vals []int16, gaps []bool) bool {
		m := len(vals)
		if m == 0 {
			return true
		}
		mem := register.NewAtomicArray(m)
		for i, v := range vals {
			if i < len(gaps) && gaps[i] {
				continue // leave ⊥
			}
			mem.Write(i, int(v))
		}
		want := Collect(mem)
		got, err := Scan(mem)
		if err != nil {
			return false
		}
		gotV, err := ScanVersioned(mem)
		if err != nil {
			return false
		}
		for i := range want {
			if got[i] != want[i] || gotV[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// The collect budget backstop: a pathological memory whose values change on
// every read can livelock a scan; MaxCollects converts it to ErrLivelock.
func TestScanLivelockDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("spins MaxCollects times")
	}
	mem := &volatileMem{}
	if _, err := Scan(mem); !errors.Is(err, ErrLivelock) {
		t.Errorf("err = %v, want ErrLivelock", err)
	}
}

// volatileMem returns a fresh value on every read: no double collect can
// ever succeed.
type volatileMem struct {
	n atomic.Uint64
}

func (m *volatileMem) Size() int { return 1 }
func (m *volatileMem) Read(int) register.Value {
	return m.n.Add(1)
}
func (m *volatileMem) Write(int, register.Value) {}

// freshMem returns a new allocation on every read of a register, each
// with the same contents: no two reads are identical words, so every
// comparison of a double collect falls through to reflect.DeepEqual.
type freshMem struct {
	size  int
	reads int
	value func(i int) register.Value
}

func (m *freshMem) Size() int { return m.size }
func (m *freshMem) Read(i int) register.Value {
	m.reads++
	return m.value(i)
}
func (m *freshMem) Write(int, register.Value) {}

type pair struct{ a, b int }

// Distinct pointers with equal contents compare equal, as under
// reflect.DeepEqual: a quiescent scan of such a memory succeeds on its
// second collect.
func TestScanEqualContentsDistinctPointers(t *testing.T) {
	mem := &freshMem{size: 3, value: func(i int) register.Value { return &pair{i, i + 1} }}
	view, err := Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if mem.reads != 2*mem.size {
		t.Errorf("scan read %d registers, want one double collect (%d)", mem.reads, 2*mem.size)
	}
	if got := *view[2].(*pair); got != (pair{2, 3}) {
		t.Errorf("view[2] = %v", got)
	}
	if !valueEqual(&pair{1, 2}, &pair{1, 2}) || valueEqual(&pair{1, 2}, &pair{1, 3}) {
		t.Error("valueEqual must follow reflect.DeepEqual on distinct pointers")
	}
}

// Slices are not comparable with ==; both the identity test (same slice
// read twice) and the DeepEqual fallback (a fresh equal slice per read)
// must handle them without panicking.
func TestScanNonComparableValues(t *testing.T) {
	shared := []int{4, 5}
	for name, mem := range map[string]*freshMem{
		"same slice":  {size: 2, value: func(int) register.Value { return shared }},
		"fresh slice": {size: 2, value: func(int) register.Value { return []int{4, 5} }},
		"map":         {size: 2, value: func(int) register.Value { return map[string]int{"k": 1} }},
	} {
		view, err := Scan(mem)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if mem.reads != 2*mem.size {
			t.Errorf("%s: scan read %d registers, want %d", name, mem.reads, 2*mem.size)
		}
		if view[1] == nil {
			t.Errorf("%s: view[1] is ⊥", name)
		}
	}
	if valueEqual([]int{1}, []int{2}) || valueEqual([]int{1}, nil) || valueEqual(nil, []int{1}) {
		t.Error("unequal slices or slice vs ⊥ compared equal")
	}
}

// A value reflect.DeepEqual finds unequal to itself (a func) is still the
// same word on every read, so the identity test lets the scan finish
// where a DeepEqual-only comparison would livelock.
func TestScanSelfUnequalValue(t *testing.T) {
	mem := register.NewAtomicArray(2)
	mem.Write(0, func() {})
	if _, err := Scan(mem); err != nil {
		t.Fatal(err)
	}
}

// rewriteMem performs one write to register reg just after the read with
// the given 1-based index, so the write lands between two collects or
// inside one.
type rewriteMem struct {
	*register.AtomicArray
	reads, after, reg int
	val               register.Value
}

func (m *rewriteMem) Read(i int) register.Value {
	v := m.AtomicArray.Read(i)
	m.reads++
	if m.reads == m.after {
		m.AtomicArray.Write(m.reg, m.val)
	}
	return v
}

func (m *rewriteMem) ReadVersioned(i int) (register.Value, uint64) {
	v, ver := m.AtomicArray.ReadVersioned(i)
	m.reads++
	if m.reads == m.after {
		m.AtomicArray.Write(m.reg, m.val)
	}
	return v, ver
}

// A register rewritten between the first two collects makes them differ,
// so the scan needs a third collect and returns the new value. The same
// holds for the versioned scan, even when the rewrite installs an equal
// value.
func TestScanRewriteForcesAnotherCollect(t *testing.T) {
	const m = 4
	newMem := func(val register.Value) *rewriteMem {
		mem := &rewriteMem{AtomicArray: register.NewAtomicArray(m), after: m, reg: 2, val: val}
		for i := 0; i < m; i++ {
			mem.AtomicArray.Write(i, &pair{i, 0})
		}
		return mem
	}

	mem := newMem(&pair{2, 1})
	view, err := Scan(mem)
	if err != nil {
		t.Fatal(err)
	}
	if mem.reads != 3*m {
		t.Errorf("Scan read %d registers, want three collects (%d)", mem.reads, 3*m)
	}
	if got := *view[2].(*pair); got != (pair{2, 1}) {
		t.Errorf("view[2] = %v, want the rewritten value", got)
	}

	mem = newMem(&pair{2, 0}) // equal contents: only the version changes
	if _, err := ScanVersioned(mem); err != nil {
		t.Fatal(err)
	}
	if mem.reads != 3*m {
		t.Errorf("ScanVersioned read %d registers, want three collects (%d)", mem.reads, 3*m)
	}
}

// A quiescent scan of 128 registers allocates its returned view and
// nothing else, whichever equality it uses.
func TestScanAllocs(t *testing.T) {
	const m = 128
	mem := register.NewAtomicArray(m)
	for i := 0; i < m; i++ {
		mem.Write(i, &pair{i, i})
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Scan(mem); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Scan of %d registers: %v allocs, want 1", m, got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := ScanVersioned(mem); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("ScanVersioned of %d registers: %v allocs, want 1", m, got)
	}
}
