package register

import (
	"sort"
	"sync"
)

// SpaceReport summarizes the register footprint of an execution: it is the
// measurement backing every space experiment (E3, E4, E8, E9). The paper
// counts a register as "used" once it can be written; we report both the
// written set and the read set so the sentinel register of Algorithm 4
// (always read, never written — Lemma 6.14) is visible.
type SpaceReport struct {
	// Registers is the size of the underlying array (the allocation budget).
	Registers int
	// Written is the number of distinct registers written at least once.
	Written int
	// WrittenSet lists the written register indices in increasing order.
	WrittenSet []int
	// MaxWrittenIndex is the largest written index, or -1 if none.
	MaxWrittenIndex int
	// MaxReadIndex is the largest index read, or -1 if none.
	MaxReadIndex int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
	// ReadCounts and WriteCounts are per-register operation counts, indexed
	// by register (length Registers).
	ReadCounts, WriteCounts []uint64
}

// Meter records which registers are read and written. It is safe for
// concurrent use. Constructed with NewMeter it is itself a Mem wrapping the
// inner memory (forwarding ReadVersioned when the inner memory supports
// it); constructed with NewMeterSize it is a bare collector fed through the
// Metered middleware, and its Mem methods must not be used.
type Meter struct {
	inner Mem
	size  int

	mu        sync.Mutex
	readCnt   []uint64
	writeCnt  []uint64
	maxRead   int
	maxWrite  int
	written   int // distinct registers written, kept incrementally for Totals
	reads     uint64
	writes    uint64
	perWriter map[int]uint64 // writer pid -> writes, when attributed
}

var _ Mem = (*Meter)(nil)

// NewMeter wraps mem with operation accounting.
func NewMeter(mem Mem) *Meter {
	m := NewMeterSize(mem.Size())
	m.inner = mem
	return m
}

// NewMeterSize returns a collector-only meter for size registers, for use
// with the Metered middleware; it has no backing memory of its own.
func NewMeterSize(size int) *Meter {
	return &Meter{
		size:      size,
		readCnt:   make([]uint64, size),
		writeCnt:  make([]uint64, size),
		maxRead:   -1,
		maxWrite:  -1,
		perWriter: make(map[int]uint64),
	}
}

// Size returns the number of registers.
func (m *Meter) Size() int { return m.size }

// Read records and forwards a read of register i.
func (m *Meter) Read(i int) Value {
	m.recordRead(i)
	return m.inner.Read(i)
}

// ReadVersioned forwards to the inner memory's versioned read. It panics if
// the inner memory is not versioned.
func (m *Meter) ReadVersioned(i int) (Value, uint64) {
	m.recordRead(i)
	return m.inner.(VersionedMem).ReadVersioned(i)
}

// Write records and forwards a write to register i.
func (m *Meter) Write(i int, v Value) {
	m.recordWrite(i, -1)
	m.inner.Write(i, v)
}

// WriteBy records a write attributed to process pid and forwards it.
func (m *Meter) WriteBy(pid, i int, v Value) {
	m.recordWrite(i, pid)
	m.inner.Write(i, v)
}

func (m *Meter) recordRead(i int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readCnt[i]++
	m.reads++
	if i > m.maxRead {
		m.maxRead = i
	}
}

// recordReads records one read of each of registers 0..n−1 — a collect —
// under a single lock acquisition; the counts are those of n recordRead
// calls.
func (m *Meter) recordReads(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.readCnt[:n] {
		m.readCnt[i]++
	}
	m.reads += uint64(n)
	if n-1 > m.maxRead {
		m.maxRead = n - 1
	}
}

func (m *Meter) recordWrite(i, pid int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.writeCnt[i]++
	if m.writeCnt[i] == 1 {
		m.written++
	}
	m.writes++
	if i > m.maxWrite {
		m.maxWrite = i
	}
	if pid >= 0 {
		m.perWriter[pid]++
	}
}

// Report returns the current space report.
func (m *Meter) Report() SpaceReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := SpaceReport{
		Registers:       m.size,
		MaxWrittenIndex: m.maxWrite,
		MaxReadIndex:    m.maxRead,
		Reads:           m.reads,
		Writes:          m.writes,
		ReadCounts:      append([]uint64(nil), m.readCnt...),
		WriteCounts:     append([]uint64(nil), m.writeCnt...),
	}
	for i, c := range m.writeCnt {
		if c > 0 {
			r.Written++
			r.WrittenSet = append(r.WrittenSet, i)
		}
	}
	sort.Ints(r.WrittenSet)
	return r
}

// Totals is the scrape-cheap slice of a SpaceReport: the four scalar
// space measures, with no per-register slices copied.
type Totals struct {
	// Registers is the allocated array size (the budget).
	Registers int
	// Written is the number of distinct registers written at least once —
	// the paper's "used" count that the Θ-bound certificates bound.
	Written int
	// Reads and Writes are total operation counts.
	Reads, Writes uint64
}

// Totals returns the scalar space measures without copying the
// per-register count slices, cheap enough to sample on every metrics
// scrape of a live daemon.
func (m *Meter) Totals() Totals {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Totals{Registers: m.size, Written: m.written, Reads: m.reads, Writes: m.writes}
}

// WritesTo returns the number of writes applied to register i.
func (m *Meter) WritesTo(i int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeCnt[i]
}

// WritesBy returns the number of attributed writes by process pid (only
// writes issued through WriteBy are attributed).
func (m *Meter) WritesBy(pid int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.perWriter[pid]
}

// Reset clears all counters, keeping the underlying memory contents.
func (m *Meter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range m.readCnt {
		m.readCnt[i] = 0
		m.writeCnt[i] = 0
	}
	m.maxRead, m.maxWrite = -1, -1
	m.written = 0
	m.reads, m.writes = 0, 0
	m.perWriter = make(map[int]uint64)
}
