package register

import "fmt"

// Middleware decorates a Mem with one cross-cutting concern — metering,
// write discipline, versioning. Layers compose with Wrap; a nil middleware
// is skipped, so conditional layers read naturally:
//
//	mem = register.Wrap(base,
//		register.Metered(meter),
//		register.DisciplineFor(alg.WriterTable(), pid),
//	)
//
// Every layer preserves the VersionedMem capability of the memory below
// it, and Metered and DisciplineFor preserve Int64Mem (and only those: a
// layer never *claims* versioned reads or scalar operations its substrate
// cannot deliver, so algorithms can probe with a type assertion). Both
// forward Int64Mem's MaxInt64 collect as one call — metering records its
// n reads under one lock — so a collect pays each layer once, not once per
// register; MaxInt64 returns a scalar because a buffer passed through an
// interface call would escape to the heap. Versioned serves the
// deterministic scheduler, whose memory is not scalar, and drops Int64Mem.
type Middleware func(Mem) Mem

// Wrap applies mws to mem in order: the first middleware ends up closest
// to the backing memory, the last is outermost (its methods run first).
// Nil middlewares are skipped.
func Wrap(mem Mem, mws ...Middleware) Mem {
	for _, mw := range mws {
		if mw != nil {
			mem = mw(mem)
		}
	}
	return mem
}

// Metered records every operation passing through the layer into meter,
// which may be shared by any number of handles (it is safe for concurrent
// use). Construct the meter with NewMeterSize when it only backs this
// layer.
func Metered(meter *Meter) Middleware {
	return func(inner Mem) Mem {
		mm := &meteredMem{meter: meter, inner: inner}
		if vm, ok := inner.(VersionedMem); ok {
			return &meteredVersioned{meteredMem: mm, vm: vm}
		}
		if im, ok := inner.(Int64Mem); ok {
			return &meteredInt64{meteredMem: mm, im: im}
		}
		return mm
	}
}

type meteredMem struct {
	meter *Meter
	inner Mem
}

func (m *meteredMem) Size() int { return m.inner.Size() }

func (m *meteredMem) Read(i int) Value {
	m.meter.recordRead(i)
	return m.inner.Read(i)
}

func (m *meteredMem) Write(i int, v Value) {
	m.meter.recordWrite(i, -1)
	m.inner.Write(i, v)
}

type meteredVersioned struct {
	*meteredMem
	vm VersionedMem
}

func (m *meteredVersioned) ReadVersioned(i int) (Value, uint64) {
	m.meter.recordRead(i)
	return m.vm.ReadVersioned(i)
}

// meteredInt64 keeps the scalar fast path through a metered layer: the
// counters serialize (metering is documented as a throughput tax) but the
// operations themselves stay boxing- and allocation-free.
type meteredInt64 struct {
	*meteredMem
	im Int64Mem
}

func (m *meteredInt64) ReadInt64(i int) (int64, bool) {
	m.meter.recordRead(i)
	return m.im.ReadInt64(i)
}

func (m *meteredInt64) MaxInt64(n int) int64 {
	m.meter.recordReads(n)
	return m.im.MaxInt64(n)
}

func (m *meteredInt64) WriteInt64(i int, v int64) {
	m.meter.recordWrite(i, -1)
	m.im.WriteInt64(i, v)
}

// DisciplineFor enforces the write-permission table for process pid: the
// WriteQuorum check as a per-process layer. A nil table yields a nil
// middleware, which Wrap skips.
func DisciplineFor(table [][]int, pid int) Middleware {
	if table == nil {
		return nil
	}
	return func(inner Mem) Mem {
		h := NewWriteQuorum(inner, table).Handle(pid)
		if vm, ok := inner.(VersionedMem); ok {
			return &versionedView{Mem: h, vm: vm}
		}
		return h
	}
}

// versionedView adds pass-through versioned reads to a layer whose reads
// need no bookkeeping of their own (discipline only restricts writes).
type versionedView struct {
	Mem
	vm VersionedMem
}

func (v *versionedView) ReadVersioned(i int) (Value, uint64) { return v.vm.ReadVersioned(i) }

// Versions is a shared write-version table: one strictly increasing
// counter per register, bumped after each write applied through a
// Versioned layer. All handles of one run must share a single table, or
// the versions would miss other processes' writes and the double-collect
// soundness argument collapses.
type Versions struct {
	counts []uint64
}

// NewVersions returns a version table for m registers.
func NewVersions(m int) *Versions {
	return &Versions{counts: make([]uint64, m)}
}

// Versioned makes the wrapped memory a VersionedMem by tracking write
// counts in vs. It is meant for serialized worlds (the deterministic
// scheduler), where the substrate lacks native versions: there, the
// scheduler grants one operation at a time and blocks the process until
// its next gate, so the post-operation table update is globally ordered
// with the operation itself. A substrate that already provides versions
// (both atomic arrays do) is returned unchanged and vs is ignored.
func Versioned(vs *Versions) Middleware {
	return func(inner Mem) Mem {
		if _, ok := inner.(VersionedMem); ok {
			return inner
		}
		if vs == nil {
			panic("register: Versioned over an unversioned memory requires a shared Versions table")
		}
		if len(vs.counts) != inner.Size() {
			panic(fmt.Sprintf("register: version table size %d != memory size %d", len(vs.counts), inner.Size()))
		}
		return &versionedMem{inner: inner, vs: vs}
	}
}

type versionedMem struct {
	inner Mem
	vs    *Versions
}

var _ VersionedMem = (*versionedMem)(nil)

func (m *versionedMem) Size() int { return m.inner.Size() }

func (m *versionedMem) Read(i int) Value { return m.inner.Read(i) }

func (m *versionedMem) Write(i int, v Value) {
	m.inner.Write(i, v) // blocks until the scheduler grants the write
	m.vs.counts[i]++
}

func (m *versionedMem) ReadVersioned(i int) (Value, uint64) {
	v := m.inner.Read(i) // blocks until the scheduler grants the read
	return v, m.vs.counts[i]
}

// FirstOpStamp captures a clock stamp immediately after the first granted
// operation of a wrapped memory. Under the deterministic scheduler a
// process "begins" when it is first scheduled: it posts its first request
// at spawn, so stamping any earlier degenerates to creation time and every
// interval looks concurrent. Stamping after the first granted operation is
// sound by the usual reduction — local computation before the first shared
// step is invisible to the system, so there is an equivalent execution in
// which the invocation happens just before that step.
type FirstOpStamp struct {
	clock   func() uint64
	started bool
	stamp   uint64
}

// StampFirstOp wraps inner so that the returned handle's stamp is taken
// from clock right after the wrapped memory's first operation executes.
// Use one wrapper per method call; the handle is not safe for concurrent
// use (each simulated process is single-threaded).
func StampFirstOp(inner Mem, clock func() uint64) (Mem, *FirstOpStamp) {
	s := &FirstOpStamp{clock: clock}
	sm := &stampedMem{inner: inner, s: s}
	if vm, ok := inner.(VersionedMem); ok {
		return &stampedVersioned{stampedMem: sm, vm: vm}, s
	}
	return sm, s
}

// Stamp returns the recorded stamp, taking it now if no operation has
// executed yet (an operation-free call begins at its first visible point,
// which is its response).
func (s *FirstOpStamp) Stamp() uint64 {
	s.note()
	return s.stamp
}

func (s *FirstOpStamp) note() {
	if !s.started {
		s.started = true
		s.stamp = s.clock()
	}
}

type stampedMem struct {
	inner Mem
	s     *FirstOpStamp
}

func (m *stampedMem) Size() int { return m.inner.Size() }

func (m *stampedMem) Read(i int) Value {
	v := m.inner.Read(i)
	m.s.note()
	return v
}

func (m *stampedMem) Write(i int, v Value) {
	m.inner.Write(i, v)
	m.s.note()
}

type stampedVersioned struct {
	*stampedMem
	vm VersionedMem
}

func (m *stampedVersioned) ReadVersioned(i int) (Value, uint64) {
	v, ver := m.vm.ReadVersioned(i)
	m.s.note()
	return v, ver
}
