package register_test

import (
	"testing"

	"tsspace/internal/register"
)

// sliceMem is a minimal unversioned memory, so the fuzzed stack exercises
// the Versioned middleware's own version table rather than a substrate's.
type sliceMem struct {
	vals []register.Value
}

func (m *sliceMem) Size() int                     { return len(m.vals) }
func (m *sliceMem) Read(i int) register.Value     { return m.vals[i] }
func (m *sliceMem) Write(i int, v register.Value) { m.vals[i] = v }

// FuzzMiddlewareStack drives a full engine-shaped middleware stack —
// shared version table, shared meter, per-process write discipline — with
// an arbitrary operation stream and checks it against a plain reference
// array: reads see exactly the reference values, versions count exactly
// the applied writes, the meter's totals match, and the discipline panics
// precisely on forbidden writes (before any layer below records anything).
func FuzzMiddlewareStack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x07})                                     // p0 reads r0
	f.Add([]byte{0x00, 0x40, 0x07, 0x01, 0x41, 0x09, 0x82, 0x02, 0x00}) // writes + versioned read
	f.Add([]byte{0x03, 0x40, 0x01})                                     // p3 writing r0: forbidden
	f.Add([]byte{0x02, 0x42, 0x05, 0x00, 0x02, 0x00})                   // free register traffic

	const n, m = 4, 3
	table := [][]int{{0, 1}, {2, 3}, nil} // 2-writer, 2-writer, free

	f.Fuzz(func(t *testing.T, data []byte) {
		base := &sliceMem{vals: make([]register.Value, m)}
		vs := register.NewVersions(m)
		meter := register.NewMeterSize(m)
		handles := make([]register.Mem, n)
		for pid := 0; pid < n; pid++ {
			handles[pid] = register.Wrap(base,
				register.Versioned(vs),
				register.Metered(meter),
				register.DisciplineFor(table, pid),
			)
		}

		ref := make([]register.Value, m)
		writeCount := make([]uint64, m)
		var reads, writes uint64

		tryWrite := func(h register.Mem, reg int, v int64) (panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			h.Write(reg, v)
			return false
		}
		allowed := func(reg, pid int) bool {
			if table[reg] == nil {
				return true
			}
			for _, w := range table[reg] {
				if w == pid {
					return true
				}
			}
			return false
		}

		for i := 0; i+2 < len(data); i += 3 {
			pid := int(data[i] % n)
			versioned := data[i]&0x80 != 0
			reg := int(data[i+1] % m)
			isWrite := data[i+1]&0x40 != 0
			val := int64(data[i+2])
			h := handles[pid]

			if isWrite {
				panicked := tryWrite(h, reg, val)
				if panicked == allowed(reg, pid) {
					t.Fatalf("op %d: p%d write r%d: panicked=%v, allowed=%v", i/3, pid, reg, panicked, allowed(reg, pid))
				}
				if !panicked {
					ref[reg] = val
					writeCount[reg]++
					writes++
				}
				continue
			}
			var got register.Value
			if versioned {
				vm, ok := h.(register.VersionedMem)
				if !ok {
					t.Fatalf("stack lost the VersionedMem capability: %T", h)
				}
				var ver uint64
				got, ver = vm.ReadVersioned(reg)
				if ver != writeCount[reg] {
					t.Fatalf("op %d: r%d version = %d, want %d applied writes", i/3, reg, ver, writeCount[reg])
				}
			} else {
				got = h.Read(reg)
			}
			reads++
			if got != ref[reg] {
				t.Fatalf("op %d: p%d read r%d = %v, want %v", i/3, pid, reg, got, ref[reg])
			}
		}

		rep := meter.Report()
		if rep.Reads != reads || rep.Writes != writes {
			t.Fatalf("meter totals %d/%d, reference %d/%d (forbidden writes must not be recorded)",
				rep.Reads, rep.Writes, reads, writes)
		}
		// The version table must agree with the reference write counts;
		// probe through a meter-free handle so the totals above stay valid.
		probe := register.Wrap(base, register.Versioned(vs)).(register.VersionedMem)
		for reg := 0; reg < m; reg++ {
			if _, ver := probe.ReadVersioned(reg); ver != writeCount[reg] {
				t.Fatalf("final r%d version = %d, want %d", reg, ver, writeCount[reg])
			}
		}
	})
}

// FuzzScalarStack drives the stack the SDK builds for scalar-valued
// algorithms — an Int64Array under a shared meter and per-process write
// discipline — with an arbitrary stream of ReadInt64, WriteInt64 and
// MaxInt64 operations, checked against a plain reference slice: reads and
// collect maxima match the reference, the meter's totals and per-register
// read counts match the reads issued (a MaxInt64(k) counts as k reads of
// registers 0..k−1), and the discipline panics precisely on forbidden
// writes, which the meter never records.
func FuzzScalarStack(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x07})                                     // p0 reads r0
	f.Add([]byte{0x40, 0x00, 0x00, 0x80, 0x04, 0x00})                   // p0 writes 0 to r0, collects all
	f.Add([]byte{0x43, 0x00, 0x01})                                     // p3 writing r0: forbidden
	f.Add([]byte{0x42, 0x02, 0x09, 0x41, 0x00, 0x05, 0x81, 0x02, 0x00}) // collect stops before r2

	const n, m = 4, 4
	table := [][]int{{0, 1}, {2, 3}, nil, {3}} // 2-writer, 2-writer, free, single-writer

	f.Fuzz(func(t *testing.T, data []byte) {
		base := register.NewInt64Array(m)
		meter := register.NewMeterSize(m)
		handles := make([]register.Int64Mem, n)
		for pid := range handles {
			h, ok := register.Wrap(base, register.Metered(meter), register.DisciplineFor(table, pid)).(register.Int64Mem)
			if !ok {
				t.Fatal("metered+disciplined Int64Array lost the Int64Mem capability")
			}
			handles[pid] = h
		}

		ref := []int64{-1, -1, -1, -1} // −1 is ⊥
		readCounts := make([]uint64, m)
		var reads, writes uint64

		tryWrite := func(h register.Int64Mem, reg int, v int64) (panicked bool) {
			defer func() {
				if recover() != nil {
					panicked = true
				}
			}()
			h.WriteInt64(reg, v)
			return false
		}
		allowed := func(reg, pid int) bool {
			if table[reg] == nil {
				return true
			}
			for _, w := range table[reg] {
				if w == pid {
					return true
				}
			}
			return false
		}

		// Each op is three bytes: kind (top two bits) and pid, register
		// (or collect width), value.
		for i := 0; i+2 < len(data); i += 3 {
			pid := int(data[i] % n)
			h := handles[pid]
			switch data[i] >> 6 {
			case 1: // WriteInt64
				reg, val := int(data[i+1]%m), int64(data[i+2])
				panicked := tryWrite(h, reg, val)
				if panicked == allowed(reg, pid) {
					t.Fatalf("op %d: p%d write r%d: panicked=%v, allowed=%v", i/3, pid, reg, panicked, allowed(reg, pid))
				}
				if !panicked {
					ref[reg] = val
					writes++
				}
			case 2: // MaxInt64
				k := int(data[i+1] % (m + 1))
				want := int64(-1)
				for r := 0; r < k; r++ {
					want = max(want, ref[r])
					readCounts[r]++
				}
				reads += uint64(k)
				if got := h.MaxInt64(k); got != want {
					t.Fatalf("op %d: p%d MaxInt64(%d) = %d, want %d", i/3, pid, k, got, want)
				}
			default: // ReadInt64
				reg := int(data[i+1] % m)
				readCounts[reg]++
				reads++
				v, ok := h.ReadInt64(reg)
				if wantOK := ref[reg] >= 0; ok != wantOK || (ok && v != ref[reg]) {
					t.Fatalf("op %d: p%d ReadInt64(%d) = (%d, %v), want %d", i/3, pid, reg, v, ok, ref[reg])
				}
			}
		}

		rep := meter.Report()
		if rep.Reads != reads || rep.Writes != writes {
			t.Fatalf("meter totals %d/%d, reference %d/%d (forbidden writes must not be recorded)",
				rep.Reads, rep.Writes, reads, writes)
		}
		for reg, c := range readCounts {
			if rep.ReadCounts[reg] != c {
				t.Fatalf("meter read count of r%d = %d, want %d", reg, rep.ReadCounts[reg], c)
			}
		}
	})
}
