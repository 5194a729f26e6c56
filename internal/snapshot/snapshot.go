// Package snapshot implements the obstruction-free scan of Afek, Attiya,
// Dolev, Gafni, Merritt and Shavit ("Atomic snapshots of shared memory",
// JACM 1993) used by Algorithm 4, line 13 of the paper.
//
// A collect reads each register in order; a scan repeatedly collects until
// two contiguous views are identical (a successful double collect) and is
// linearizable at any point between the last two collects.
//
// Two view-equality strategies are provided:
//
//   - ScanVersioned compares per-register write versions, which makes the
//     double collect sound for arbitrary value universes (two writes of the
//     same value are still distinguishable);
//   - Scan compares the values themselves, which is exactly the paper's
//     scan and is sound for Algorithm 4 because each value written to a
//     given register is distinct (Claim 6.1(b)). It tests identity first
//     (the same interface words: same dynamic type, same pointer) and calls
//     reflect.DeepEqual only when the words differ, so the common case of
//     an unchanged register costs two word compares instead of a reflective
//     walk. Identity is never wrong here: Algorithm 4 publishes a fresh
//     allocation per write, and the view being compared holds the previous
//     value live, so its address cannot be reused by an intervening write
//     (no ABA through the allocator). Identical words are DeepEqual, so the
//     outcome is DeepEqual's, except that a value DeepEqual finds unequal
//     to itself (a NaN, a non-nil func) no longer livelocks the scan.
//
// Both scans keep one view per scan, refreshed in place: each collect
// compares the word it reads with the one the previous collect left in
// that slot, then overwrites it. A scan therefore allocates its returned
// view and nothing else.
//
// The scan is not wait-free in general, but every use in this module is:
// Algorithm 4 performs at most m−1 writes per getTS (Lemma 6.14), so the
// number of failed collects is bounded. MaxCollects is a defensive backstop
// that converts an impossible livelock into an error.
package snapshot

import (
	"errors"
	"reflect"
	"unsafe"

	"tsspace/internal/register"
)

// MaxCollects bounds the number of collects a single scan may attempt
// before giving up. In this module's algorithms a scan provably succeeds
// long before the bound; hitting it indicates a broken memory or an
// unbounded writer and is reported as ErrLivelock.
const MaxCollects = 1 << 20

// ErrLivelock is returned when a scan exceeds MaxCollects collects.
var ErrLivelock = errors.New("snapshot: scan exceeded collect budget")

// Collect reads registers [0, mem.Size()) in index order and returns the
// resulting view. A collect alone is not atomic.
func Collect(mem register.Mem) []register.Value {
	view := make([]register.Value, mem.Size())
	for i := range view {
		view[i] = mem.Read(i)
	}
	return view
}

// Scan returns a linearizable view of the registers via double collect with
// value equality: identical interface words first, reflect.DeepEqual when
// they differ. It is sound when, per register, distinct writes install
// distinguishable values — the invariant Algorithm 4 maintains (Claim
// 6.1(b)). The identity test adds no unsoundness: a word read again is the
// object the view still holds, which the allocator cannot have handed to
// an intervening write, and identical words are DeepEqual. Non-comparable
// values (slices, maps) are handled by the DeepEqual fallback and never
// panic. A scan makes one allocation, the returned view.
func Scan(mem register.Mem) ([]register.Value, error) {
	view := Collect(mem)
	for c := 1; c < MaxCollects; c++ {
		if recollect(mem, view) {
			return view, nil
		}
	}
	return nil, ErrLivelock
}

// recollect reads every register in index order into view and reports
// whether each value read equals the one it replaced, i.e. whether this
// collect and the previous one form a successful double collect. Once a
// register differs the rest of the collect only refreshes the view.
func recollect(mem register.Mem, view []register.Value) bool {
	same := true
	for i := range view {
		v := mem.Read(i)
		same = same && valueEqual(view[i], v)
		view[i] = v
	}
	return same
}

// iface is the runtime layout of an interface value: dynamic type word and
// data word.
type iface struct {
	typ, data unsafe.Pointer
}

func valueEqual(a, b register.Value) bool {
	if *(*iface)(unsafe.Pointer(&a)) == *(*iface)(unsafe.Pointer(&b)) {
		return true // the same value, or both ⊥
	}
	if a == nil || b == nil {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// versionSlots is the register count up to which ScanVersioned keeps its
// version stamps on the stack.
const versionSlots = 128

// ScanVersioned returns a linearizable view using per-register write
// versions for the double collect, sound for any value universe. Like Scan
// it refreshes one view in place; on memories of at most 128 registers
// the version stamps live on the stack, so a scan makes one allocation.
func ScanVersioned(mem register.VersionedMem) ([]register.Value, error) {
	view := make([]register.Value, mem.Size())
	var stack [versionSlots]uint64
	vers := stack[:]
	if len(view) > len(stack) {
		vers = make([]uint64, len(view))
	}
	vers = vers[:len(view)]
	for i := range view {
		view[i], vers[i] = mem.ReadVersioned(i)
	}
	for c := 1; c < MaxCollects; c++ {
		same := true
		for i := range view {
			v, ver := mem.ReadVersioned(i)
			same = same && ver == vers[i]
			view[i], vers[i] = v, ver
		}
		if same {
			return view, nil
		}
	}
	return nil, ErrLivelock
}
