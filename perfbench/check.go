package main

import (
	"cmp"
	"fmt"
	"slices"

	"tsspace"
	"tsspace/internal/timestamp/sqrt"
)

// op is one recorded getTS: invocation and response on the run's
// monotonic clock (ns since the run began) and the timestamp returned.
type op struct {
	inv, resp int64
	ts        tsspace.Timestamp
}

// hbChecker verifies the paper's happens-before property over the
// history of one timestamp object: if op a responds before op b is
// invoked, less(a.ts, b.ts) must hold. The scratch buffers are sized
// once, so checking a round allocates nothing.
//
// The sweep sorts the history by response time and keeps a prefix
// maximum under less (a strict weak order for every algorithm served
// here); op b is then checked once, against the maximum of the ops that
// responded before its invocation, found by one pass over the history
// per sequential lane. That is O(N·lanes) for lanes of sequential
// clients and O(N log N) otherwise, where internal/hbcheck's pairwise
// check is O(N²) and cannot take a run's volume.
type hbChecker struct {
	less   func(a, b tsspace.Timestamp) bool
	merged []op
	maxIdx []int32 // maxIdx[i]: index in merged of the maximum of merged[:i+1]

	// carry is the maximum timestamp of the object's earlier rounds.
	// Every op of a round is invoked after every op of the earlier
	// rounds responded, so each must exceed it.
	carry    tsspace.Timestamp
	hasCarry bool
}

func newHBChecker(less func(a, b tsspace.Timestamp) bool, capacity int) *hbChecker {
	return &hbChecker{less: less, merged: make([]op, 0, capacity), maxIdx: make([]int32, capacity)}
}

// reset forgets the carried maximum: the next round belongs to a fresh
// object (one-shot rounds each build their own).
func (c *hbChecker) reset() { c.hasCarry = false }

func byResp(a, b op) int { return cmp.Compare(a.resp, b.resp) }

func byInv(a, b op) int { return cmp.Compare(a.inv, b.inv) }

// check verifies one round, given as one lane per sequential client.
// Lanes recorded by sequential clients are each sorted by response
// time, so they are merged in O(N·lanes); a history in any other order
// is sorted instead.
func (c *hbChecker) check(lanes [][]op) error {
	m := c.merged[:0]
	for _, l := range lanes {
		for i := range l {
			if l[i].resp < l[i].inv {
				return fmt.Errorf("op responds at %d before its invocation at %d", l[i].resp, l[i].inv)
			}
		}
		m = mergeByResp(m, l)
	}
	c.merged = m
	if !slices.IsSortedFunc(m, byResp) {
		slices.SortFunc(m, byResp)
	}
	if len(m) == 0 {
		return nil
	}
	if len(c.maxIdx) < len(m) {
		c.maxIdx = make([]int32, len(m))
	}
	mx := c.maxIdx[:len(m)]
	for i := range m {
		if i == 0 || c.less(m[mx[i-1]].ts, m[i].ts) {
			mx[i] = int32(i)
		} else {
			mx[i] = mx[i-1]
		}
	}
	for _, l := range lanes {
		// A sequential lane is sorted by invocation as well, so the
		// count of ops that responded before each invocation only grows
		// along it and one pass over m finds them all.
		sweep := slices.IsSortedFunc(l, byInv)
		j := 0 // number of ops that responded strictly before b's invocation
		for i := range l {
			b := &l[i]
			if c.hasCarry && !c.less(c.carry, b.ts) {
				return fmt.Errorf("happens-before violated across rounds: %v invoked at %d does not follow the earlier rounds' maximum %v",
					b.ts, b.inv, c.carry)
			}
			if sweep {
				for j < len(m) && m[j].resp < b.inv {
					j++
				}
			} else {
				j = respondedBefore(m, b.inv)
			}
			if j == 0 {
				continue
			}
			if a := &m[mx[j-1]]; !c.less(a.ts, b.ts) {
				return fmt.Errorf("happens-before violated: %v responded at %d, %v invoked at %d, compare(%v, %v) = false",
					a.ts, a.resp, b.ts, b.inv, a.ts, b.ts)
			}
		}
	}
	c.carry, c.hasCarry = m[mx[len(m)-1]].ts, true
	return nil
}

// mergeByResp appends lane l to the resp-sorted dst and restores the
// order by a backward in-place merge (both inputs sorted), so a
// sequential lane costs O(len(dst)+len(l)).
func mergeByResp(dst, l []op) []op {
	n := len(dst)
	dst = append(dst, l...)
	if n == 0 || !slices.IsSortedFunc(l, byResp) {
		return dst
	}
	i, j, k := n-1, len(l)-1, len(dst)-1
	for j >= 0 {
		if i >= 0 && dst[i].resp > l[j].resp {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = l[j]
			j--
		}
		k--
	}
	return dst
}

// respondedBefore returns how many ops of the resp-sorted m respond
// strictly before t.
func respondedBefore(m []op, t int64) int {
	lo, hi := 0, len(m)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m[mid].resp < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// checkSpace is Theorem 1.3's guard: a one-shot object for m processes
// writes at most ⌈2√m⌉ distinct registers.
func checkSpace(written, m int) error {
	if budget := sqrt.RegistersFor(m); written > budget {
		return fmt.Errorf("one-shot object for %d processes wrote %d registers, over the ⌈2√M⌉ = %d budget", m, written, budget)
	}
	return nil
}
