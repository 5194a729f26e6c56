package main

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"tsspace"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/sqrt"
)

func ts(rnd, turn int64) tsspace.Timestamp { return tsspace.Timestamp{Rnd: rnd, Turn: turn} }

func TestHBSweep(t *testing.T) {
	cases := []struct {
		name    string
		less    func(a, b tsspace.Timestamp) bool
		lanes   [][]op
		wantErr string
	}{
		{
			name: "sequential history passes",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{0, 10, ts(1, 0)}, {20, 30, ts(3, 0)}},
				{{11, 19, ts(2, 0)}, {31, 40, ts(4, 0)}},
			},
		},
		{
			// Concurrent getTS instances may return equal timestamps:
			// neither happens before the other.
			name: "concurrent equal pair passes",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{0, 10, ts(5, 0)}},
				{{5, 15, ts(5, 0)}},
			},
		},
		{
			name: "concurrent equal pair passes under sqrt's lexicographic compare",
			less: sqrt.New(4).Compare,
			lanes: [][]op{
				{{0, 10, ts(2, 0)}, {30, 40, ts(2, 1)}},
				{{5, 15, ts(2, 0)}},
			},
		},
		{
			name: "inverted pair fails",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{0, 10, ts(7, 0)}},
				{{11, 20, ts(6, 0)}},
			},
			wantErr: "happens-before violated",
		},
		{
			// The last op exceeds the latest responder (concurrent with
			// the first, so smaller is allowed) but not the first op:
			// only the prefix maximum sees it.
			name: "inversion hidden behind a smaller predecessor fails",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{0, 10, ts(9, 0)}, {30, 40, ts(8, 0)}},
				{{5, 20, ts(3, 0)}},
			},
			wantErr: "happens-before violated",
		},
		{
			// The sweep has passed the first lane's ops when it reaches
			// the second lane's last op, which must follow both.
			name: "inversion late in a lane fails",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{0, 10, ts(1, 0)}, {20, 30, ts(5, 0)}},
				{{11, 15, ts(2, 0)}, {31, 40, ts(4, 0)}},
			},
			wantErr: "happens-before violated",
		},
		{
			name: "equal timestamps in sequence fail",
			less: sqrt.New(4).Compare,
			lanes: [][]op{
				{{0, 10, ts(3, 1)}},
				{{11, 12, ts(3, 1)}},
			},
			wantErr: "happens-before violated",
		},
		{
			name: "unsorted lane is sorted, inversion still found",
			less: collect.New(2).Compare,
			lanes: [][]op{
				{{50, 60, ts(1, 0)}, {0, 10, ts(2, 0)}},
			},
			wantErr: "happens-before violated",
		},
		{
			name:    "response before invocation is rejected",
			less:    collect.New(2).Compare,
			lanes:   [][]op{{{10, 5, ts(1, 0)}}},
			wantErr: "before its invocation",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := newHBChecker(tc.less, 4).check(tc.lanes)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("check = %v, want pass", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("check = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestHBCarry checks the long-lived rule across rounds: every op of a
// round follows every op of the earlier rounds, and reset forgets that
// for a fresh one-shot object.
func TestHBCarry(t *testing.T) {
	c := newHBChecker(collect.New(2).Compare, 4)
	if err := c.check([][]op{{{0, 10, ts(4, 0)}}}); err != nil {
		t.Fatal(err)
	}
	if err := c.check([][]op{{{20, 30, ts(4, 0)}}}); err == nil || !strings.Contains(err.Error(), "across rounds") {
		t.Fatalf("repeated timestamp in a later round: check = %v, want an across-rounds violation", err)
	}
	c.reset()
	if err := c.check([][]op{{{20, 30, ts(1, 0)}}}); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestSpaceCheck(t *testing.T) {
	if err := checkSpace(128, 4096); err != nil {
		t.Fatalf("128 registers for M = 4096: %v", err)
	}
	if err := checkSpace(129, 4096); err == nil {
		t.Fatal("129 registers for M = 4096 passed the ⌈2√M⌉ = 128 check")
	}
}

func TestQuantile(t *testing.T) {
	s := []int64{10, 20, 30, 40}
	for _, tc := range []struct{ q, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.99, 39.7}} {
		if got := quantile(s, tc.q); got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, tc.q, got, tc.want)
		}
	}
}

// TestSelectQuantile checks the selection against the sort: the same
// quantile for every size, with and without repeated values.
func TestSelectQuantile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		for _, spread := range []int64{3, 1 << 20} {
			s := make([]int64, n)
			for i := range s {
				s[i] = rng.Int63n(spread)
			}
			for _, q := range []float64{0, 0.5, 0.99, 1} {
				sorted := slices.Clone(s)
				slices.Sort(sorted)
				if got, want := selectQuantile(slices.Clone(s), q), quantile(sorted, q); got != want {
					t.Fatalf("n %d, spread %d: selectQuantile(%v) = %v, sorted quantile %v", n, spread, q, got, want)
				}
			}
		}
	}
}

func TestUncovered(t *testing.T) {
	b := newSpanBuf(16)
	b.allow(16)
	root := b.open(spOp, legMainTraced, 1, 0)
	b.child(root, spSDKAttach, 10, 40)
	b.child(root, spSDKGetTS, 40, 90)
	b.close(root, 100)
	for _, d := range []int64{200, 300} { // two more ops, 10% uncovered each
		r := b.open(spOp, legMainTraced, 2, 1000)
		b.child(r, spSDKGetTS, 1000, 1000+d*9/10)
		b.close(r, 1000+d)
	}
	if got := uncovered([]*spanBuf{b}, legMainTraced); got < 0.1-1e-9 || got > 0.1+1e-9 {
		t.Fatalf("uncovered = %v, want the median share 0.1", got)
	}
}
