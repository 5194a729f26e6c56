package sqrt_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tsspace/internal/sched"
	"tsspace/internal/timestamp"
	"tsspace/internal/timestamp/sqrt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/steps_n16.golden from the current algorithm")

// The golden file records n = 16 processes under the sequential (solo,
// pid order) schedule and goldenSamples seeded random interleavings.
const (
	goldenN       = 16
	goldenSeed    = 20110606
	goldenSamples = 8
)

// TestGoldenStepSequence replays one-shot Algorithm 4 for n = 16 under a
// fixed set of schedules — all processes solo in pid order, then seeded
// random interleavings — and compares every register access (pid, read or
// write, register, value written) and every returned timestamp with the
// committed sequence. Any change to the algorithm's code that alters a
// single register access, a published value or a result shows up here;
// pure refactors and allocation work must replay it exactly.
func TestGoldenStepSequence(t *testing.T) {
	var b strings.Builder
	b.WriteString("# one-shot sqrt, n=16: register accesses and results per schedule\n")

	sys, _ := newSim(sqrt.New(goldenN), goldenN)
	for pid := 0; pid < goldenN; pid++ {
		if _, err := sys.Solo(pid); err != nil {
			t.Fatal(err)
		}
	}
	writeExecution(&b, "sequential", sys)
	sys.Close()

	factory := func() *sched.System {
		sys, _ := newSim(sqrt.New(goldenN), goldenN)
		return sys
	}
	k := 0
	err := sched.Sample(factory, goldenSamples, goldenSeed, func(sys *sched.System, _ []int) error {
		writeExecution(&b, fmt.Sprintf("seed %d sample %d", goldenSeed, k), sys)
		k++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "steps_n16.golden")
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("step sequence diverges at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("step sequence length differs: got %d lines, want %d", len(gl), len(wl))
}

func writeExecution(b *strings.Builder, name string, sys *sched.System) {
	fmt.Fprintf(b, "== %s\n", name)
	for _, op := range sys.Trace() {
		b.WriteString(op.String())
		b.WriteByte('\n')
	}
	for pid := 0; pid < sys.N(); pid++ {
		if err := sys.Err(pid); err != nil {
			fmt.Fprintf(b, "p%d error %v\n", pid, err)
			continue
		}
		res, _ := sys.Result(pid)
		ts := res.([]timestamp.Timestamp)[0]
		fmt.Fprintf(b, "p%d -> (%d,%d)\n", pid, ts.Rnd, ts.Turn)
	}
}
