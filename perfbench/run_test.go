package main

import (
	"testing"
)

// TestWorkloadsEndToEnd runs every workload untraced and traced on
// small rounds: the histories must check clean and every metric the
// command promises must be there. Run it under -race: the workers,
// the coordinator and the in-process server share the objects.
func TestWorkloadsEndToEnd(t *testing.T) {
	for _, wl := range workloads {
		if !wl.oneShot {
			wl.roundOps, wl.chunk, wl.warmOps = windowOps, 8, 256
		}
		for _, traced := range []bool{false, true} {
			t.Run(wl.name+map[bool]string{false: "", true: "/traced"}[traced], func(t *testing.T) {
				out, err := run(config{wl: wl, seed: 7, seconds: 0.05, traced: traced}, "{}")
				if err != nil {
					t.Fatal(err)
				}
				if !out.correct || out.failed != 0 || out.attempted == 0 {
					t.Fatalf("correct %v, %d of %d ops failed, problems %v", out.correct, out.failed, out.attempted, out.problems)
				}
				for _, m := range out.units {
					if _, ok := out.values[m.name]; !ok {
						t.Errorf("metric %s missing", m.name)
					}
				}
				if traced && out.values["register.allocated"] == 0 {
					t.Errorf("register.allocated = 0")
				}
			})
		}
	}
}
