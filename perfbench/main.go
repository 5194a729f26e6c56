// Command perfbench is the repository's layered benchmark. It drives
// the paper's two regimes — long-lived collect and one-shot Algorithm 4
// (sqrt) — through the in-process tsspace SDK and through wire v3 of an
// in-process tsserve.Server, with two closed-loop client goroutines,
// checks every recorded history for the happens-before property and
// every one-shot round against Theorem 1.3's ⌈2√M⌉ register budget,
// and prints one JSON result line.
//
//	go run . --workload sdk-collect --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// times each layer's public entry points from this package (spans kept
// in memory, written to .bench_build/perfbench/ when the run ends) and
// reports the per-layer metrics. See README.md for the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"time"

	"tsspace"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/sqrt"
)

// nWorkers is the closed-loop client count: one per core of the 2-core
// hosts the benchmark is tuned on, each a sequential SessionAPI caller.
const nWorkers = 2

// workload is one cell of the 2×2 {sdk, wire} × {collect, sqrt}.
type workload struct {
	name    string
	wire    bool
	oneShot bool
	// roundOps is the op budget of one round (one-shot: the object's
	// whole budget M); chunk is how many ops a worker claims at once.
	roundOps, chunk int
	warmOps         int
	// ungated workloads run by name but are not in BENCHMARK.json: the
	// time budget for all gated runs fits three workloads at runs long
	// enough to steady wire-sqrt's tail.
	ungated bool
}

var workloads = []workload{
	{name: "sdk-collect", roundOps: 1 << 15, chunk: 64, warmOps: 1 << 18},
	{name: "sdk-sqrt", oneShot: true, roundOps: oneShotProcs, chunk: 8, warmOps: 16 * oneShotProcs},
	{name: "wire-collect", wire: true, roundOps: 1 << 13, chunk: 8, warmOps: 1 << 13, ungated: true},
	{name: "wire-sqrt", wire: true, oneShot: true, roundOps: oneShotProcs, chunk: 1, warmOps: oneShotProcs},
}

// metric is one reported figure: its name and unit, as BENCHMARK.json
// lists them.
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"ts_per_s", "ts/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []metric{
	{"register.reads_per_ts", "count/ts"},
	{"register.writes_per_ts", "count/ts"},
	{"register.written", "count"},
	{"register.allocated", "count"},
	{"register.meter_ns_per_ts", "ns"},
	{"timestamp.getts_p50_ns", "ns"},
	{"timestamp.getts_p99_ns", "ns"},
	{"timestamp.getts_mean_ns", "ns"},
	{"timestamp.allocs_per_ts", "count/ts"},
	{"timestamp.writing_frac", "ratio"},
	{"snapshot.scan_ns", "ns"},
	{"snapshot.allocs_per_scan", "count"},
	{"tsspace.getts_ns", "ns"},
	{"tsspace.getts_self_ns", "ns"},
	{"tsspace.attach_ns", "ns"},
	{"tsspace.detach_ns", "ns"},
	{"tsspace.new_ns", "ns"},
	{"tsspace.allocs_per_ts", "count/ts"},
	{"tsserve.rtt_ns", "ns"},
	{"tsserve.server_ns", "ns"},
	{"tsserve.server_self_ns", "ns"},
	{"tsserve.net_ns", "ns"},
	{"tsserve.attach_ns", "ns"},
	{"tsserve.detach_ns", "ns"},
	{"tsserve.provision_ns", "ns"},
	{"tsserve.deprovision_ns", "ns"},
	{"tsserve.frames_per_ts", "count/ts"},
	{"tsserve.bytes_per_ts", "B/ts"},
	{"tsserve.allocs_per_ts", "count/ts"},
	{"tsserve.rejections", "count"},
	{"process.alloc_bytes_per_ts", "B/ts"},
	{"trace.overhead_frac", "ratio"},
	{"trace.uncovered_frac", "ratio"},
}

// uncoveredTolerance is how much of the op spans' time the child spans
// may leave uncovered on the traced leg: the benchmark's clock reads
// and history bookkeeping between layer calls.
const uncoveredTolerance = 0.3

// The legs of a run, as recorded in every span.
const (
	legSetup uint8 = iota
	legMain
	legMainTraced
	legSDKPeeled
	legAlgTimed
	legAlgOther
	legAlgCount
	legScan
	legVerify
)

var legNames = []string{"setup", "main", "main.traced", "tsspace.peeled", "timestamp.timed", "timestamp.other", "timestamp.count", "snapshot", "verify"}

const (
	minBlockOps = 1 << 13 // least ops of a throughput block (whole rounds)
	windowOps   = 1 << 12 // ops of a latency window (41 beyond its p99)
	spanQuota   = 1 << 16 // spans per buffer per traced leg
	tracedRound = 1 << 12 // round size of long-lived traced legs
	nSetups     = 7       // set-ups per untraced run; setup_s is their median
)

type config struct {
	wl      workload
	seed    int64
	seconds float64
	traced  bool
}

func main() {
	var cfg config
	name := flag.String("workload", "", "workload: sdk-collect | sdk-sqrt | wire-collect | wire-sqrt")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every random choice the benchmark makes")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	flag.Parse()
	found := false
	for _, wl := range workloads {
		if wl.name == *name {
			cfg.wl, found = wl, true
		}
	}
	if !found || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of sdk-collect, sdk-sqrt, wire-collect, wire-sqrt, --seconds ≥ 1 and --trace 0|1\n")
		os.Exit(2)
	}
	cfg.seconds, cfg.traced = float64(*seconds), *trace == 1

	prov := provenance(cfg)
	fmt.Printf("provenance %s\n", prov)
	out, err := run(cfg, prov)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.wl.name, err)
		os.Exit(1)
	}
	out.print()
	if !out.correct {
		os.Exit(1)
	}
}

// result is one run's outcome.
type result struct {
	correct           bool
	problems          []string
	attempted, failed int
	values            map[string]float64
	units             []metric
	notes             []string
}

func (o *result) print() {
	for _, n := range o.notes {
		fmt.Println(n)
	}
	for _, p := range o.problems {
		fmt.Printf("CHECK FAILED: %s\n", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(o.units))
	for _, m := range o.units {
		v := o.values[m.name]
		fmt.Printf("%-28s %16.6g %s\n", m.name, v, m.unit)
		ms[m.name] = value{v, m.unit}
	}
	fmt.Printf("checks: %s; attempted %d, failed %d, fail_frac %.6g\n",
		map[bool]string{true: "passed", false: "FAILED"}[o.correct], o.attempted, o.failed, perOp(float64(o.failed), o.attempted))
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, ms})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// less returns the workload algorithm's compare.
func (wl workload) less() func(a, b tsspace.Timestamp) bool {
	if wl.oneShot {
		return sqrt.New(oneShotProcs).Compare
	}
	return collect.New(longProcs).Compare
}

func newHarness(wl workload) *harness {
	h := &harness{
		lat:     make([]int64, 0, windowOps),
		scratch: make([]int64, 0, 4*spanQuota),
		hb:      newHBChecker(wl.less(), nWorkers*wl.roundOps),
	}
	for range nWorkers {
		h.lanes = append(h.lanes, make([]op, 0, wl.roundOps))
		h.spans = append(h.spans, newSpanBuf(6*spanQuota))
	}
	h.spans = append(h.spans, newSpanBuf(4*spanQuota)) // the coordinator's
	return h
}

// build constructs the workload's target: the object, server, listeners
// and, for wire-sqrt, nothing more until the first round provisions
// its namespace.
func build(wl workload, c *coord) (target, error) {
	switch {
	case wl.wire && wl.oneShot:
		return newWireOneShot(nWorkers)
	case wl.wire:
		return newWireLong(c, nWorkers)
	case wl.oneShot:
		return &sdkOneShot{}, nil
	default:
		return newSDKLong(c, false, nWorkers)
	}
}

func run(cfg config, prov string) (*result, error) {
	wl := cfg.wl
	out := &result{correct: true, values: map[string]float64{}}
	problem := func(format string, args ...any) {
		out.correct = false
		out.problems = append(out.problems, fmt.Sprintf(format, args...))
	}
	baseGoroutines := runtime.NumGoroutine()

	// The harness's buffers are pointer-free and allocated identically
	// with and without tracing; live_heap_mb excludes them.
	heap0 := liveHeap()
	h := newHarness(wl)
	harnessBytes := liveHeap() - heap0

	c := &coord{ctx: context.Background(), rng: rand.New(rand.NewSource(cfg.seed)), root: -1}
	account := func(res legResult) {
		out.attempted += res.attempted
		out.failed += res.failed
		if res.checkErr != nil {
			problem("%s: %v", wl.name, res.checkErr)
		}
		if res.firstErr != nil {
			problem("%s: first failed op: %v", wl.name, res.firstErr)
		}
	}
	warm := legSpec{leg: legSetup, seconds: math.Inf(1), maxOps: wl.warmOps, roundOps: min(wl.roundOps, wl.warmOps)}

	// Set-up: construction plus warm-up, repeated so setup_s is a median.
	setups := nSetups
	if cfg.traced {
		setups = 1
	}
	var setupTimes []float64
	var t target
	var r *runner
	for i := range setups {
		if cfg.traced {
			c.leg, c.sp = legSetup, h.spans[nWorkers]
			c.sp.allow(spanQuota)
		}
		t0 := now()
		c.openRound()
		var err error
		t, err = build(wl, c)
		c.closeRound()
		built := now() - t0
		c.sp = nil
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r = newRunner(h, c, t, wl.roundOps, wl.chunk, wl.oneShot, wl.less())
		res, err := r.run(warm, h)
		if err != nil {
			r.stop()
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), t.close(c))
		}
		account(res)
		setupTimes = append(setupTimes, float64(built)/1e9+res.seconds)
		if i < setups-1 {
			r.stop()
			if err := t.close(c); err != nil {
				return nil, fmt.Errorf("tear-down: %w", err)
			}
		}
	}

	mainSpec := legSpec{leg: legMain, seconds: cfg.seconds, collect: true}
	if cfg.traced {
		mainSpec.seconds = 0.2 * cfg.seconds
	}
	mainRes, err := r.run(mainSpec, h)
	if err != nil {
		r.stop()
		return nil, errors.Join(err, t.close(c))
	}
	account(mainRes)
	out.notes = append(out.notes, fmt.Sprintf("main leg: %d ops in %d rounds, %.3f s measured; %d blocks of ≥ %d ops, %d windows of %d ops",
		mainRes.ops, mainRes.rounds, mainRes.seconds, len(mainRes.rate), minBlockOps, len(mainRes.p50), windowOps))

	if !cfg.traced {
		out.units = endToEnd
		out.values["ts_per_s"] = median(mainRes.rate)
		out.values["op_p50_us"] = median(mainRes.p50)
		slices.Sort(mainRes.p99)
		out.values["op_p99_us"] = quantile(mainRes.p99, 0.25)
		out.values["setup_s"] = median(setupTimes)
		for _, b := range []struct {
			name, of string
			s        []float64
		}{{"ts_per_s", "blocks", mainRes.rate}, {"op_p50_us", "windows", mainRes.p50}, {"op_p99_us", "windows", mainRes.p99}, {"setup_s", "set-ups", setupTimes}} {
			out.notes = append(out.notes, fmt.Sprintf("%s over %d %s: q1 %.6g, median %.6g, q3 %.6g",
				b.name, len(b.s), b.of, quantile(b.s, 0.25), quantile(b.s, 0.5), quantile(b.s, 0.75)))
		}
		out.notes = append(out.notes,
			fmt.Sprintf("alloc_bytes_per_ts %.6g (process heap bytes allocated per timestamp, %d ts)", perOp(float64(mainRes.allocBytes), mainRes.ops), mainRes.ops))
		// The per-block and per-window figures grow with the op count;
		// drop them so the live heap is the program's.
		mainRes.rate, mainRes.p50, mainRes.p99 = nil, nil, nil
		out.values["live_heap_mb"] = float64(liveHeap()-harnessBytes) / (1 << 20)
	}
	var lm layerInputs
	if cfg.traced {
		c.leg, c.sp = legMainTraced, h.spans[nWorkers]
		lm.mainTraced, err = r.run(legSpec{leg: legMainTraced, traced: true, seconds: 0.2 * cfg.seconds,
			roundOps: tracedRoundOps(wl), spanQuota: spanQuota, spansPerOp: spansPerOp(wl), collect: true}, h)
		if err != nil {
			r.stop()
			return nil, errors.Join(err, t.close(c))
		}
		account(lm.mainTraced)
		lm.main = mainRes
	}
	r.stop()
	if cfg.traced {
		c.leg, c.sp = legMainTraced, h.spans[nWorkers]
		c.openRound()
	}
	err = t.close(c)
	c.closeRound()
	c.sp = nil
	if err != nil {
		return nil, fmt.Errorf("tear-down: %w", err)
	}

	if wl.oneShot && !wl.wire {
		// The SDK workload runs unmetered; a short metered pass of the
		// same rounds reads each round's written-register count for the
		// Theorem 1.3 check.
		res, err := runLeg(h, c, wl, &sdkOneShot{metered: true}, legSpec{leg: legVerify, seconds: math.Inf(1), maxOps: 4 * oneShotProcs})
		if err != nil {
			return nil, err
		}
		account(res)
		if res.maxWritten < 0 {
			problem("%s: metered pass reported no written-register count", wl.name)
		}
		out.notes = append(out.notes, fmt.Sprintf("space: %d metered rounds wrote at most %d registers (budget ⌈2√%d⌉ = %d)",
			res.rounds, res.maxWritten, oneShotProcs, sqrt.RegistersFor(oneShotProcs)))
	}

	if cfg.traced {
		if err := layerLegs(h, c, cfg, &lm, account); err != nil {
			return nil, err
		}
		out.units = perLayer
		out.values = layerMetrics(h, wl, &lm)
		if u := out.values["trace.uncovered_frac"]; u > uncoveredTolerance {
			problem("%s: child spans leave %.3f of the op spans uncovered (tolerance %.2f)", wl.name, u, uncoveredTolerance)
		}
		if n := out.values["tsserve.rejections"]; n != 0 {
			problem("%s: %v wire rejections (quota, unknown session or namespace)", wl.name, n)
		}
		if w := out.values["register.written"]; wl.oneShot && w > float64(sqrt.RegistersFor(oneShotProcs)) {
			problem("%s: %v registers written, over ⌈2√M⌉", wl.name, w)
		}
		path := filepath.Join(".bench_build", "perfbench", "spans-"+wl.name+".bin")
		if err := writeSpans(path, prov, legNames, h.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		out.notes = append(out.notes, "spans written to "+path)
	}

	if out.failed > 0 {
		problem("%s: %d of %d ops failed", wl.name, out.failed, out.attempted)
	}
	// Every goroutine the run started must be gone.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		problem("%s: %d goroutines outlive the run (started with %d)", wl.name, n, baseGoroutines)
	}
	for _, v := range out.values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("a metric is not a number: %v", out.values)
		}
	}
	return out, nil
}

// liveHeap forces a collection and returns the heap bytes it marked
// live. It runs two: the first moves sync.Pool contents to the victim
// caches, the second frees them. The marked-live figure, unlike
// MemStats.HeapAlloc, does not count free slots of spans cached per P,
// which made HeapAlloc after a GC differ by tens of KB between runs.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func spansPerOp(wl workload) int {
	if wl.oneShot {
		return 4 // op + attach + getts + detach
	}
	return 2 // op + getts
}

func tracedRoundOps(wl workload) int {
	if wl.oneShot {
		return wl.roundOps
	}
	return tracedRound
}

// runLeg builds a runner for t, runs one leg and stops it.
func runLeg(h *harness, c *coord, wl workload, t target, spec legSpec) (legResult, error) {
	r := newRunner(h, c, t, wl.roundOps, wl.chunk, wl.oneShot, wl.less())
	res, err := r.run(spec, h)
	r.stop()
	return res, errors.Join(err, t.close(c))
}

// provenance describes where and how the run happened.
func provenance(cfg config) string {
	p := map[string]any{
		"workload":   cfg.wl.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"traced":     cfg.traced,
		"workers":    nWorkers,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     commit(),
	}
	b, _ := json.Marshal(p) // a map of strings, numbers and bools always marshals
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from or, in a
// checkout without VCS metadata, a digest of the module's sources.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	sum := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s\n", p)
		_, _ = io.Copy(sum, f)
		f.Close()
	}
	return "src-sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}
