package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
)

// clockBase anchors the run clock: every recorded instant is
// nanoseconds since it, on the monotonic clock.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// coord is the coordinator goroutine's view of a leg: the seeded
// source of every random choice, and where its own spans go when the
// leg traces.
type coord struct {
	ctx   context.Context
	rng   *rand.Rand
	sp    *spanBuf // nil when the current leg does not trace
	leg   uint8
	root  int32 // the open round span
	round int
}

// mark reads the clock when the leg traces (0 otherwise, at no cost).
func (c *coord) mark() int64 {
	if c.sp == nil {
		return 0
	}
	return now()
}

// rec records the call that began at start as a child of the open
// round span.
func (c *coord) rec(name spanName, start int64) {
	if c.sp != nil && c.root >= 0 {
		c.sp.child(c.root, name, start, now())
	}
}

// openRound opens a round span when the leg traces.
func (c *coord) openRound() {
	c.root = -1
	if c.sp != nil {
		c.root = c.sp.open(spRound, c.leg, 0, now())
	}
}

func (c *coord) closeRound() {
	if c.sp != nil && c.root >= 0 {
		c.sp.close(c.root, now())
	}
	c.root = -1
}

// worker is one closed-loop client goroutine: a sequential caller that
// issues its next op only when the previous one has returned.
type worker struct {
	id    int
	ctx   context.Context
	idx   int      // claim index of the current op within its round
	lane  []op     // this round's history, sorted by construction
	sp    *spanBuf // nil when the current leg does not trace
	spans *spanBuf
	leg   uint8
	root  int32
	opID  uint32

	attempted, failed int
	firstErr          error
	start             chan struct{}
}

func (w *worker) mark() int64 {
	if w.sp == nil {
		return 0
	}
	return now()
}

func (w *worker) rec(name spanName, start int64) {
	if w.sp != nil {
		w.sp.child(w.root, name, start, now())
	}
}

// runner drives one target in rounds with a fixed set of workers. In a
// round the workers claim the round's op budget from a shared counter,
// chunk ops at a time; the coordinator waits for them, then checks the
// round's history outside the timed interval.
type runner struct {
	t        target
	c        *coord
	workers  []*worker
	roundOps int // the workload's round size; a leg may run smaller rounds
	chunk    int
	oneShot  bool
	hb       *hbChecker
	lanes    [][]op

	counter atomic.Int64
	size    atomic.Int64 // the current round's op budget
	done    sync.WaitGroup
	exited  sync.WaitGroup
}

// harness holds the buffers every runner of a run shares, allocated
// once before anything is measured.
type harness struct {
	lanes   [][]op
	spans   []*spanBuf // one per worker, then the coordinator's
	lat     []int64    // one window's latencies
	scratch []int64
	hb      *hbChecker
}

func newRunner(h *harness, c *coord, t target, roundOps, chunk int, oneShot bool, less func(a, b tsspace.Timestamp) bool) *runner {
	h.hb.less = less
	h.hb.reset()
	r := &runner{t: t, c: c, roundOps: roundOps, chunk: chunk, oneShot: oneShot, hb: h.hb, lanes: make([][]op, 0, len(h.lanes))}
	for i, lane := range h.lanes {
		w := &worker{id: i, ctx: c.ctx, lane: lane[:0], spans: h.spans[i], start: make(chan struct{})}
		r.workers = append(r.workers, w)
		r.exited.Add(1)
		go r.work(w)
	}
	return r
}

// stop ends the worker goroutines and waits for them.
func (r *runner) stop() {
	for _, w := range r.workers {
		close(w.start)
	}
	r.exited.Wait()
}

func (r *runner) work(w *worker) {
	defer r.exited.Done()
	for range w.start {
		r.claim(w)
		r.done.Done()
	}
}

// claim runs ops until the round's budget is spent.
func (r *runner) claim(w *worker) {
	size := int(r.size.Load())
	for {
		base := int(r.counter.Add(int64(r.chunk))) - r.chunk
		if base >= size {
			return
		}
		for i := base; i < min(base+r.chunk, size); i++ {
			w.idx = i
			inv := now()
			if w.sp != nil {
				w.opID++
				w.root = w.sp.open(spOp, w.leg, w.opID, inv)
			}
			ts, err := r.t.op(w)
			resp := now()
			if w.sp != nil {
				w.sp.close(w.root, resp)
			}
			w.attempted++
			if err != nil {
				w.failed++
				if w.firstErr == nil {
					w.firstErr = err
				}
				continue
			}
			w.lane = append(w.lane, op{inv: inv, resp: resp, ts: ts})
		}
	}
}

// legSpec bounds one leg.
type legSpec struct {
	leg        uint8
	traced     bool
	workers    int     // workers that run ops (0: all)
	roundOps   int     // ops per round (0: the runner's)
	seconds    float64 // timed round time to accumulate
	maxOps     int     // stop once this many ops ran (0: no cap)
	spanQuota  int     // per-buffer span budget of a traced leg
	spansPerOp int     // spans one op records, for the overflow guard
	collect    bool    // summarize blocks (false for warm-up)
}

// legResult is what one leg measured.
type legResult struct {
	rounds, ops, attempted, failed int
	seconds                        float64   // timed round time
	rate                           []float64 // per block of whole rounds
	p50, p99                       []float64 // µs, per window of windowOps ops
	mallocs, allocBytes            uint64
	maxWritten                     int
	wire                           wireCounters // deltas; zero off the wire
	checkErr                       error
	firstErr                       error
}

type counterSource interface{ counters() wireCounters }

// releaser is a long-lived target that re-leases its workers' pids
// between rounds, outside the timed interval.
type releaser interface{ relay(c *coord) error }

// run executes rounds until the leg's budget is spent.
func (r *runner) run(spec legSpec, h *harness) (legResult, error) {
	c := r.c
	res := legResult{maxWritten: -1}
	c.leg, c.sp = spec.leg, nil
	if spec.traced {
		c.sp = h.spans[len(h.spans)-1]
		c.sp.allow(spec.spanQuota)
	}
	for _, w := range r.workers {
		w.leg, w.sp, w.attempted, w.failed, w.firstErr = spec.leg, nil, 0, 0, nil
		if spec.traced {
			w.sp = w.spans
			w.sp.allow(spec.spanQuota)
		}
	}
	var wc0 wireCounters
	cs, wire := r.t.(counterSource)
	if wire {
		wc0 = cs.counters()
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var blockOps int // ops and timed duration of the block being filled
	var blockDur int64
	roundOps := r.roundOps
	if spec.roundOps > 0 {
		roundOps = spec.roundOps
	}
	active := r.workers
	if spec.workers > 0 {
		active = r.workers[:spec.workers]
	}
	var measured int64
	for {
		if float64(measured)/1e9 >= spec.seconds || (spec.maxOps > 0 && res.attempted >= spec.maxOps) {
			break
		}
		if spec.traced && !r.roomFor(roundOps*spec.spansPerOp) {
			break
		}
		for _, w := range r.workers {
			w.lane = w.lane[:0]
		}
		if rl, ok := r.t.(releaser); ok {
			if err := rl.relay(c); err != nil {
				return res, fmt.Errorf("round %d: re-lease: %w", res.rounds, err)
			}
		}
		c.round = res.rounds
		t0 := now()
		c.openRound()
		if err := r.t.beginRound(c); err != nil {
			return res, fmt.Errorf("round %d: begin: %w", res.rounds, err)
		}
		r.counter.Store(0)
		r.size.Store(int64(roundOps))
		r.done.Add(len(active))
		for _, w := range active {
			w.start <- struct{}{}
		}
		r.done.Wait()
		written, err := r.t.endRound(c)
		c.closeRound()
		t1 := now()
		if err != nil {
			return res, fmt.Errorf("round %d: end: %w", res.rounds, err)
		}
		measured += t1 - t0
		res.rounds++

		// Untimed: check the round and fold it into the current block.
		lanes := r.lanes[:0]
		n := 0
		for _, w := range r.workers {
			lanes = append(lanes, w.lane)
			n += len(w.lane)
		}
		r.lanes = lanes
		res.ops += n
		res.attempted, res.failed = 0, 0
		for _, w := range r.workers {
			res.attempted += w.attempted
			res.failed += w.failed
			if res.firstErr == nil {
				res.firstErr = w.firstErr
			}
		}
		if r.oneShot {
			r.hb.reset()
		}
		if err := r.hb.check(lanes); err != nil && res.checkErr == nil {
			res.checkErr = fmt.Errorf("round %d: %w", res.rounds-1, err)
		}
		if written >= 0 {
			res.maxWritten = max(res.maxWritten, written)
			if err := checkSpace(written, oneShotProcs); r.oneShot && err != nil && res.checkErr == nil {
				res.checkErr = fmt.Errorf("round %d: %w", res.rounds-1, err)
			}
		}
		if spec.collect {
			r.windows(&res, h.lat)
			blockOps += n
			blockDur += t1 - t0
			if blockOps >= minBlockOps {
				res.rate = append(res.rate, float64(blockOps)/(float64(blockDur)/1e9))
				blockOps, blockDur = 0, 0
			}
		}
	}
	if spec.collect && len(res.rate) == 0 && blockDur > 0 {
		res.rate = append(res.rate, float64(blockOps)/(float64(blockDur)/1e9))
	}
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if wire {
		wc1 := cs.counters()
		res.wire = wireCounters{
			frames: wc1.frames - wc0.frames, bytes: wc1.bytes - wc0.bytes,
			rejections: wc1.rejections - wc0.rejections,
			getts:      wc1.getts - wc0.getts, gettsNs: wc1.gettsNs - wc0.gettsNs,
		}
	}
	res.seconds = float64(measured) / 1e9
	c.sp = nil
	return res, nil
}

// windows cuts the round's history, sorted by response time by the
// happens-before check, into windows of windowOps consecutive ops and
// records each window's p50 and p99 latency. A shorter tail is dropped.
func (r *runner) windows(res *legResult, lat []int64) {
	m := r.hb.merged
	for i := 0; i+windowOps <= len(m); i += windowOps {
		lat = lat[:0]
		for _, o := range m[i : i+windowOps] {
			lat = append(lat, o.resp-o.inv)
		}
		res.p99 = append(res.p99, selectQuantile(lat, 0.99)/1e3)
		res.p50 = append(res.p50, selectQuantile(lat, 0.5)/1e3)
	}
}

// roomFor reports whether every worker's span buffer can take n more
// spans — one whole round, even if a single worker ran all of its ops.
func (r *runner) roomFor(n int) bool {
	for _, w := range r.workers {
		if w.sp.room() < n {
			return false
		}
	}
	return r.c.sp.room() >= 16
}
