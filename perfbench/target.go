package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"tsspace"
	"tsspace/internal/register"
	"tsspace/internal/snapshot"
	"tsspace/internal/timestamp/collect"
	"tsspace/internal/timestamp/sqrt"
	"tsspace/tsserve"
)

// The two object configurations of the 2×2: the paper's long-lived
// regime (collect reads all n registers per getTS) and its one-shot
// regime (Algorithm 4 on ⌈2√M⌉ = 128 registers for M = 4096).
const (
	longAlg      = "collect"
	longProcs    = 64
	oneShotAlg   = "sqrt"
	oneShotProcs = 4096
)

// target is one system under test, driven in rounds by a runner. The
// coordinator goroutine calls beginRound and endRound around each
// round; the workers call op concurrently, each with its own *worker
// and never twice at once.
type target interface {
	// beginRound prepares the round's object (one-shot targets build a
	// fresh one per round; long-lived targets keep theirs).
	beginRound(c *coord) error
	// op performs one timestamp op as worker w.
	op(w *worker) (tsspace.Timestamp, error)
	// endRound finishes the round and reports how many distinct
	// registers the round's object wrote, or -1 when it is unmetered
	// or long-lived.
	endRound(c *coord) (written int, err error)
	// close detaches every session and shuts the target down.
	close(c *coord) error
}

func sdkOptions(alg string, procs int, metered bool) []tsspace.Option {
	opts := []tsspace.Option{tsspace.WithAlgorithm(alg), tsspace.WithProcs(procs)}
	if metered {
		opts = append(opts, tsspace.WithMetering())
	}
	return opts
}

// sdkLong is one long-lived tsspace object; each worker holds one
// session per round.
type sdkLong struct {
	obj  *tsspace.Object
	sess []*tsspace.Session
}

func newSDKLong(c *coord, metered bool, workers int) (*sdkLong, error) {
	t0 := c.mark()
	obj, err := tsspace.New(sdkOptions(longAlg, longProcs, metered)...)
	c.rec(spSDKNew, t0)
	if err != nil {
		return nil, err
	}
	t := &sdkLong{obj: obj, sess: make([]*tsspace.Session, workers)}
	if err := t.relay(c); err != nil {
		return nil, errors.Join(err, t.close(c))
	}
	return t, nil
}

// relay re-leases the workers' sessions: a seeded number of pre-leases
// (attach, then detach) rotates the object's free-pid queue, so the
// seed picks which pids the workers lease. The runner calls it between
// rounds, outside the timed interval, so one run samples many pid
// layouts: with one lease per run, whether the two workers' registers
// share a cache line moved sdk-collect's ts_per_s by 10–15% from seed
// to seed.
func (t *sdkLong) relay(c *coord) error {
	if err := t.detach(c); err != nil {
		return err
	}
	for i := c.rng.Intn(longProcs); i > 0; i-- {
		t0 := c.mark()
		s, err := t.obj.Attach(c.ctx)
		c.rec(spSDKAttach, t0)
		if err != nil {
			return err
		}
		t0 = c.mark()
		err = s.Detach()
		c.rec(spSDKDetach, t0)
		if err != nil {
			return err
		}
	}
	for w := range t.sess {
		t0 := c.mark()
		s, err := t.obj.Attach(c.ctx)
		c.rec(spSDKAttach, t0)
		if err != nil {
			return err
		}
		t.sess[w] = s
	}
	return nil
}

func (t *sdkLong) detach(c *coord) error {
	var errs []error
	for w, s := range t.sess {
		if s == nil {
			continue
		}
		t0 := c.mark()
		errs = append(errs, s.Detach())
		c.rec(spSDKDetach, t0)
		t.sess[w] = nil
	}
	return errors.Join(errs...)
}

func (t *sdkLong) beginRound(*coord) error { return nil }

func (t *sdkLong) op(w *worker) (tsspace.Timestamp, error) {
	t0 := w.mark()
	ts, err := t.sess[w.id].GetTS(w.ctx)
	w.rec(spSDKGetTS, t0)
	return ts, err
}

func (t *sdkLong) endRound(*coord) (int, error) { return -1, nil }

func (t *sdkLong) close(c *coord) error {
	err := t.detach(c)
	t0 := c.mark()
	err = errors.Join(err, t.obj.Close())
	c.rec(spSDKClose, t0)
	return err
}

// sdkOneShot runs one-shot rounds: each round is a fresh
// tsspace.New(sqrt, 4096) whose whole budget the workers spend, one
// Attach → GetTS → Detach lease per timestamp.
type sdkOneShot struct {
	metered bool
	obj     *tsspace.Object
}

func (t *sdkOneShot) beginRound(c *coord) error {
	t0 := c.mark()
	obj, err := tsspace.New(sdkOptions(oneShotAlg, oneShotProcs, t.metered)...)
	c.rec(spSDKNew, t0)
	if err != nil {
		return err
	}
	t.obj = obj
	return nil
}

func (t *sdkOneShot) op(w *worker) (tsspace.Timestamp, error) {
	t0 := w.mark()
	s, err := t.obj.Attach(w.ctx)
	w.rec(spSDKAttach, t0)
	if err != nil {
		return tsspace.Timestamp{}, err
	}
	t0 = w.mark()
	ts, err := s.GetTS(w.ctx)
	w.rec(spSDKGetTS, t0)
	t0 = w.mark()
	derr := s.Detach()
	w.rec(spSDKDetach, t0)
	if err != nil {
		return tsspace.Timestamp{}, err
	}
	return ts, derr
}

func (t *sdkOneShot) endRound(c *coord) (int, error) {
	written := -1
	if st, metered := t.obj.SpaceTotals(); metered {
		written = st.Written
	}
	t0 := c.mark()
	err := t.obj.Close()
	c.rec(spSDKClose, t0)
	t.obj = nil
	return written, err
}

func (t *sdkOneShot) close(*coord) error {
	if t.obj != nil {
		return t.obj.Close()
	}
	return nil
}

// stack is an in-process tsserve.Server built like tsserved's
// defaults — collect, 64 procs, metered, 60 s session TTL — with wire
// v3 and the HTTP control plane each on an ephemeral loopback port,
// and one BinaryClient per worker so each worker owns its connection.
type stack struct {
	obj      *tsspace.Object
	srv      *tsserve.Server
	hs       *http.Server
	tr       *http.Transport
	client   *tsserve.Client
	bcs      []*tsserve.BinaryClient
	served   chan error // one value per serve goroutine when it returns
	nServing int
}

func newStack(workers int) (*stack, error) {
	obj, err := tsspace.New(sdkOptions(longAlg, longProcs, true)...)
	if err != nil {
		return nil, err
	}
	st := &stack{obj: obj, served: make(chan error, 2)}
	st.srv = tsserve.NewServer(obj, tsserve.ServerConfig{SessionTTL: 60 * time.Second})
	binLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, st.shutdown())
	}
	st.nServing++
	go func() { st.served <- st.srv.ServeBinary(binLn) }()
	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, st.shutdown())
	}
	st.hs = &http.Server{Handler: st.srv, ReadHeaderTimeout: 10 * time.Second}
	st.nServing++
	go func() { st.served <- st.hs.Serve(httpLn) }()
	st.tr = &http.Transport{MaxIdleConnsPerHost: 4}
	st.client = tsserve.NewClient("http://"+httpLn.Addr().String(), &http.Client{Transport: st.tr})
	for range workers {
		st.bcs = append(st.bcs, tsserve.NewBinaryClient(binLn.Addr().String()))
	}
	return st, nil
}

// shutdown closes the server and waits for its serve loops to return.
func (st *stack) shutdown() error {
	var errs []error
	for _, bc := range st.bcs {
		errs = append(errs, bc.Close())
	}
	errs = append(errs, st.srv.Close())
	if st.hs != nil {
		if err := st.hs.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if st.tr != nil {
		st.tr.CloseIdleConnections()
	}
	for range st.nServing {
		if err := <-st.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	st.nServing = 0
	errs = append(errs, st.obj.Close())
	return errors.Join(errs...)
}

// wireCounters are the server-side books a leg reads before and after
// itself.
type wireCounters struct {
	frames, bytes, rejections uint64
	getts                     uint64  // binary getts frames timed server-side
	gettsNs                   float64 // their summed handler time
}

func (st *stack) counters() wireCounters {
	m := st.srv.MetricsSnapshot()
	wc := wireCounters{
		frames:     m.BinaryFrames,
		bytes:      m.BinaryBytesIn + m.BinaryBytesOut,
		rejections: m.UnknownSessions + m.UnknownNamespaces,
	}
	for _, ns := range m.Namespaces {
		wc.rejections += ns.QuotaRejections
	}
	if l, ok := m.Latency["binary_getts"]; ok {
		wc.getts, wc.gettsNs = l.Count, l.MeanNs*float64(l.Count)
	}
	return wc
}

// wireLong is the long-lived wire workload: each worker holds one
// BinarySession on the server's default namespace per round.
type wireLong struct {
	*stack
	sess []*tsserve.BinarySession
}

func newWireLong(c *coord, workers int) (*wireLong, error) {
	st, err := newStack(workers)
	if err != nil {
		return nil, err
	}
	t := &wireLong{stack: st, sess: make([]*tsserve.BinarySession, workers)}
	if err := t.relay(c); err != nil {
		return nil, errors.Join(err, t.close(c))
	}
	return t, nil
}

// relay re-leases the workers' sessions over the wire after seeded
// pre-leases, as sdkLong.relay does in process.
func (t *wireLong) relay(c *coord) error {
	if err := t.detach(c); err != nil {
		return err
	}
	for i := c.rng.Intn(longProcs); i > 0; i-- {
		t0 := c.mark()
		s, err := t.bcs[0].Attach(c.ctx)
		c.rec(spWireAttach, t0)
		if err != nil {
			return err
		}
		t0 = c.mark()
		err = s.Detach()
		c.rec(spWireDetach, t0)
		if err != nil {
			return err
		}
	}
	for w, bc := range t.bcs {
		t0 := c.mark()
		s, err := bc.Attach(c.ctx)
		c.rec(spWireAttach, t0)
		if err != nil {
			return err
		}
		t.sess[w] = s
	}
	return nil
}

func (t *wireLong) detach(c *coord) error {
	var errs []error
	for w, s := range t.sess {
		if s == nil {
			continue
		}
		t0 := c.mark()
		errs = append(errs, s.Detach())
		c.rec(spWireDetach, t0)
		t.sess[w] = nil
	}
	return errors.Join(errs...)
}

func (t *wireLong) beginRound(*coord) error { return nil }

func (t *wireLong) op(w *worker) (tsspace.Timestamp, error) {
	t0 := w.mark()
	ts, err := t.sess[w.id].GetTS(w.ctx)
	w.rec(spWireGetTS, t0)
	return ts, err
}

func (t *wireLong) endRound(*coord) (int, error) { return -1, nil }

func (t *wireLong) close(c *coord) error {
	return errors.Join(t.detach(c), t.shutdown())
}

// wireOneShot runs one-shot rounds over the wire: each round
// provisions a fresh sqrt namespace over HTTP while the data
// connections are idle, the workers lease-churn it over wire v3 until
// its budget is spent, and the round deprovisions it. The quota equals
// the worker count, so a leaked quota slot shows up as failures.
type wireOneShot struct {
	*stack
	ns      string
	nsQuota uint64 // quota rejections of namespaces already deprovisioned
	workers int
}

func newWireOneShot(workers int) (*wireOneShot, error) {
	st, err := newStack(workers)
	if err != nil {
		return nil, err
	}
	return &wireOneShot{stack: st, workers: workers}, nil
}

func (t *wireOneShot) beginRound(c *coord) error {
	name := fmt.Sprintf("r%d-%08x", c.round, c.rng.Uint32())
	t0 := c.mark()
	_, err := t.client.ProvisionNamespace(c.ctx, name, tsserve.ProvisionRequest{
		Algorithm: oneShotAlg, Procs: oneShotProcs, MaxSessions: t.workers,
	})
	c.rec(spWireProvision, t0)
	if err != nil {
		return err
	}
	t.ns = name
	return nil
}

func (t *wireOneShot) op(w *worker) (tsspace.Timestamp, error) {
	t0 := w.mark()
	s, err := t.bcs[w.id].AttachNamespace(w.ctx, t.ns)
	w.rec(spWireAttachNS, t0)
	if err != nil {
		return tsspace.Timestamp{}, err
	}
	t0 = w.mark()
	ts, err := s.GetTS(w.ctx)
	w.rec(spWireGetTS, t0)
	t0 = w.mark()
	derr := s.Detach()
	w.rec(spWireDetach, t0)
	if err != nil {
		return tsspace.Timestamp{}, err
	}
	return ts, derr
}

// endRound reads the namespace's space report from the server's
// metrics before deprovisioning it.
func (t *wireOneShot) endRound(c *coord) (int, error) {
	written := -1
	for _, ns := range t.srv.MetricsSnapshot().Namespaces {
		if ns.Name == t.ns {
			t.nsQuota += ns.QuotaRejections
			if ns.Space != nil {
				written = ns.Space.Written
			}
		}
	}
	if written < 0 {
		return -1, fmt.Errorf("namespace %q has no space report", t.ns)
	}
	t0 := c.mark()
	_, err := t.client.DeprovisionNamespace(c.ctx, t.ns)
	c.rec(spWireDeprovision, t0)
	return written, err
}

func (t *wireOneShot) counters() wireCounters {
	wc := t.stack.counters()
	wc.rejections += t.nsQuota
	return wc
}

func (t *wireOneShot) close(*coord) error { return t.shutdown() }

// meterMode selects the register stack of a peeled leg.
type meterMode uint8

const (
	meterOff   meterMode = iota // register.Wrap(base, DisciplineFor)
	meterOn                     // plus Metered, as tsspace.WithMetering builds it
	meterCount                  // plus a per-worker Metered layer, to see each call's writes
)

// algorithm is the implementation contract the peeled legs drive,
// satisfied by collect.Alg and sqrt.Alg.
type algorithm interface {
	Registers() int
	WriterTable() [][]int
	GetTS(mem register.Mem, pid, seq int) (tsspace.Timestamp, error)
	Compare(t1, t2 tsspace.Timestamp) bool
}

// peeled drives the workload's op stream straight into
// Algorithm.GetTS on a register stack built the way tsspace.New builds
// it: register.Wrap over the same array kind, Metered when the mode
// asks, DisciplineFor the algorithm's writer table. Long-lived: one
// memory for the target's lifetime, a fixed pid and a running seq per
// worker. One-shot: a fresh memory per round, pid = the op's claim
// index, seq 0.
type peeled struct {
	alg     algorithm
	oneShot bool
	mode    meterMode
	scan    bool // follow each GetTS with a snapshot.Scan of the same memory

	base    register.Mem
	meter   *register.Meter   // shared by every worker's stack
	own     []*register.Meter // meterCount: one per worker
	mems    []register.Mem
	pids    []int
	seqs    []int // long-lived: getTS calls so far, per pid
	writing []int // meterCount: ops whose own-meter delta shows a write

	// One-shot rounds each meter a fresh memory; their totals add up here.
	reads, writes uint64
	maxWritten    int
}

func newPeeled(c *coord, oneShot bool, mode meterMode, scan bool, workers int) *peeled {
	p := &peeled{oneShot: oneShot, mode: mode, scan: scan,
		mems: make([]register.Mem, workers), pids: make([]int, workers), writing: make([]int, workers)}
	if oneShot {
		p.alg = sqrt.New(oneShotProcs)
		return p
	}
	p.alg = collect.New(longProcs)
	p.seqs = make([]int, longProcs)
	p.fresh()
	p.relay(c)
	return p
}

// fresh allocates new memory (and meters) for the stacks to wrap.
func (p *peeled) fresh() {
	if p.oneShot {
		p.base = register.NewAtomicArray(p.alg.Registers())
	} else {
		p.base = register.NewInt64Array(p.alg.Registers())
	}
	p.meter = nil
	if p.mode != meterOff {
		p.meter = register.NewMeterSize(p.base.Size())
	}
	p.own = p.own[:0]
	if p.mode == meterCount {
		for range p.mems {
			p.own = append(p.own, register.NewMeterSize(p.base.Size()))
		}
	}
}

// relay gives the long-lived leg's workers seeded pids, as the SDK
// targets' pre-leases do, and rebuilds their stacks over the same
// memory.
func (p *peeled) relay(c *coord) error {
	if p.oneShot {
		return nil // each round's claim indices are its pids
	}
	rot := c.rng.Intn(longProcs)
	for w := range p.pids {
		p.pids[w] = (rot + w) % longProcs
	}
	p.wrap()
	return nil
}

// wrap builds every worker's register stack.
func (p *peeled) wrap() {
	var metered register.Middleware
	if p.meter != nil {
		metered = register.Metered(p.meter)
	}
	for w := range p.mems {
		var own register.Middleware
		if p.mode == meterCount {
			own = register.Metered(p.own[w])
		}
		p.mems[w] = register.Wrap(p.base, metered, own, register.DisciplineFor(p.alg.WriterTable(), p.pids[w]))
	}
}

func (p *peeled) beginRound(*coord) error {
	if p.oneShot {
		p.fresh()
		p.wrap()
	}
	return nil
}

func (p *peeled) op(w *worker) (tsspace.Timestamp, error) {
	pid, seq := w.idx, 0
	if !p.oneShot {
		pid = p.pids[w.id]
		seq = p.seqs[pid]
	}
	mem := p.mems[w.id]
	var before uint64
	if p.mode == meterCount {
		before = p.own[w.id].Totals().Writes
	}
	t0 := w.mark()
	ts, err := p.alg.GetTS(mem, pid, seq)
	w.rec(spAlgGetTS, t0)
	if err != nil {
		return ts, err
	}
	if !p.oneShot {
		p.seqs[pid]++
	}
	if p.mode == meterCount && p.own[w.id].Totals().Writes > before {
		p.writing[w.id]++
	}
	if p.scan {
		t0 := w.mark()
		_, err = snapshot.Scan(mem)
		w.rec(spScan, t0)
	}
	return ts, err
}

func (p *peeled) endRound(*coord) (int, error) {
	if p.meter == nil || !p.oneShot {
		return -1, nil
	}
	t := p.meter.Totals()
	p.reads += t.Reads
	p.writes += t.Writes
	p.maxWritten = max(p.maxWritten, t.Written)
	return t.Written, nil
}

// totals returns the metered register reads and writes over every
// round so far, and the most distinct registers one object wrote.
func (p *peeled) totals() (reads, writes uint64, written int) {
	if p.oneShot {
		return p.reads, p.writes, p.maxWritten
	}
	t := p.meter.Totals()
	return t.Reads, t.Writes, t.Written
}

func (p *peeled) close(*coord) error { return nil }
