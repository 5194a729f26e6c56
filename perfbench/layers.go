package main

import (
	"fmt"
	"runtime"

	"tsspace/internal/snapshot"
)

// legAny matches spans of every leg.
const legAny uint8 = 255

// layerInputs gathers what the legs of a traced run measured.
type layerInputs struct {
	main, mainTraced                   legResult
	sdkPeeled                          legResult // wire workloads: tsspace in the server's configuration
	algTimed, algOther, algCount, scan legResult
	count                              *peeled
	scanAllocs                         float64
}

// layerLegs runs the peeled rungs of a traced run, each on the
// workload's own object configuration: for the wire workloads a
// tsspace leg configured like the server's object (metered), then
// Algorithm.GetTS on a register stack built like tsspace.New builds
// it — timed as the workload runs (metered on the wire, unmetered in
// the SDK), timed the other way, counted through a metered stack, and
// followed by snapshot.Scan.
//
// The SDK workloads' peeled legs run both workers back to back, as the
// workloads do. On the wire, the server handles the two connections'
// frames with little overlap (its GetTS is a few µs of a round trip
// several times longer), so the wire workloads' peeled legs run one
// worker: the in-process op stream at the concurrency the server's
// object actually sees. Two metered workers back to back would contend
// on the meter's mutex far more than the server does.
func layerLegs(h *harness, c *coord, cfg config, lm *layerInputs, account func(legResult)) error {
	wl := cfg.wl
	leg := func(id uint8, t target, secs float64, traced bool, perOp int) (legResult, error) {
		spec := legSpec{leg: id, traced: traced, seconds: secs * cfg.seconds, spanQuota: spanQuota, spansPerOp: perOp}
		if wl.wire {
			spec.workers = 1
		}
		if traced {
			spec.roundOps = tracedRoundOps(wl)
		} else if !wl.oneShot {
			spec.maxOps = 1 << 16
		}
		res, err := runLeg(h, c, wl, t, spec)
		if err != nil {
			return res, fmt.Errorf("%s leg: %w", legNames[id], err)
		}
		account(res)
		return res, nil
	}
	var err error
	if wl.wire {
		c.leg, c.sp = legSDKPeeled, h.spans[nWorkers]
		c.openRound()
		var t target = &sdkOneShot{metered: true}
		if !wl.oneShot {
			t, err = newSDKLong(c, true, nWorkers)
		}
		c.closeRound()
		if err != nil {
			return err
		}
		if lm.sdkPeeled, err = leg(legSDKPeeled, t, 0.15, true, spansPerOp(wl)); err != nil {
			return err
		}
	}
	timed, other := meterOff, meterOn
	if wl.wire {
		timed, other = meterOn, meterOff
	}
	if lm.algTimed, err = leg(legAlgTimed, newPeeled(c, wl.oneShot, timed, false, nWorkers), 0.15, true, 2); err != nil {
		return err
	}
	if lm.algOther, err = leg(legAlgOther, newPeeled(c, wl.oneShot, other, false, nWorkers), 0.15, true, 2); err != nil {
		return err
	}
	lm.count = newPeeled(c, wl.oneShot, meterCount, false, nWorkers)
	if lm.algCount, err = leg(legAlgCount, lm.count, 0.1, false, 0); err != nil {
		return err
	}
	scan := newPeeled(c, wl.oneShot, timed, true, nWorkers)
	if lm.scan, err = leg(legScan, scan, 0.1, true, 3); err != nil {
		return err
	}
	// Allocations of one scan, on the leg's final memory with no
	// concurrent writer: every scan is then one successful double
	// collect, so the count is exact.
	const scans = 64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for range scans {
		if _, err := snapshot.Scan(scan.mems[0]); err != nil {
			return fmt.Errorf("quiescent scan: %w", err)
		}
	}
	runtime.ReadMemStats(&ms1)
	lm.scanAllocs = float64(ms1.Mallocs-ms0.Mallocs) / scans
	return nil
}

// layerMetrics derives every per-layer metric from the legs and spans.
// Self times subtract means (means add; medians do not).
func layerMetrics(h *harness, wl workload, lm *layerInputs) map[string]float64 {
	v := map[string]float64{}
	sum := func(leg uint8, name spanName) spanStats { return spanSummary(h.spans, leg, name, h.scratch) }

	reads, writes, written := lm.count.totals()
	v["register.reads_per_ts"] = perOp(float64(reads), lm.algCount.ops)
	v["register.writes_per_ts"] = perOp(float64(writes), lm.algCount.ops)
	v["register.written"] = float64(written)
	v["register.allocated"] = float64(lm.count.alg.Registers())
	timedGet, otherGet := sum(legAlgTimed, spAlgGetTS), sum(legAlgOther, spAlgGetTS)
	if wl.wire {
		v["register.meter_ns_per_ts"] = timedGet.mean - otherGet.mean
	} else {
		v["register.meter_ns_per_ts"] = otherGet.mean - timedGet.mean
	}

	v["timestamp.getts_p50_ns"] = timedGet.p50
	v["timestamp.getts_p99_ns"] = timedGet.p99
	v["timestamp.getts_mean_ns"] = timedGet.mean
	v["timestamp.allocs_per_ts"] = perOp(float64(lm.algTimed.mallocs), lm.algTimed.ops)
	writing := 0
	for _, n := range lm.count.writing {
		writing += n
	}
	v["timestamp.writing_frac"] = perOp(float64(writing), lm.algCount.ops)

	v["snapshot.scan_ns"] = sum(legScan, spScan).mean
	v["snapshot.allocs_per_scan"] = lm.scanAllocs

	sdkGet := sum(legAny, spSDKGetTS)
	v["tsspace.getts_ns"] = sdkGet.mean
	v["tsspace.getts_self_ns"] = sdkGet.mean - timedGet.mean
	v["tsspace.attach_ns"] = sum(legAny, spSDKAttach).mean
	v["tsspace.detach_ns"] = sum(legAny, spSDKDetach).mean
	v["tsspace.new_ns"] = sum(legAny, spSDKNew).mean
	sdkLeg := lm.main
	if wl.wire {
		sdkLeg = lm.sdkPeeled
	}
	v["tsspace.allocs_per_ts"] = perOp(float64(sdkLeg.mallocs), sdkLeg.ops)

	for _, m := range perLayer {
		if _, ok := v[m.name]; !ok {
			v[m.name] = 0 // the tsserve rungs, off the SDK workloads' path
		}
	}
	if wl.wire {
		rtt := sum(legMainTraced, spWireGetTS).mean
		mt := lm.mainTraced.wire
		server := perOp(mt.gettsNs, int(mt.getts))
		v["tsserve.rtt_ns"] = rtt
		v["tsserve.server_ns"] = server
		v["tsserve.server_self_ns"] = server - sdkGet.mean
		v["tsserve.net_ns"] = rtt - server
		attach := sum(legAny, spWireAttach)
		if wl.oneShot {
			attach = sum(legAny, spWireAttachNS)
		}
		v["tsserve.attach_ns"] = attach.mean
		v["tsserve.detach_ns"] = sum(legAny, spWireDetach).mean
		v["tsserve.provision_ns"] = sum(legAny, spWireProvision).mean
		v["tsserve.deprovision_ns"] = sum(legAny, spWireDeprovision).mean
		v["tsserve.frames_per_ts"] = perOp(float64(lm.main.wire.frames), lm.main.ops)
		v["tsserve.bytes_per_ts"] = perOp(float64(lm.main.wire.bytes), lm.main.ops)
		v["tsserve.allocs_per_ts"] = perOp(float64(lm.main.mallocs), lm.main.ops)
		v["tsserve.rejections"] = float64(lm.main.wire.rejections + lm.mainTraced.wire.rejections)
	}

	v["process.alloc_bytes_per_ts"] = perOp(float64(lm.main.allocBytes), lm.main.ops)
	v["trace.overhead_frac"] = 1 - median(lm.mainTraced.rate)/median(lm.main.rate)
	v["trace.uncovered_frac"] = uncovered(h.spans, legMainTraced)
	return v
}
