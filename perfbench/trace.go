package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// spanName identifies the call a span times. Every name but op and
// round is one public entry point of one layer, called from this
// package; no span is recorded inside the program.
type spanName uint8

const (
	spOp    spanName = iota // root of one op: a GetTS, or a sqrt lease
	spRound                 // root of one round's coordinator work
	spSDKNew
	spSDKAttach
	spSDKGetTS
	spSDKDetach
	spSDKClose
	spWireAttach
	spWireAttachNS
	spWireGetTS
	spWireDetach
	spWireProvision
	spWireDeprovision
	spAlgGetTS
	spScan
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "round",
	"tsspace.New", "tsspace.Object.Attach", "tsspace.Session.GetTS", "tsspace.Session.Detach", "tsspace.Object.Close",
	"tsserve.BinaryClient.Attach", "tsserve.BinaryClient.AttachNamespace", "tsserve.BinarySession.GetTS",
	"tsserve.BinarySession.Detach", "tsserve.Client.ProvisionNamespace", "tsserve.Client.DeprovisionNamespace",
	"timestamp.Algorithm.GetTS", "snapshot.Scan",
}

// span is one timed call: its name, the leg it ran in, its interval on
// the run clock, the op it belongs to and the index of its parent span
// in the same buffer (-1 for a root).
type span struct {
	start, end int64
	op         uint32
	parent     int32
	name       spanName
	leg        uint8
}

// spanBuf is one goroutine's span store, allocated during set-up and
// only appended to while measuring. A leg may fill it up to limit; the
// leg stops before a round could overflow it.
type spanBuf struct {
	spans []span
	limit int
}

func newSpanBuf(capacity int) *spanBuf {
	return &spanBuf{spans: make([]span, 0, capacity)}
}

// room reports how many spans the current leg may still record.
func (b *spanBuf) room() int { return b.limit - len(b.spans) }

// allow lets the next leg record up to quota more spans.
func (b *spanBuf) allow(quota int) { b.limit = min(len(b.spans)+quota, cap(b.spans)) }

// open records a root span starting at t and returns its index; the
// end is set by close.
func (b *spanBuf) open(name spanName, leg uint8, opID uint32, t int64) int32 {
	b.spans = append(b.spans, span{start: t, op: opID, parent: -1, name: name, leg: leg})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32, t int64) { b.spans[i].end = t }

// child records a complete span under parent.
func (b *spanBuf) child(parent int32, name spanName, start, end int64) {
	p := &b.spans[parent]
	b.spans = append(b.spans, span{start: start, end: end, op: p.op, parent: parent, name: name, leg: p.leg})
}

// spanStats summarizes the spans of one name in one leg.
type spanStats struct {
	mean, p50, p99 float64
}

// spanSummary gathers the durations of every span named name in leg
// (legAny: in every leg) across bufs into scratch and summarizes them.
func spanSummary(bufs []*spanBuf, leg uint8, name spanName, scratch []int64) spanStats {
	d := scratch[:0]
	for _, b := range bufs {
		for i := range b.spans {
			if s := &b.spans[i]; (leg == legAny || s.leg == leg) && s.name == name {
				d = append(d, s.end-s.start)
			}
		}
	}
	if len(d) == 0 {
		return spanStats{}
	}
	slices.Sort(d)
	return spanStats{mean: mean(d), p50: quantile(d, 0.5), p99: quantile(d, 0.99)}
}

// uncovered returns the median over the op spans of leg of the share
// of each op's time that no child span covers: the benchmark's own
// bookkeeping between layer calls. A median, because one preemption
// inside a sub-µs op says nothing about the instrumentation. Children
// follow their op in its buffer and never overlap (the op calls them
// in turn).
func uncovered(bufs []*spanBuf, leg uint8) float64 {
	var shares []float64
	for _, b := range bufs {
		root, covered := int32(-1), int64(0)
		done := func() {
			if root >= 0 {
				if d := b.spans[root].end - b.spans[root].start; d > 0 {
					shares = append(shares, float64(d-covered)/float64(d))
				}
			}
		}
		for i := range b.spans {
			s := &b.spans[i]
			switch {
			case s.leg != leg:
			case s.parent < 0 && s.name == spOp:
				done()
				root, covered = int32(i), 0
			case s.parent >= 0 && s.parent == root:
				p := &b.spans[root]
				covered += min(s.end, p.end) - max(s.start, p.start)
			}
		}
		done()
	}
	if len(shares) == 0 {
		return 0
	}
	return median(shares)
}

// writeSpans stores every recorded span in path: a text header (the
// provenance, the leg and span name tables), then one 27-byte
// little-endian record per span — start, end (int64 ns), op (uint32),
// parent (int32), name, leg and buffer (uint8 each).
func writeSpans(path, provenance string, legs []string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench spans v1\nprovenance %s\nlegs %s\nnames %s\n",
		provenance, strings.Join(legs, ","), strings.Join(spanNames[:], ","))
	var rec [27]byte
	for bi, b := range bufs {
		for _, s := range b.spans {
			binary.LittleEndian.PutUint64(rec[0:], uint64(s.start))
			binary.LittleEndian.PutUint64(rec[8:], uint64(s.end))
			binary.LittleEndian.PutUint32(rec[16:], s.op)
			binary.LittleEndian.PutUint32(rec[20:], uint32(s.parent))
			rec[24], rec[25], rec[26] = byte(s.name), s.leg, byte(bi)
			if _, err := w.Write(rec[:]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
