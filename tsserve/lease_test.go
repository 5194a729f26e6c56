package tsserve_test

import (
	"context"
	"encoding/binary"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"tsspace"
	"tsspace/tsserve"
)

// rawFrame writes one wire-v3 frame on c and reads the answer.
func rawFrame(t *testing.T, c net.Conn, typ byte, payload []byte) (byte, []byte) {
	t.Helper()
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	if _, err := c.Write(append(append(frame, typ), payload...)); err != nil {
		t.Fatal(err)
	}
	return readFrame(t, c)
}

// rawAttach dials a wire-v3 listener and attaches into ns with an
// attach_ns frame, returning the connection and the lease's id.
func rawAttach(t *testing.T, addr, ns string) (net.Conn, string) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte(tsserve.BinaryMagic)); err != nil {
		t.Fatal(err)
	}
	typ, p := rawFrame(t, c, 0x05, append([]byte{byte(len(ns))}, ns...)) // frameAttachNS
	if typ != 0x85 {                                                     // frameAttachNSOK
		t.Fatalf("attach_ns answered 0x%02x %q", typ, p)
	}
	return c, string(p[:16])
}

// leaseGauge reads tsserve_ns_sessions{namespace="lease"} from the
// Prometheus exposition, or -1 when the namespace has no sample.
func leaseGauge(front *tsserve.Server) int {
	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics/prometheus", nil))
	_, v, ok := strings.Cut(rec.Body.String(), `tsserve_ns_sessions{namespace="lease"} `)
	if !ok {
		return -1
	}
	n, _ := strconv.Atoi(v[:strings.IndexByte(v, '\n')])
	return n
}

// Every way a wire lease can end — HTTP detach, wire-v3 detach, TTL
// reap, connection drop, deprovision and server Close — goes through the
// one lease exit: the flight recorder shows exactly one attach and one
// exit event for the lease, the namespace's session gauge returns to 0,
// and the quota-1 namespace admits the next attach.
func TestEveryLeaseExitBalances(t *testing.T) {
	type lease struct {
		t     *testing.T
		c     *tsserve.Client
		front *tsserve.Server
		sess  *tsserve.RemoteSession // HTTP-attached leases
		conn  net.Conn               // wire-v3-attached leases
		id    string
	}
	cases := []struct {
		name   string
		binary bool   // attach over a raw wire-v3 connection, not HTTP
		kind   string // the exit event expected
		gone   bool   // the namespace does not survive the exit
		end    func(l lease)
	}{
		{"http detach", false, "detach", false, func(l lease) {
			if err := l.sess.Detach(); err != nil {
				l.t.Fatal(err)
			}
		}},
		{"wire-v3 detach", true, "detach", false, func(l lease) {
			if typ, p := rawFrame(l.t, l.conn, 0x03, []byte(l.id)); typ != 0x83 { // frameDetach, frameDetachOK
				l.t.Fatalf("detach answered 0x%02x %q", typ, p)
			}
		}},
		{"ttl reap", false, "reap", false, func(lease) {}},
		{"connection drop", true, "crash", false, func(l lease) { l.conn.Close() }},
		{"deprovision", false, "detach", true, func(l lease) {
			resp, err := l.c.DeprovisionNamespace(context.Background(), "lease")
			if err != nil || resp.ReleasedSessions != 1 {
				l.t.Fatalf("deprovision = (%+v, %v), want 1 released session", resp, err)
			}
		}},
		{"close", false, "detach", true, func(l lease) { l.front.Close() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			ttl := time.Minute
			if tc.kind == "reap" {
				ttl = 50 * time.Millisecond
			}
			bc, c, front, _ := newBinaryServer(t, tsserve.ServerConfig{SessionTTL: ttl}, tsspace.WithProcs(2))
			spec := tsserve.ProvisionRequest{Procs: 2, MaxSessions: 1}
			if _, err := c.ProvisionNamespace(ctx, "lease", spec); err != nil {
				t.Fatal(err)
			}
			l := lease{t: t, c: c, front: front}
			if tc.binary {
				l.conn, l.id = rawAttach(t, bc.Addr(), "lease")
				defer l.conn.Close()
			} else {
				sess, err := c.Namespace("lease").Attach(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sess.GetTS(ctx); err != nil {
					t.Fatal(err)
				}
				l.sess, l.id = sess, sess.ID()
			}
			if n := leaseGauge(front); n != 1 {
				t.Fatalf("tsserve_ns_sessions = %d with the lease held, want 1", n)
			}
			tc.end(l)

			// Reaps and connection drops land asynchronously: wait for the
			// exit event, then check nothing else was recorded for the lease.
			counts := map[string]int{}
			for deadline := time.Now().Add(5 * time.Second); counts[tc.kind] == 0 && time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				clear(counts)
				for _, e := range dumpEvents(t, front) {
					if e.Session == l.id {
						counts[e.Kind]++
					}
				}
			}
			if counts["attach"] != 1 || counts[tc.kind] != 1 || counts["detach"]+counts["reap"]+counts["crash"] != 1 {
				t.Errorf("events for lease %s = %v, want one attach and one %s", l.id, counts, tc.kind)
			}
			want := 0
			if tc.gone {
				want = -1 // no sample: the namespace is gone
			}
			if n := leaseGauge(front); n != want {
				t.Errorf("tsserve_ns_sessions = %d after the exit, want %d", n, want)
			}
			if m := front.MetricsSnapshot(); m.WireSessions != 0 {
				t.Errorf("wire_sessions = %d after the exit, want 0", m.WireSessions)
			}

			if tc.name == "close" {
				return // a closed server serves no further leases
			}
			if tc.gone {
				if _, err := c.ProvisionNamespace(ctx, "lease", spec); err != nil {
					t.Fatal(err)
				}
			}
			next, err := c.Namespace("lease").Attach(ctx)
			if err != nil {
				t.Fatalf("next attach into the quota-1 namespace: %v", err)
			}
			next.Detach()
		})
	}
}

// A detach of an id the table does not hold is counted in
// unknown_sessions on both transports.
func TestUnknownSessionDetachCounted(t *testing.T) {
	bc, _, front, _ := newBinaryServer(t, tsserve.ServerConfig{}, tsspace.WithProcs(2))
	bogus := strings.Repeat("e", 16)

	rec := httptest.NewRecorder()
	front.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/session/"+bogus, nil))
	if got := front.MetricsSnapshot().UnknownSessions; rec.Code != http.StatusNotFound || got != 1 {
		t.Fatalf("HTTP detach of an unknown id: status %d, unknown_sessions %d; want 404, 1", rec.Code, got)
	}

	conn, _ := rawAttach(t, bc.Addr(), tsserve.DefaultNamespace)
	defer conn.Close()
	typ, p := rawFrame(t, conn, 0x03, []byte(bogus)) // frameDetach
	if typ != 0xFF || len(p) == 0 || p[0] != 5 {     // frameError, binCodeUnknownSession
		t.Fatalf("wire-v3 detach of an unknown id answered 0x%02x %q, want unknown_session", typ, p)
	}
	if got := front.MetricsSnapshot().UnknownSessions; got != 2 {
		t.Errorf("unknown_sessions = %d after the wire-v3 detach, want 2", got)
	}
}
