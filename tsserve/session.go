package tsserve

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tsspace"
	"tsspace/internal/obs"
)

// Wire v2: session-scoped endpoints. A remote caller attaches once,
// pipelines any number of session-scoped batches over the same lease, and
// detaches explicitly — the SDK's lease/churn semantics over HTTP instead
// of one hidden attach per batch:
//
//	POST   /session               → {"session_id": ..., "pid": p, "idle_ttl_ms": t}
//	POST   /session/{id}/getts    {"count": k} → {"pid": p, "timestamps": [...]}
//	DELETE /session/{id}          → {"calls": c}
//
// A server-side session whose lease sits idle longer than the configured
// TTL is reaped (detached and its pid recycled), so abandoned remote
// clients cannot pin paper-processes forever; a request with a reaped or
// unknown id gets 404/unknown_session, which the Go client maps to
// tsspace.ErrDetached.

// AttachResponse is the body of POST /session and POST
// /ns/{name}/session: a leased server-side session, bound into the
// named namespace ("default" on the un-prefixed route). The lease is
// renewed by every session-scoped request; after IdleTTLMs without one
// it may be reaped.
type AttachResponse struct {
	SessionID string `json:"session_id"`
	Namespace string `json:"namespace"`
	Pid       int    `json:"pid"`
	IdleTTLMs int64  `json:"idle_ttl_ms"`
}

// DetachResponse is the body of DELETE /session/{id}. Calls is the number
// of timestamps the session issued over its lifetime.
type DetachResponse struct {
	Calls int `json:"calls"`
}

// wireSession is one leased SDK session addressable over the wire — by
// HTTP and binary clients alike, since both protocols share this table.
type wireSession struct {
	id string
	// idNum is the id's numeric value (the same 8 random bytes id
	// hex-encodes), the form the flight recorder stores per event.
	idNum uint64
	sess  *tsspace.Session
	// ns is the namespace the lease is bound into (the broker released
	// its quota slot when the session leaves the table). Set at
	// register time, never changed.
	ns *namespace
	// binary marks a lease attached over the wire-v3 transport, for the
	// /metrics session split.
	binary bool
	// mu serializes session-scoped batches: the SDK session is one logical
	// client, so concurrent HTTP requests against the same id queue here
	// instead of racing the sequential operation stream.
	mu   sync.Mutex
	last atomic.Int64 // unix nanos of the last completed request; drives reaping
}

// object resolves the Object the lease is bound into — the
// namespace-routing step on the batch hot path of both transports.
// Annotated as a tslint hotpath root so the analyzer guards it.
//
//tslint:hotpath
func (ws *wireSession) object() *tsspace.Object { return ws.ns.obj }

// newSessionID returns a 16-hex-digit random id, both as the wire
// string and as its numeric value (for the flight recorder). Ids are
// capability-ish tokens: unguessable enough that one client cannot
// plausibly stumble into another's lease on a shared daemon.
func newSessionID() (string, uint64) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("tsserve: crypto/rand failed: %v", err))
	}
	return hex.EncodeToString(b[:]), binary.BigEndian.Uint64(b[:])
}

// sessionIDNum parses a wire session id back to its numeric form for
// the flight recorder, so error events name the id the caller asked
// for. Malformed ids record as zero.
func sessionIDNum(id string) uint64 {
	var b [8]byte
	if len(id) != 16 {
		return 0
	}
	if _, err := hex.Decode(b[:], []byte(id)); err != nil {
		return 0
	}
	return binary.BigEndian.Uint64(b[:])
}

// The lease table has one way in and one way out. enter is the only
// caller of namespace.reserve and Object.Attach; leave is the only caller
// of Session.Detach and namespace.release. Between them a lease is found
// by lookup and removed by take, so whichever exit wins — explicit
// detach on either transport, TTL reap, connection drop, deprovision or
// Close — the quota book, the pid pool and the flight recorder see the
// lease end exactly once.

// enter leases a session in ns and registers it in the table: it
// reserves the namespace's quota slot first (so a full namespace answers
// ErrQuota immediately instead of queueing for a pid), attaches under
// ctx, and returns the slot if the attach fails. binary marks leases
// attached over the wire-v3 transport.
func (s *Server) enter(ctx context.Context, ns *namespace, binary bool) (*wireSession, error) {
	if !ns.reserve() {
		s.met.ring.RecordNS(obs.EventError, ns.id, 0, -1, int64(binCodeQuota))
		return nil, fmt.Errorf("namespace %q holds its quota of %d sessions: %w", ns.name, ns.maxSessions, ErrQuota)
	}
	sess, err := ns.obj.Attach(ctx)
	if err != nil {
		ns.release()
		return nil, err
	}
	id, idNum := newSessionID()
	ws := &wireSession{id: id, idNum: idNum, sess: sess, ns: ns, binary: binary}
	ws.last.Store(time.Now().UnixNano())
	s.sessMu.Lock()
	s.sessions[ws.id] = ws
	s.sessMu.Unlock()
	s.met.ring.RecordNS(obs.EventAttach, ns.id, ws.idNum, int32(sess.Pid()), 0)
	return ws, nil
}

// lookup resolves a session id; the boolean is false for unknown (or
// already taken) ids. A non-nil ns also rejects ids bound into another
// namespace — a capability presented on the wrong namespace's routes is
// indistinguishable from an unknown one, which is what keeps namespaces
// isolated. The wire-v3 transport addresses leases purely by capability
// and passes nil. lookup does not retain id, so a caller's string(b)
// conversion of a raw frame id stays off the heap.
func (s *Server) lookup(ns *namespace, id string) (*wireSession, bool) {
	s.sessMu.Lock()
	ws, ok := s.sessions[id]
	s.sessMu.Unlock()
	if !ok || (ns != nil && ws.ns != ns) {
		return nil, false
	}
	return ws, true
}

// take is lookup that also removes the lease from the table, so at most
// one caller ever holds it for leave.
func (s *Server) take(ns *namespace, id string) (*wireSession, bool) {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	ws, ok := s.sessions[id]
	if !ok || (ns != nil && ws.ns != ns) {
		return nil, false
	}
	delete(s.sessions, id)
	return ws, true
}

// leave ends a lease take removed: it detaches the SDK session, which
// waits out a batch in flight and recycles or retires the pid, returns
// the namespace's quota slot, and records one flight-recorder event of
// kind — EventDetach, EventReap or EventCrash — booking reaps and crash
// reclaims in their counters. It returns the calls the lease issued.
func (s *Server) leave(ws *wireSession, kind obs.EventKind) int {
	_ = ws.sess.Detach()
	calls := ws.sess.Calls()
	ws.ns.release()
	switch kind {
	case obs.EventReap:
		ws.ns.reaped.Add(1)
		s.met.reaped.Inc()
	case obs.EventCrash:
		s.met.crashReclaimed.Inc()
	}
	s.met.ring.RecordNS(kind, ws.ns.id, ws.idNum, int32(ws.sess.Pid()), int64(calls))
	return calls
}

// sweep takes every lease match selects and ends each with leave,
// returning how many it ended. match runs under the table lock.
func (s *Server) sweep(match func(*wireSession) bool, kind obs.EventKind) int {
	var ids []string
	s.sessMu.Lock()
	for id, ws := range s.sessions {
		if match(ws) {
			ids = append(ids, id)
		}
	}
	s.sessMu.Unlock()
	n := 0
	for _, id := range ids {
		if ws, ok := s.take(nil, id); ok {
			s.leave(ws, kind)
			n++
		}
	}
	return n
}

// rejectUnknownSession books a session-scoped request against an id the
// table does not hold — counted in unknown_sessions and recorded as an
// error event under nsID — and returns the message to answer with.
func (s *Server) rejectUnknownSession(nsID uint32, id string) string {
	s.met.unknownSessions.Inc()
	s.met.ring.RecordNS(obs.EventError, nsID, sessionIDNum(id), -1, int64(binCodeUnknownSession))
	return fmt.Sprintf("unknown session %q (detached, reaped, or never attached)", id)
}

// reapLoop detaches sessions whose lease has been idle past the TTL. It
// runs until Close.
func (s *Server) reapLoop() {
	interval := s.sessionTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case now := <-t.C:
			s.reapIdle(now)
		}
	}
}

// reapIdle detaches every session idle at now. A session is idle only
// when no request is in flight on it (TryLock) AND its last activity
// stamp — renewed at batch start and end — is past the TTL, so a slow
// batch longer than the TTL is never yanked and never costs the client
// its lease.
func (s *Server) reapIdle(now time.Time) {
	cutoff := now.Add(-s.sessionTTL).UnixNano()
	s.sweep(func(ws *wireSession) bool {
		if ws.last.Load() >= cutoff || !ws.mu.TryLock() {
			return false // active, or a batch in flight: try again next tick
		}
		ws.mu.Unlock()
		return true
	}, obs.EventReap)
}

// Close stops the idle reaper, shuts the binary listeners and
// connections (after a short grace for in-flight frames), detaches
// every live wire session in every namespace (recycling their pids),
// and closes every provisioned namespace's Object. It does not close
// the default namespace's object (the caller owns it) and is
// idempotent. Close the server before that object on shutdown.
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	s.binCancel()
	s.closeBinary()
	s.sweep(func(*wireSession) bool { return true }, obs.EventDetach)
	s.nsMu.Lock()
	provisioned := s.namespaces
	s.namespaces = make(map[string]*namespace)
	s.nsMu.Unlock()
	for _, ns := range provisioned {
		if ns.owned {
			_ = ns.obj.Close()
		}
	}
	return nil
}

// handleAttach is POST /session and POST /ns/{name}/session: lease an
// SDK session in the resolved namespace for this caller.
func (s *Server) handleAttach(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	var req struct{} // attach takes no parameters; reject unknown fields
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	ws, err := s.enter(r.Context(), ns, false)
	if err != nil {
		s.writeSDKError(w, r, ns, err)
		return
	}
	writeJSON(w, http.StatusOK, AttachResponse{
		SessionID: ws.id,
		Namespace: ns.name,
		Pid:       ws.sess.Pid(),
		IdleTTLMs: s.sessionTTL.Milliseconds(),
	})
}

// handleSessionGetTS is POST /session/{id}/getts: one batch on the
// caller's leased session. Requests against the same id serialize, so a
// pipelining client sees the SDK's sequential-session semantics.
func (s *Server) handleSessionGetTS(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	ws, ok := s.lookup(ns, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownSession, s.rejectUnknownSession(ns.id, r.PathValue("id")))
		return
	}
	var req GetTSRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	count := req.Count
	if count < 1 {
		count = 1
	}
	if count > s.maxBatch {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("count %d exceeds the batch cap %d", count, s.maxBatch))
		return
	}
	if ns.obj.OneShot() && count > 1 {
		writeError(w, http.StatusBadRequest, CodeBadRequest,
			fmt.Sprintf("a one-shot object issues one timestamp per process; ask for count 1, not %d", count))
		return
	}

	ws.mu.Lock()
	defer ws.mu.Unlock()
	ws.last.Store(time.Now().UnixNano()) // renew at start too: a long batch is not idle
	buf := make([]tsspace.Timestamp, count)
	n, err := ws.sess.GetTSBatch(r.Context(), buf)
	ws.last.Store(time.Now().UnixNano())
	if err != nil {
		// A short batch burns nothing the caller can recover over the wire:
		// report the failure (with how far the batch got) and let the
		// client retry on a fresh request.
		s.writeSDKError(w, r, ns, fmt.Errorf("timestamp %d/%d: %w", n+1, count, err))
		return
	}
	resp := GetTSResponse{Pid: ws.sess.Pid(), Timestamps: make([]TS, n)}
	for i := 0; i < n; i++ {
		resp.Timestamps[i] = FromTimestamp(buf[i])
	}
	s.met.batches.Inc()
	writeJSON(w, http.StatusOK, resp)
}

// handleDetach is DELETE /session/{id} (and its /ns/{name} form):
// return the lease explicitly.
func (s *Server) handleDetach(w http.ResponseWriter, r *http.Request) {
	ns, ok := s.requestNS(w, r)
	if !ok {
		return
	}
	ws, ok := s.take(ns, r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, CodeUnknownSession, s.rejectUnknownSession(ns.id, r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, DetachResponse{Calls: s.leave(ws, obs.EventDetach)})
}
