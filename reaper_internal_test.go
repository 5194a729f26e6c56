package tsspace

import (
	"context"
	"testing"
	"time"
	"unsafe"

	"tsspace/internal/register"
)

// gateMem holds a getTS open mid-collect: its first Read signals entered
// and blocks until gate closes. It hides the scalar fast path of the
// wrapped memory, so the algorithm reads register by register.
type gateMem struct {
	register.Mem
	entered, gate chan struct{}
}

func (m *gateMem) Read(i int) register.Value {
	select {
	case <-m.entered:
	default:
		close(m.entered)
		<-m.gate
	}
	return m.Mem.Read(i)
}

// The TTL reaper force-detaches a session whose getTS has stalled
// mid-call. The pid must not be leased again until that getTS returns:
// otherwise two getTS instances run as one process, which no algorithm
// here allows.
func TestReaperWaitsForInFlightGetTS(t *testing.T) {
	obj, err := New(WithAlgorithm("collect"), WithProcs(1), WithSessionTTL(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer obj.Close()
	gm := &gateMem{Mem: obj.mems[0], entered: make(chan struct{}), gate: make(chan struct{})}
	obj.mems[0] = gm
	ctx := context.Background()
	first, err := obj.Attach(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var held Timestamp
	done := make(chan error, 1)
	go func() {
		var err error
		held, err = first.GetTS(ctx)
		done <- err
	}()
	<-gm.entered

	// Many reaper ticks pass while the getTS is held open; the only pid
	// must stay leased throughout.
	waitCtx, cancel := context.WithTimeout(ctx, 300*time.Millisecond)
	second, err := obj.Attach(waitCtx)
	cancel()
	close(gm.gate)
	if err == nil {
		t.Fatalf("Attach leased pid %d while that pid's getTS was still running", second.Pid())
	}
	if err := <-done; err != nil {
		t.Fatalf("held getTS = %v, want success: it started before the reap", err)
	}
	attachCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if second, err = obj.Attach(attachCtx); err != nil {
		t.Fatalf("attach after the reap: %v", err)
	}
	defer second.Detach()
	if got := obj.Stats().Reaped; got != 1 {
		t.Errorf("Stats().Reaped = %d once the pid is leased again, want 1", got)
	}
	if ts, err := second.GetTS(ctx); err != nil || !obj.Compare(held, ts) {
		t.Errorf("GetTS after the reap = (%v, %v), want ordered after the reaped call's %v", ts, err, held)
	}
}

// A Session fills two cache lines of its own (see the padding's
// comment), so the seq stores of sessions allocated back to back never
// share a line.
func TestSessionSize(t *testing.T) {
	if got := unsafe.Sizeof(Session{}); got != 128 {
		t.Errorf("unsafe.Sizeof(Session{}) = %d, want 128", got)
	}
}
