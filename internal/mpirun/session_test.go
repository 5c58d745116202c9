package mpirun

import (
	"testing"
	"time"
)

// abortNote is one onAbort callback observed by a test rank.
type abortNote struct{ code, origin int }

// startSessions registers n ranks with a fresh Rendezvous and starts
// watching each session, reporting aborts on the returned channels.
func startSessions(t *testing.T, n int) (*Rendezvous, []*Session, []chan abortNote) {
	t.Helper()
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rv.Close)
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()
	sessions := make([]*Session, n)
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(r int) {
			s, err := Register(rv.Advertised(), r, Endpoint{Addr: addrFor(r)}, 10*time.Second)
			sessions[r] = s
			errs <- err
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
	notes := make([]chan abortNote, n)
	for r, s := range sessions {
		t.Cleanup(func() { s.Close() })
		notes[r] = make(chan abortNote, 1)
		ch := notes[r]
		s.Watch(func(code, origin int) { ch <- abortNote{code, origin} })
	}
	return rv, sessions, notes
}

// expectAbort waits for one abort notice on ch.
func expectAbort(t *testing.T, rank int, ch <-chan abortNote, want abortNote) {
	t.Helper()
	select {
	case got := <-ch:
		if got != want {
			t.Errorf("rank %d: abort %+v, want %+v", rank, got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("rank %d: no abort within 5s", rank)
	}
}

// expectNoAbort checks that ch stays quiet for a short while.
func expectNoAbort(t *testing.T, rank int, ch <-chan abortNote) {
	t.Helper()
	select {
	case got := <-ch:
		t.Errorf("rank %d: unexpected abort %+v", rank, got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestSessionAbortRelay checks the launcher's relay: a rank's abort reaches
// every other rank's session with the rank as origin, but not the sender —
// also when it follows a torn line, which the launcher must skip rather
// than end the session over.
func TestSessionAbortRelay(t *testing.T) {
	_, sessions, notes := startSessions(t, 3)
	if _, err := sessions[0].conn.Write([]byte("{\"kind\":\"rep\n")); err != nil {
		t.Fatal(err)
	}
	if err := sessions[0].Abort(4, 0); err != nil {
		t.Fatal(err)
	}
	expectAbort(t, 1, notes[1], abortNote{4, 0})
	expectAbort(t, 2, notes[2], abortNote{4, 0})
	expectNoAbort(t, 0, notes[0])
}

// TestSessionLauncherAbort checks Rendezvous.Abort: every session gets the
// launcher-origin abort.
func TestSessionLauncherAbort(t *testing.T) {
	rv, _, notes := startSessions(t, 2)
	rv.Abort(1)
	for r, ch := range notes {
		expectAbort(t, r, ch, abortNote{1, AbortOriginLauncher})
	}
}

// TestSessionLease checks both ends of the lease: a rank that hangs up
// itself sees no abort, and the ranks still connected read the launcher's
// Close as a launcher-origin abort.
func TestSessionLease(t *testing.T) {
	rv, sessions, notes := startSessions(t, 3)
	sessions[2].Close()
	expectNoAbort(t, 2, notes[2])
	rv.Close()
	expectAbort(t, 0, notes[0], abortNote{1, AbortOriginLauncher})
	expectAbort(t, 1, notes[1], abortNote{1, AbortOriginLauncher})
	expectNoAbort(t, 2, notes[2])
}
