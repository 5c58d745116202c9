package tcpnet

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"mph/internal/mpi"
	"mph/internal/mpirun"
)

// wantAbort waits for a blocked operation's error and checks it is the
// typed abort with the given code and origin.
func wantAbort(t *testing.T, blocked <-chan error, within time.Duration, code, origin int) {
	t.Helper()
	select {
	case err := <-blocked:
		var ae *mpi.AbortError
		if !errors.As(err, &ae) || ae.Code != code || ae.Origin != origin {
			t.Fatalf("blocked recv returned %v, want AbortError{Code: %d, Origin: %d}", err, code, origin)
		}
	case <-time.After(within):
		t.Fatalf("abort did not unblock the receive within %v", within)
	}
}

// TestSessionLeaseAbortsOnLauncherLoss closes the launcher side of the
// control sessions mid-job — what a launcher crash looks like to its ranks
// — and checks that a rank blocked in Recv fails with the launcher-origin
// abort promptly, well inside the peer timeout that would otherwise be its
// only way out.
func TestSessionLeaseAbortsOnLauncherLoss(t *testing.T) {
	t.Setenv(EnvPeerTimeout, "30s")
	_, envs, rv := startLaunchedWorld(t, 2)
	defer envs[0].Close()
	defer envs[1].Close()

	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(envs[1]).Recv(0, 1)
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	rv.Close()
	wantAbort(t, blocked, 5*time.Second, 1, -1)
}

// TestSessionAbortReachesUnconnectedPeer has rank 0 abort a 3-rank world
// before any traffic: the abort must reach rank 2, blocked in a receive from
// rank 1, through the launcher's relay alone — no rank dials another rank's
// data listener for it.
func TestSessionAbortReachesUnconnectedPeer(t *testing.T) {
	trs, envs := startWorld(t, 3)
	for _, env := range envs {
		defer env.Close()
	}

	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(envs[2]).Recv(1, 1)
		blocked <- err
	}()
	time.Sleep(20 * time.Millisecond)
	mpi.WorldComm(envs[0]).Abort(7)
	wantAbort(t, blocked, 5*time.Second, 7, 0)

	for r, tr := range trs {
		tr.mu.Lock()
		inbound := len(tr.inbound)
		tr.mu.Unlock()
		if inbound != 0 {
			t.Errorf("rank %d accepted %d data connection(s) for an abort", r, inbound)
		}
		if dials := envs[r].Perf().Net.Dials.Load(); dials != 0 {
			t.Errorf("rank %d dialed %d peer(s) for an abort", r, dials)
		}
	}
	if got := envs[0].Perf().Net.AbortsOut.Load(); got != 1 {
		t.Errorf("rank 0 AbortsOut = %d, want 1", got)
	}
	if got := envs[2].Perf().Net.AbortsIn.Load(); got != 1 {
		t.Errorf("rank 2 AbortsIn = %d, want 1", got)
	}
}

// TestDialsCountPeersContacted runs a 3-rank all-to-all and checks that
// each rank's Dials counter equals the number of peers it sent to: one
// dial per peer pair. All ranks share one host with the intra-host channel
// on, the placement where a rank's first send races the shm offer that
// answers its peer's hello; both used to dial, and Dials counts every
// connection dialed, so a duplicate dial shows here.
func TestDialsCountPeersContacted(t *testing.T) {
	t.Setenv(mpirun.EnvHost, "nodeA")
	t.Setenv(EnvShm, "on")
	const n = 3
	trs, envs := startWorld(t, n)
	for r, env := range envs {
		defer env.Close()
		if trs[r].shmLn == nil {
			t.Fatalf("rank %d: intra-host channel not listening", r)
		}
	}
	errs := make(chan error, n)
	for r := 0; r < n; r++ {
		go func(r int) {
			c := mpi.WorldComm(envs[r])
			for dst := 0; dst < n; dst++ {
				if dst != r {
					if err := c.Send(dst, 2, []byte{byte(r)}); err != nil {
						errs <- err
						return
					}
				}
			}
			for src := 0; src < n; src++ {
				if src != r {
					data, _, err := c.Recv(src, 2)
					if err == nil && (len(data) != 1 || int(data[0]) != src) {
						err = fmt.Errorf("rank %d got %v from %d", r, data, src)
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}
			errs <- nil
		}(r)
	}
	for r := 0; r < n; r++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for r, env := range envs {
		if got := env.Perf().Net.Dials.Load(); got != n-1 {
			t.Errorf("rank %d: Dials = %d, want %d", r, got, n-1)
		}
	}
}

// formerAbortFrame is a kind-5 frame with an abort-shaped body (i64 code,
// i64 origin). Kind 5 is unassigned, so no data stream may carry it.
var formerAbortFrame = append([]byte{17, 0, 0, 0, 5}, make([]byte, 16)...)

// TestFormerAbortKindRejected writes a kind-5 abort frame into a rank's
// data listener: the read loop must reject it as an unknown frame kind —
// the stream's loss then condemns the sender like any broken stream — and
// must not abort the rank. The sender is a zombie rank 1 that registered
// but runs no transport, so nothing else speaks for it.
func TestFormerAbortKindRejected(t *testing.T) {
	t.Setenv(EnvPeerTimeout, "300ms")
	rv, err := mpirun.NewRendezvous(2)
	if err != nil {
		t.Fatal(err)
	}
	defer rv.Close()
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()
	zln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer zln.Close()
	go mpirun.Register(rv.Advertised(), 1, mpirun.Endpoint{Addr: zln.Addr().String()}, 10*time.Second)
	tr, env, err := initTransport(0, 2, rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}

	blocked := make(chan error, 1)
	go func() {
		_, _, err := mpi.WorldComm(env).Recv(1, 1)
		blocked <- err
	}()
	conn, err := net.Dial("tcp", tr.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(append(helloFrame(1), formerAbortFrame...)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-blocked:
		var ae *mpi.AbortError
		if errors.As(err, &ae) {
			t.Fatalf("kind-5 frame aborted the rank: %v", err)
		}
		if rank, ok := mpi.IsPeerLost(err); !ok || rank != 1 || !strings.Contains(err.Error(), "unknown frame kind 5") {
			t.Fatalf("blocked recv returned %v, want ErrPeerLost{Rank: 1} caused by the unknown frame kind", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("kind-5 frame was not rejected")
	}
	if got := env.Perf().Net.AbortsIn.Load(); got != 0 {
		t.Errorf("AbortsIn = %d, want 0", got)
	}
}
