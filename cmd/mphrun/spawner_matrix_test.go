package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mph/internal/mpirun"
)

// sshStub writes a fake ssh client that ignores every option and host
// argument and runs the final argument (the remote command line) in a local
// shell, after the given shell prelude — the agent hop without the network.
// The prelude sees the remote command as $cmd; it can print what a remote
// host would (a login banner) or fail the way ssh does. With an empty
// prelude the SSHSpawner path runs unmodified in CI: option parsing,
// command quoting, the host-agent session, kill forwarding.
func sshStub(t *testing.T, prelude string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fake-ssh")
	script := "#!/bin/sh\nfor a in \"$@\"; do cmd=\"$a\"; done\n" + prelude + "\nexec /bin/sh -c \"$cmd\"\n"
	if err := os.WriteFile(path, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return path
}

// testAgentPath points the agent-capable spawners at this test binary,
// whose TestMain doubles as the agent entry point.
func testAgentPath(t *testing.T) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return self
}

// captureStd redirects *std (os.Stdout or os.Stderr) to a file for the rest
// of the test and returns a func that reads what has been written so far.
// The launcher relays rank and agent output to its own standard streams,
// so this is what an operator would see.
func captureStd(t *testing.T, std **os.File) func() []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "std")
	if err != nil {
		t.Fatal(err)
	}
	saved := *std
	*std = f
	t.Cleanup(func() {
		*std = saved
		f.Close()
	})
	return func() []byte {
		b, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// startDaemon runs an in-process mphd on an ephemeral loopback port and
// returns a spawner pinned to it (the -daemon-addr override), so the
// daemon path is exercised without a real per-host deployment.
func startDaemon(t *testing.T) *mpirun.DaemonSpawner {
	t.Helper()
	d, err := mpirun.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(func() { d.Close() })
	return mpirun.NewDaemonSpawner(d.Addr(), 0)
}

// TestLaunchSpawnerMatrix runs the same two-component MPH job — handshake,
// topology check, named message, final barrier — through every Spawner
// implementation. The matrix is the contract: any spawner that passes here
// is interchangeable under mpirun.Launch. Every spawner must relay a rank's
// output byte for byte, including a line that is not UTF-8, and the exec
// and ssh backends must start exactly one agent per host block.
func TestLaunchSpawnerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	twoHosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	cases := []struct {
		name        string
		hosts       []mpirun.HostSlot
		expectHosts string
		agents      int // agent processes the launch must start
		spawner     func(t *testing.T) mpirun.Spawner
	}{
		{"local", nil, "", 0, func(t *testing.T) mpirun.Spawner {
			return mpirun.NewLocalSpawner()
		}},
		{"exec", twoHosts, "nodeA,nodeA,nodeB,nodeB", 2, func(t *testing.T) mpirun.Spawner {
			return mpirun.NewExecSpawner(testAgentPath(t))
		}},
		{"ssh", twoHosts, "nodeA,nodeA,nodeB,nodeB", 2, func(t *testing.T) mpirun.Spawner {
			sp := mpirun.NewSSHSpawner(testAgentPath(t), nil)
			sp.Command = sshStub(t, "")
			return sp
		}},
		{"daemon", twoHosts, "nodeA,nodeA,nodeB,nodeB", 0, func(t *testing.T) mpirun.Spawner {
			return startDaemon(t)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			agentLog := filepath.Join(t.TempDir(), "agents")
			t.Setenv("MPH_TEST_WORKER", "1")
			t.Setenv("MPH_TEST_EXPECT_HOSTS", tc.expectHosts)
			t.Setenv("MPH_TEST_RAW_LINE", "1")
			t.Setenv("MPH_TEST_AGENT_LOG", agentLog)
			stdout := captureStd(t, &os.Stdout)
			spec := selfSpec(t, 3, tc.hosts, mpirun.PlaceBlock)
			spec.Registration = writeRegistration(t)
			spec.Timeout = 60 * time.Second
			spec.Spawner = tc.spawner(t)
			if err := mpirun.Launch(context.Background(), spec); err != nil {
				t.Fatalf("launch via %s spawner: %v", tc.name, err)
			}
			want := "[exe1 rank3" + map[bool]string{true: "@nodeB"}[tc.hosts != nil] + "] \xff\xfe\n"
			if out := stdout(); !bytes.Contains(out, []byte(want)) {
				t.Errorf("relayed stdout lacks %q:\n%q", want, out)
			}
			starts, err := os.ReadFile(agentLog)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if n := bytes.Count(starts, []byte("\n")); n != tc.agents {
				t.Errorf("%d agent process(es) started, want %d (one per host block)", n, tc.agents)
			}
		})
	}
}

// TestLaunchSSHAgentFailure is an ssh client that fails on nodeA before
// the agent speaks the protocol — authentication refused, exit 255 — while
// nodeB's agent runs. The host probe gets through (its `true` runs), so the
// failure meets the spawn path: the launch must fail promptly rather than
// wait out -timeout, its error must name the host, and the ssh client's
// message must reach the launcher's stderr tagged with that host.
func TestLaunchSSHAgentFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	stderr := captureStd(t, &os.Stderr)
	sp := mpirun.NewSSHSpawner(testAgentPath(t), nil)
	sp.Command = sshStub(t, `[ "$cmd" = true ] && exit 0
case " $* " in *" nodeA "*) echo 'Permission denied (publickey).' >&2; exit 255;; esac`)
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = sp
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success with every ssh session refused")
	}
	if elapsed > 15*time.Second {
		t.Fatalf("launch took %v; a refused ssh session must fail the job well under the 60s timeout", elapsed)
	}
	if !strings.Contains(err.Error(), "nodeA") {
		t.Errorf("error %q does not name the host", err)
	}
	if want := "[agent@nodeA] Permission denied (publickey)."; !bytes.Contains(stderr(), []byte(want)) {
		t.Errorf("stderr lacks %q:\n%s", want, stderr())
	}
}

// TestLaunchSSHBanner is a remote rc file that prints a banner on stdout
// before the agent starts. A line on the agent's stdout that is not an
// event is noise, not a protocol failure: the job must succeed and the
// banner must be relayed to stderr tagged with its host.
func TestLaunchSSHBanner(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	stderr := captureStd(t, &os.Stderr)
	sp := mpirun.NewSSHSpawner(testAgentPath(t), nil)
	sp.Command = sshStub(t, "echo 'Welcome to the cluster'")
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = sp
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch behind a banner-printing rc file: %v", err)
	}
	for _, want := range []string{"[agent@nodeA] Welcome to the cluster\n", "[agent@nodeB] Welcome to the cluster\n"} {
		if !bytes.Contains(stderr(), []byte(want)) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr())
		}
	}
}

// TestLaunchDaemonChaos repeats the cross-host failure-semantics test with
// the daemon backend: rank 1 (nodeA) dies after the handshake, rank 3
// (nodeB) hangs outside any MPI call. The abort must cross the host
// boundary and the grace-expiry kill must reach the hanging rank through
// its host daemon, finishing the job in bounded time with both casualties
// named in the report.
func TestLaunchDaemonChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_FAIL_RANK", "1")
	t.Setenv("MPH_TEST_HANG_RANK", "3")
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Grace = 2 * time.Second
	spec.Spawner = startDaemon(t)
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a chaos job")
	}
	// The hang rank sleeps for minutes; anything close to that means the
	// grace kill never made it through the daemon.
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; the daemon-side grace kill should bound the job to seconds", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1@nodeA") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not name rank 1@nodeA as the first failure", msg)
	}
	if !strings.Contains(msg, "rank 3@nodeB") {
		t.Errorf("report %q does not name the killed hanging rank 3@nodeB", msg)
	}
}

// TestLaunchDaemonDeathMidJob kills the host daemon while a job is live:
// the launcher must convert the lost control connection into a supervised
// job failure — every still-running rank reported with a connection-lost
// error, bounded turnaround, never a hang until the rendezvous timeout.
func TestLaunchDaemonDeathMidJob(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 4}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_HANG_RANK", "2")
	d, err := mpirun.NewDaemon("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go d.Serve()
	t.Cleanup(func() { d.Close() })
	spec := selfSpec(t, 2, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Grace = 2 * time.Second
	spec.Spawner = mpirun.NewDaemonSpawner(d.Addr(), 0)
	// The daemon "crashes" shortly after the handshake has the job running.
	go func() {
		time.Sleep(1500 * time.Millisecond)
		d.Close()
	}()
	start := time.Now()
	err = mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success after its daemon died mid-job")
	}
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; daemon death must surface promptly, not wait out the timeout", elapsed)
	}
	if !strings.Contains(err.Error(), "connection lost") {
		t.Errorf("report %q does not surface the lost daemon connection", err)
	}
}
