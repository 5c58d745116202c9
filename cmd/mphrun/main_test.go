package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"mph/internal/core"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/mpi/tcpnet"
	"mph/internal/mpirun"
)

// TestMain doubles as the MPMD worker and the host agent: when mphrun
// (driven by the tests below) spawns this test binary with MPH_TEST_WORKER
// set it behaves as one executable of a multi-component job, and when it is
// invoked as "agent" it serves the host-agent session on its stdio — which
// is how the exec- and ssh-backend tests cover the remote spawn path
// without an sshd. Each agent start appends one line to the file named by
// MPH_TEST_AGENT_LOG, if set, so tests can count agents per launch.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		if path := os.Getenv("MPH_TEST_AGENT_LOG"); path != "" {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Fprintln(f, os.Getpid())
			f.Close()
		}
		mpirun.ServeStdio()
		os.Exit(0)
	}
	if os.Getenv("MPH_TEST_WORKER") == "1" {
		os.Exit(worker())
	}
	os.Exit(m.Run())
}

// worker is one executable of the launched job: the last rank is "beta",
// every other rank "alpha". They handshake over the TCP world and exchange
// one name-addressed message.
//
// Test hooks, all read from the environment (the launcher forwards MPH_*
// variables to every rank on every host):
//
//	MPH_TEST_FAIL_RANK     this rank exits 3 right after the handshake
//	MPH_TEST_HANG_RANK     this rank sleeps instead of participating, so
//	                       only the launcher's grace kill can end it
//	MPH_TEST_EXPECT_HOSTS  comma-separated host of each rank; the worker
//	                       verifies the published topology and SplitByHost
//	MPH_TEST_HOLD          the highest rank waits (up to a minute) for this
//	                       file to exist before the final barrier, keeping
//	                       the job alive for a mid-run scrape and making it
//	                       the straggler the telemetry test looks for
//	MPH_TEST_NO_STATS_DIR  the rank fails if MPH_STATS_DIR is set, proving
//	                       a -stats run needs no stats directory
//	MPH_TEST_RAW_LINE      the last rank writes the line "\xff\xfe" (not
//	                       UTF-8) to stdout, for the relay tests
func worker() int {
	if os.Getenv("MPH_TEST_NO_STATS_DIR") == "1" && os.Getenv(perf.EnvStatsDir) != "" {
		fmt.Fprintf(os.Stderr, "worker: %s is set\n", perf.EnvStatsDir)
		return 1
	}
	env, regPath, err := tcpnet.InitFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer env.Close()
	world := mpi.WorldComm(env)

	name := "alpha"
	if world.Rank() == world.Size()-1 {
		name = "beta"
	}
	s, err := core.SingleComponentSetup(world, core.FileSource(regPath), name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if expect := os.Getenv("MPH_TEST_EXPECT_HOSTS"); expect != "" {
		if err := checkTopology(world, strings.Split(expect, ",")); err != nil {
			fmt.Fprintf(os.Stderr, "rank %d: topology: %v\n", world.Rank(), err)
			return 1
		}
	}
	// Fault hooks for the launcher tests: the fail rank dies abruptly after
	// the handshake while everyone else blocks in communication and must be
	// released by the launcher's abort broadcast; the hang rank sleeps
	// outside any MPI call, so only the launcher's grace-expiry kill —
	// reaching through the agent for remote ranks — can end it.
	if fr := os.Getenv("MPH_TEST_FAIL_RANK"); fr == strconv.Itoa(world.Rank()) {
		fmt.Fprintln(os.Stderr, "worker: injected failure, exiting 3")
		os.Exit(3)
	}
	if hr := os.Getenv("MPH_TEST_HANG_RANK"); hr == strconv.Itoa(world.Rank()) {
		fmt.Fprintln(os.Stderr, "worker: injected hang")
		time.Sleep(5 * time.Minute)
		os.Exit(0)
	}
	const tag = 4
	switch {
	case name == "alpha" && s.LocalProcID() == 1:
		if err := s.SendTo("beta", 0, tag, []byte("launched")); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	case name == "beta":
		data, _, err := s.RecvFrom("alpha", 1, tag)
		if err != nil || string(data) != "launched" {
			fmt.Fprintf(os.Stderr, "beta recv: %q %v\n", data, err)
			return 1
		}
		fmt.Println("beta received the message")
		if os.Getenv("MPH_TEST_RAW_LINE") == "1" {
			os.Stdout.Write([]byte("\xff\xfe\n"))
		}
	}
	if hold := os.Getenv("MPH_TEST_HOLD"); hold != "" && world.Rank() == world.Size()-1 {
		for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			if _, err := os.Stat(hold); err == nil {
				break
			}
		}
	}
	if err := world.Barrier(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// checkTopology verifies the rank's view of the published host topology
// against the expected per-rank host list and exercises SplitByHost: the
// host-local communicator must contain exactly the ranks sharing this
// rank's host.
func checkTopology(world *mpi.Comm, expect []string) error {
	if len(expect) != world.Size() {
		return fmt.Errorf("expect list has %d entries, world is %d", len(expect), world.Size())
	}
	for r, want := range expect {
		if got := world.HostOf(r); got != want {
			return fmt.Errorf("HostOf(%d) = %q, want %q", r, got, want)
		}
	}
	local, err := world.SplitByHost()
	if err != nil {
		return fmt.Errorf("SplitByHost: %w", err)
	}
	mine := expect[world.Rank()]
	want := 0
	for _, h := range expect {
		if h == mine {
			want++
		}
	}
	if local.Size() != want {
		return fmt.Errorf("SplitByHost comm has %d ranks on %s, want %d", local.Size(), mine, want)
	}
	for r := 0; r < local.Size(); r++ {
		wr, err := local.WorldRankOf(r)
		if err != nil {
			return err
		}
		if expect[wr] != mine {
			return fmt.Errorf("SplitByHost comm contains rank %d on %s, want only %s", wr, expect[wr], mine)
		}
	}
	return nil
}

// writeRegistration drops the two-component registration file used by every
// end-to-end test into a temp dir.
func writeRegistration(t *testing.T) string {
	t.Helper()
	regPath := filepath.Join(t.TempDir(), "processors_map.in")
	if err := os.WriteFile(regPath, []byte("BEGIN\nalpha\nbeta\nEND\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return regPath
}

// selfSpec builds a LaunchSpec that runs this test binary as nAlpha alpha
// ranks plus one beta rank, placed on hosts under the policy.
func selfSpec(t *testing.T, nAlpha int, hosts []mpirun.HostSlot, policy mpirun.Placement) *mpirun.LaunchSpec {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	entries := []mpirun.Entry{
		{Nprocs: nAlpha, Argv: []string{self}},
		{Nprocs: 1, Argv: []string{self}},
	}
	spec, err := mpirun.NewLaunchSpec(entries, hosts, policy)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestLaunchEndToEnd runs a real MPMD job: mpirun.Launch spawns three OS
// processes of this test binary (two executables), which bootstrap a TCP
// world, perform the MPH handshake against a registration file, and
// exchange a message (experiment E10).
func TestLaunchEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
}

// TestLaunchReportsChildFailure verifies that a failing rank fails the job.
func TestLaunchReportsChildFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := &mpirun.LaunchSpec{
		Procs:   []mpirun.Proc{{Rank: 0, Argv: []string{"/bin/false"}}},
		Timeout: 2 * time.Second,
		Grace:   time.Second,
	}
	// /bin/false never registers, so the rendezvous times out — and the
	// child's exit status is nonzero. Either way Launch must error.
	if err := mpirun.Launch(context.Background(), spec); err == nil {
		t.Fatal("launch reported success for a failing job")
	}
}

// TestLaunchChildFailureFast is the regression test for the rendezvous-leak
// bug: when a child exits before registering, Launch must cancel the
// rendezvous and return promptly instead of waiting out the full -timeout
// (here 60s) with the Serve goroutine blocked behind it.
func TestLaunchChildFailureFast(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	spec := &mpirun.LaunchSpec{
		Procs:   []mpirun.Proc{{Rank: 0, Argv: []string{"/bin/false"}}},
		Timeout: 60 * time.Second,
		Grace:   time.Second,
	}
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a failing job")
	}
	if !strings.Contains(err.Error(), "before rendezvous completed") {
		t.Errorf("error %q does not mention the premature exit", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("launch took %v; the early child exit should cancel the 60s rendezvous", elapsed)
	}
}

// TestLaunchFailureReport kills one rank of a live 3-rank job after the
// handshake and checks that the launcher aborts the survivors, exits well
// under the rendezvous timeout, and reports the failures grouped per
// component with the primary failure called out.
func TestLaunchFailureReport(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_FAIL_RANK", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	const timeout = 60 * time.Second
	spec.Timeout = timeout
	spec.Grace = 10 * time.Second
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a job with a dying rank")
	}
	if elapsed > timeout/2 {
		t.Fatalf("launch took %v; the abort broadcast should finish the job in well under timeout/2 (%v)", elapsed, timeout/2)
	}
	msg := err.Error()
	if !strings.Contains(msg, "job failed") {
		t.Errorf("report %q lacks the job failed banner", msg)
	}
	if !strings.Contains(msg, "rank 1") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not single out rank 1 as the first failure", msg)
	}
	if !strings.Contains(msg, "exe0") || !strings.Contains(msg, "exe1") {
		t.Errorf("report %q is not grouped per executable", msg)
	}
}

// TestLaunchMultiHostExec runs a 4-rank job placed on two hosts (2 slots
// each) through the exec backend: each host's ranks are spawned by one
// agent over the host-agent session exactly as an ssh launch would, minus
// the ssh hop. The workers verify the published host topology (HostOf,
// SplitByHost), the registration file travels by value through the agent,
// and the stats dumps must still reconcile across the "hosts".
func TestLaunchMultiHostExec(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_EXPECT_HOSTS", "nodeA,nodeA,nodeB,nodeB")
	statsDir := filepath.Join(t.TempDir(), "stats")
	if err := os.MkdirAll(statsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	spec.ExtraEnv = []string{perf.EnvStatsDir + "=" + statsDir}
	for r, want := range []string{"nodeA", "nodeA", "nodeB", "nodeB"} {
		if got := spec.Procs[r].Host; got != want {
			t.Fatalf("placement: rank %d on %q, want %q", r, got, want)
		}
	}
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	snaps, err := readStats(statsDir)
	if err != nil {
		t.Fatalf("readStats: %v", err)
	}
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	_, totals := summarize(snaps)
	if totals.SentMsgs == 0 || totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d, recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
}

// TestLaunchShmChannel places all five ranks of an exec-backend job on ONE
// host with rendezvous forced (MPH_EAGER_THRESHOLD=0, forwarded to every
// rank), so every non-empty payload is eligible for the intra-host channel,
// and checks through the stats dumps that payload frames actually moved over
// it (shm pvars nonzero on both sides, byte counts matching) while the
// job-wide send/recv totals still reconcile — the same assertions the
// scripts/check.sh shm smoke greps for.
func TestLaunchShmChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 5}}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_EXPECT_HOSTS", "nodeA,nodeA,nodeA,nodeA,nodeA")
	t.Setenv(tcpnet.EnvEagerThreshold, "0")
	statsDir := filepath.Join(t.TempDir(), "stats")
	if err := os.MkdirAll(statsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := selfSpec(t, 4, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	spec.ExtraEnv = []string{perf.EnvStatsDir + "=" + statsDir}
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	snaps, err := readStats(statsDir)
	if err != nil {
		t.Fatalf("readStats: %v", err)
	}
	if len(snaps) != 5 {
		t.Fatalf("got %d snapshots, want 5", len(snaps))
	}
	_, totals := summarize(snaps)
	if totals.SentMsgs == 0 || totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d, recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
	var framesOut, framesIn, bytesOut, bytesIn, fallbacks uint64
	for i := range snaps {
		framesOut += snaps[i].Net.ShmRDataOut
		framesIn += snaps[i].Net.ShmRDataIn
		bytesOut += snaps[i].Net.ShmBytesOut
		bytesIn += snaps[i].Net.ShmBytesIn
		fallbacks += snaps[i].Net.ShmFallbacks
	}
	if framesOut == 0 {
		t.Error("no payload frame took the intra-host channel on a single-host placement")
	}
	if framesOut != framesIn {
		t.Errorf("shm frames do not reconcile: %d out, %d in", framesOut, framesIn)
	}
	if bytesOut != bytesIn {
		t.Errorf("shm bytes do not reconcile: %d out, %d in", bytesOut, bytesIn)
	}
	if fallbacks != 0 {
		t.Errorf("%d unexpected fallback(s) to TCP on a healthy single-host job", fallbacks)
	}
}

// TestLaunchMultiHostChaos is the cross-host failure-semantics test: in a
// 4-rank exec-backend job spanning two hosts, rank 1 (nodeA) dies right
// after the handshake and rank 3 (nodeB) hangs outside any MPI call. The
// launcher must abort the survivors across the host boundary, kill the
// hanging remote rank through its agent once -grace expires, finish in
// bounded time, and name both casualties with their hosts in the report.
func TestLaunchMultiHostChaos(t *testing.T) {
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
	spec.Spawner = mpirun.NewExecSpawner("")
	start := time.Now()
	err := mpirun.Launch(context.Background(), spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("launch reported success for a chaos job")
	}
	// The hang rank sleeps for minutes; anything close to that means the
	// grace kill never reached the remote process group.
	if elapsed > 30*time.Second {
		t.Fatalf("launch took %v; the grace kill should bound the job to seconds", elapsed)
	}
	msg := err.Error()
	if !strings.Contains(msg, "rank 1@nodeA") || !strings.Contains(msg, "(first failure)") {
		t.Errorf("report %q does not name rank 1@nodeA as the first failure", msg)
	}
	if !strings.Contains(msg, "rank 3@nodeB") {
		t.Errorf("report %q does not name the killed hanging rank 3@nodeB", msg)
	}
}

// TestLaunchTelemetryMetrics is the end-to-end telemetry-plane test: a
// 4-rank exec-backend job on two fake hosts pushes periodic snapshot reports
// over its control sessions to a launcher-side aggregator whose /metrics
// endpoint is scraped MID-RUN (live Prometheus series with not-yet-final
// ranks), and after the job the aggregated totals must reconcile job-wide
// and agree with the file-based stats dumps. The last rank holds the job
// open before the final barrier until the test has scraped a live view
// (MPH_TEST_HOLD), which also makes it the straggler the stats summary must
// name.
func TestLaunchTelemetryMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	hosts := []mpirun.HostSlot{{Name: "nodeA", Slots: 2}, {Name: "nodeB", Slots: 2}}
	hold := filepath.Join(t.TempDir(), "scraped")
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_HOLD", hold)
	statsDir := filepath.Join(t.TempDir(), "stats")
	if err := os.MkdirAll(statsDir, 0o755); err != nil {
		t.Fatal(err)
	}

	tele := mpirun.NewTelemetry(4, 100*time.Millisecond)
	srv := httptest.NewServer(tele.Handler())
	defer srv.Close()

	spec := selfSpec(t, 3, hosts, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.Spawner = mpirun.NewExecSpawner("")
	spec.Telemetry = tele
	spec.ExtraEnv = []string{perf.EnvStatsDir + "=" + statsDir}

	// Scrape /metrics while the job runs. The held rank keeps the job alive
	// until a live (non-final) view carrying every expected series has been
	// seen, and the scraper then releases it by creating the hold file.
	wants := []string{
		"# TYPE mph_job_sent_messages_total counter",
		"mph_job_ranks_expected 4",
		"mph_rank_sent_messages_total",
		`component="alpha"`,
		`component="beta"`,
		`host="nodeA"`,
		`host="nodeB"`,
	}
	live := func(body string) bool {
		for _, want := range wants {
			if !strings.Contains(body, want) {
				return false
			}
		}
		return !strings.Contains(body, "mph_job_ranks_final 4")
	}
	scraped := make(chan string, 1)
	stopPoll := make(chan struct{})
	go func() {
		defer os.WriteFile(hold, nil, 0o644)
		last := ""
		defer func() { scraped <- last }()
		for {
			select {
			case <-stopPoll:
				return
			default:
			}
			if resp, err := http.Get(srv.URL + "/metrics"); err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if last = string(body); live(last) {
					return
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
	}()

	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}
	close(stopPoll)
	if body := <-scraped; !live(body) {
		t.Errorf("never scraped a live (pre-final) /metrics view with every expected series mid-run; last scrape:\n%s", body)
	}

	// Launch drains every session to EOF, so all four final reports are in.
	view := tele.View()
	if view.Finals != 4 {
		t.Fatalf("got %d final reports, want 4 (view %+v)", view.Finals, view)
	}
	if !view.Reconciled || view.TotalSentMsgs == 0 {
		t.Errorf("job-wide totals must reconcile: %+v", view)
	}

	// The aggregated totals agree with the file-based -stats dumps.
	snaps, err := readStats(statsDir)
	if err != nil {
		t.Fatalf("readStats: %v", err)
	}
	_, totals := summarize(snaps)
	if totals.SentMsgs != view.TotalSentMsgs || totals.RecvMsgs != view.TotalRecvMsgs {
		t.Errorf("telemetry totals %d/%d != stats-file totals %d/%d",
			view.TotalSentMsgs, view.TotalRecvMsgs, totals.SentMsgs, totals.RecvMsgs)
	}

	// Every rank's clock-sync handshake produced an estimate (loopback RTT
	// is nonzero, so the error bound must be too).
	for _, rs := range view.Ranks {
		if rs.ClockErrBoundNS <= 0 {
			t.Errorf("rank %d: no clock-sync estimate (bound %d)", rs.Rank, rs.ClockErrBoundNS)
		}
	}

	// The hold makes the highest rank arrive last at the final barrier:
	// every other rank waits for it, so it reports the least barrier time
	// and the straggler table names it the suspect.
	rows := stragglers(snaps)
	var barrier *stragglerRow
	for i := range rows {
		if rows[i].Op == "barrier" {
			barrier = &rows[i]
			break
		}
	}
	if barrier == nil {
		t.Fatalf("no barrier row in straggler table: %+v", rows)
	}
	if barrier.SuspectRank != 3 {
		t.Errorf("straggler suspect rank %d, want 3 (it was held longest)", barrier.SuspectRank)
	}
	var buf strings.Builder
	printStragglers(&buf, snaps)
	if !strings.Contains(buf.String(), "collective wait skew") {
		t.Errorf("straggler output missing table:\n%s", buf.String())
	}
}

// TestRunStatsFromSessions runs mphrun -stats itself on the 2-host exec job
// and checks that the per-component summary reconciles from the ranks'
// final reports over their control sessions alone: no rank may see a stats
// directory (MPH_TEST_NO_STATS_DIR fails any that does).
func TestRunStatsFromSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	t.Setenv("MPH_TEST_WORKER", "1")
	t.Setenv("MPH_TEST_NO_STATS_DIR", "1")
	t.Setenv(perf.EnvStatsDir, "")
	self := testAgentPath(t)
	var stdout, stderr strings.Builder
	code := run([]string{
		"-hosts", "nodeA:2,nodeB:2", "-backend", "exec", "-placement", "block", "-stats",
		"-timeout", "60s", "-registration", writeRegistration(t),
		"3", self, ":", "1", self,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("mphrun exited %d:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"performance summary (4 rank(s))", "totals reconcile"} {
		if !strings.Contains(out, want) {
			t.Errorf("-stats output lacks %q:\n%s", want, out)
		}
	}
}

// TestSpawnerFor pins the one place a -backend name becomes a Spawner:
// every name maps to its typed spawner, "" defaults to local (ssh once ranks
// are placed on hosts), options reach the constructors, and unknown names
// error.
func TestSpawnerFor(t *testing.T) {
	cases := []struct {
		backend string
		placed  bool
		want    string
	}{
		{"", false, "local"},
		{"", true, "ssh"},
		{"local", false, "local"},
		{"exec", true, "exec"},
		{"ssh", true, "ssh"},
		{"daemon", true, "daemon"},
	}
	for _, c := range cases {
		sp, err := spawnerFor(spawnerOptions{backend: c.backend}, c.placed)
		if err != nil {
			t.Errorf("spawnerFor(%q): %v", c.backend, err)
			continue
		}
		if sp.Name() != c.want {
			t.Errorf("spawnerFor(%q, placed=%v).Name() = %q, want %q", c.backend, c.placed, sp.Name(), c.want)
		}
	}
	if _, err := spawnerFor(spawnerOptions{backend: "rsh"}, false); err == nil {
		t.Error("unknown backend accepted")
	}
	sp, err := spawnerFor(spawnerOptions{backend: "ssh", agentPath: "/usr/local/bin/mphrun", sshOptions: []string{"-p", "2222"}}, true)
	if err != nil {
		t.Fatal(err)
	}
	ssh := sp.(*mpirun.SSHSpawner)
	if ssh.AgentPath != "/usr/local/bin/mphrun" || strings.Join(ssh.Options, " ") != "-p 2222" {
		t.Errorf("ssh options not forwarded: %+v", ssh)
	}
	sp, err = spawnerFor(spawnerOptions{backend: "daemon", daemonAddr: "127.0.0.1:9", daemonPort: 7777}, true)
	if err != nil {
		t.Fatal(err)
	}
	dm := sp.(*mpirun.DaemonSpawner)
	if dm.Addr != "127.0.0.1:9" || dm.Port != 7777 {
		t.Errorf("daemon options not forwarded: %+v", dm)
	}
}

// TestLaunchStats runs the same MPMD job with stats and trace collection
// enabled and verifies that the per-rank dumps appear, that the aggregated
// totals reconcile (every message sent was received), and that the summary
// formats without error.
func TestLaunchStats(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	statsDir := filepath.Join(dir, "stats")
	traceDir := filepath.Join(dir, "trace")
	for _, d := range []string{statsDir, traceDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	t.Setenv("MPH_TEST_WORKER", "1")
	spec := selfSpec(t, 2, nil, mpirun.PlaceBlock)
	spec.Registration = writeRegistration(t)
	spec.Timeout = 60 * time.Second
	spec.ExtraEnv = []string{
		perf.EnvStatsDir + "=" + statsDir,
		perf.EnvTraceDir + "=" + traceDir,
	}
	if err := mpirun.Launch(context.Background(), spec); err != nil {
		t.Fatalf("launch: %v", err)
	}

	snaps, err := readStats(statsDir)
	if err != nil {
		t.Fatalf("readStats: %v", err)
	}
	if len(snaps) != 3 {
		t.Fatalf("got %d snapshots, want 3", len(snaps))
	}
	rows, totals := summarize(snaps)
	if totals.SentMsgs == 0 {
		t.Error("no messages counted: handshake traffic should be nonzero")
	}
	if totals.SentMsgs != totals.RecvMsgs {
		t.Errorf("totals do not reconcile: sent %d != recv %d", totals.SentMsgs, totals.RecvMsgs)
	}
	if totals.SentBytes != totals.RecvBytes {
		t.Errorf("byte totals do not reconcile: sent %d != recv %d", totals.SentBytes, totals.RecvBytes)
	}
	names := make(map[string]bool)
	for _, r := range rows {
		names[r.Name] = true
	}
	if !names["alpha"] || !names["beta"] {
		t.Errorf("summary rows %v missing component names alpha/beta", names)
	}
	var buf strings.Builder
	printStats(&buf, snaps)
	if !strings.Contains(buf.String(), "totals reconcile") {
		t.Errorf("summary output lacks reconciliation line:\n%s", buf.String())
	}

	traces, err := filepath.Glob(filepath.Join(traceDir, "trace.rank*.jsonl"))
	if err != nil || len(traces) != 3 {
		t.Fatalf("trace dumps: %v (err %v), want 3 files", traces, err)
	}
}

// readStats loads every per-rank snapshot dump (stats.rank*.json) from dir,
// sorted by world rank.
func readStats(dir string) ([]perf.Snapshot, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "stats.rank*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no stats.rank*.json files in %s", dir)
	}
	sort.Strings(paths)
	snaps := make([]perf.Snapshot, 0, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var s perf.Snapshot
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		snaps = append(snaps, s)
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].WorldRank < snaps[j].WorldRank })
	return snaps, nil
}
