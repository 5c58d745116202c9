// Command mphrun is the MPMD launcher for multi-executable MPH jobs — the
// stand-in for the vendor commands the paper enumerates ("poe -pgmmodel
// mpmd -cmdfile" on IBM SP, the analogous commands on Compaq AlphaSC and
// SGI Origin, §6). It reproduces their defining behaviour: all executables
// of the job share one world communicator with contiguous, non-overlapping
// rank blocks, and beyond that nothing — component handshaking is MPH's
// job, not the launcher's.
//
// Usage:
//
//	mphrun -cmdfile job.cmd [-registration processors_map.in] [-timeout 120s]
//	mphrun [flags] N cmd [args] : N cmd [args] ...
//
// The cmdfile lists one executable per line, IBM SP style, with an optional
// host pin between the count and the command:
//
//	# nprocs [host=NAME] command [args...]
//	3 ./atm -flag
//	2 host=node-b ./ocn
//	1 ./coupler
//
// mphrun assigns world ranks 0-2 to atm, 3-4 to ocn, 5 to coupler, starts a
// rendezvous, spawns every process with MPH_RANK / MPH_NPROCS /
// MPH_RENDEZVOUS / MPH_REGISTRATION set, prefixes each process's output
// with its rank, and exits non-zero if any process fails.
//
// # Multi-host jobs
//
// A hostfile (-hostfile, one "host [slots=N]" per line) or inline host list
// (-hosts node-a:2,node-b) places unpinned ranks across hosts under a
// -placement policy (block or cyclic); host= pins override the policy. Each
// host's ranks are spawned by one agent per host: "mphrun agent", run via
// ssh by default or locally with -backend exec (single-machine testing of
// the multi-host path), which takes the host's whole rank block as one
// spawn session on its stdin and streams output and exits back on its
// stdout — the same session a persistent mphd serves over TCP with
// -backend daemon. See OPERATIONS.md for the full story.
//
// When a rank exits abnormally mid-job, mphrun sends a launcher abort down
// the control session of every surviving rank on every host (their blocked
// MPI calls return mpi.ErrAborted), waits -grace for them to exit on their
// own, kills the remaining process groups — through the host agents for
// remote ranks — and reports the failures grouped per component executable.
// Exit status: 0 success, 1 job or launcher failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"mph/internal/mpi/perf"
	"mph/internal/mpirun"
)

// sshOpts collects repeated -sshopt flags.
type sshOpts []string

// String renders the collected options for flag diagnostics.
func (o *sshOpts) String() string { return strings.Join(*o, " ") }

// Set appends one ssh option.
func (o *sshOpts) Set(v string) error {
	*o = append(*o, v)
	return nil
}

func main() {
	// The agent subcommand bypasses the launcher flag set: its stdin and
	// stdout carry one host block's spawn session, and it must never
	// recurse into launching.
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		mpirun.ServeStdio()
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// spawnerOptions are the -backend flag and the flags that configure the
// backend it names.
type spawnerOptions struct {
	backend    string
	agentPath  string
	sshOptions []string
	daemonPort int
	daemonAddr string
}

// spawnerFor maps a -backend name to its Spawner: "" picks ssh when any rank
// is placed on a host, local otherwise.
func spawnerFor(o spawnerOptions, placed bool) (mpirun.Spawner, error) {
	name := o.backend
	if name == "" {
		name = "local"
		if placed {
			name = "ssh"
		}
	}
	switch name {
	case "local":
		return mpirun.NewLocalSpawner(), nil
	case "exec":
		return mpirun.NewExecSpawner(o.agentPath), nil
	case "ssh":
		return mpirun.NewSSHSpawner(o.agentPath, o.sshOptions), nil
	case "daemon":
		return mpirun.NewDaemonSpawner(o.daemonAddr, o.daemonPort), nil
	}
	return nil, fmt.Errorf("unknown backend %q (want local, exec, ssh, or daemon)", name)
}

// run is the launcher: it parses args, launches the job, prints the
// requested summaries, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mphrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cmdfile := fs.String("cmdfile", "", "MPMD command file")
	registration := fs.String("registration", "", "registration file forwarded to every process")
	timeout := fs.Duration("timeout", mpirun.DefaultTimeout, "rendezvous timeout")
	grace := fs.Duration("grace", mpirun.DefaultGrace, "after a rank fails, how long survivors get to exit before their process groups are killed")
	stats := fs.Bool("stats", false, "collect per-rank performance variables and print a per-component summary at job end")
	statsInterval := fs.Duration("stats-interval", 0, "how often each rank pushes a live telemetry report to the launcher (0 = final report only)")
	httpAddr := fs.String("http", "", "serve the live job view on this address while the job runs: Prometheus /metrics, JSON /status, /debug/pprof")
	traceDir := fs.String("trace", "", "directory for per-rank event traces (trace.rank*.jsonl, mergeable with mphtrace)")
	hostfile := fs.String("hostfile", "", "hostfile for multi-host placement (one \"host [slots=N]\" per line)")
	hostList := fs.String("hosts", "", "inline host list for multi-host placement (\"node-a:2,node-b\")")
	placement := fs.String("placement", "block", "placement policy for unpinned ranks: block or cyclic")
	bind := fs.String("bind", "", "host or IP the rendezvous and rank listeners bind (default: loopback, or all interfaces for ssh/daemon)")
	var so spawnerOptions
	fs.StringVar(&so.backend, "backend", "", "spawn backend: local, exec, ssh, or daemon (default: ssh when hosts are given, local otherwise)")
	fs.StringVar(&so.agentPath, "agent", "", "mphrun binary to run as the remote agent (default: this executable; must exist on every remote host)")
	fs.IntVar(&so.daemonPort, "daemon-port", mpirun.DefaultDaemonPort, "mphd control port on every host for the daemon backend")
	fs.StringVar(&so.daemonAddr, "daemon-addr", "", "send every rank block to this one mphd address regardless of host (single-machine testing of the daemon backend)")
	fs.Var((*sshOpts)(&so.sshOptions), "sshopt", "extra ssh option for the ssh backend (repeatable, e.g. -sshopt -i -sshopt key.pem)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mphrun: %v\n", err)
		return 1
	}

	var entries []mpirun.Entry
	var err error
	switch {
	case *cmdfile != "" && fs.NArg() > 0:
		err = fmt.Errorf("give either -cmdfile or a colon-separated command line, not both")
	case *cmdfile != "":
		entries, _, err = mpirun.ParseCmdfile(*cmdfile)
	case fs.NArg() > 0:
		entries, _, err = mpirun.ParseColonSpec(fs.Args())
	default:
		fmt.Fprintln(stderr, "mphrun: need -cmdfile FILE, or: mphrun [flags] N cmd [args] : N cmd [args] ...")
		fs.Usage()
		return 2
	}
	if err != nil {
		return fail(err)
	}

	var hosts []mpirun.HostSlot
	switch {
	case *hostfile != "" && *hostList != "":
		err = fmt.Errorf("give either -hostfile or -hosts, not both")
	case *hostfile != "":
		hosts, err = mpirun.ParseHostfile(*hostfile)
	case *hostList != "":
		hosts, err = mpirun.ParseHostList(*hostList)
	}
	if err != nil {
		return fail(err)
	}
	policy, err := mpirun.ParsePlacement(*placement)
	if err != nil {
		return fail(err)
	}
	placed := len(hosts) > 0
	for _, e := range entries {
		placed = placed || e.Host != ""
	}
	spawner, err := spawnerFor(so, placed)
	if err != nil {
		return fail(err)
	}

	spec, err := mpirun.NewLaunchSpec(entries, hosts, policy)
	if err != nil {
		return fail(err)
	}
	spec.Registration = *registration
	spec.Timeout = *timeout
	spec.Grace = *grace
	spec.Bind = *bind
	spec.Spawner = spawner

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return fail(err)
		}
		spec.ExtraEnv = append(spec.ExtraEnv, perf.EnvTraceDir+"="+*traceDir)
	}

	// Telemetry rides along whenever any observability output is requested:
	// -http and -stats-interval need it for live reports, -stats for the
	// final reports it prints, and -trace for the clock sync it performs
	// (clock offsets end up in the snapshots and trace metadata, which is
	// what lets mphtrace align per-host timelines).
	var tele *mpirun.Telemetry
	if *httpAddr != "" || *statsInterval > 0 || *stats || *traceDir != "" {
		tele = mpirun.NewTelemetry(len(spec.Procs), *statsInterval)
		spec.Telemetry = tele
	}
	if *httpAddr != "" {
		srv := &http.Server{Addr: *httpAddr, Handler: tele.Handler()}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			return fail(fmt.Errorf("-http: %w", err))
		}
		defer srv.Close()
		go srv.Serve(ln)
		fmt.Fprintf(stderr, "mphrun: live job view on http://%s/status (Prometheus /metrics, profiles /debug/pprof)\n", ln.Addr())
	}

	if err := mpirun.Launch(context.Background(), spec); err != nil {
		fmt.Fprintf(stderr, "mphrun: %v\n", err)
		// A failed job still has a story to tell: print whatever the
		// ranks reported before the crash.
		if *stats {
			if snaps := tele.Snapshots(); len(snaps) > 0 {
				fmt.Fprintf(stderr, "mphrun: post-mortem telemetry (%d of %d rank(s) reported):\n",
					len(snaps), len(spec.Procs))
				printStats(stderr, snaps)
			}
		}
		return 1
	}
	if *stats {
		// Launch drained every session to EOF, so each rank's final report
		// is in.
		snaps := tele.Snapshots()
		if len(snaps) == 0 {
			return fail(fmt.Errorf("stats: no rank reported"))
		}
		printStats(stdout, snaps)
		printStragglers(stdout, snaps)
	}
	if *traceDir != "" {
		fmt.Fprintf(stderr, "mphrun: event traces in %s (merge with: mphtrace -o trace.json %s)\n",
			*traceDir, *traceDir)
	}
	return 0
}
