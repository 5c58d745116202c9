// Command mphd is the persistent per-host MPH agent daemon — the
// process-manager half of the MPD-style launch path (Butler/Gropp/Lusk).
// One mphd runs on every compute host; mphrun with -backend daemon opens a
// single warm TCP connection per host and ships the host's whole rank block
// in one SpawnBlock request, so gang launch costs one round trip per host
// and no agent process creation at all.
//
// Usage:
//
//	mphd [-listen 0.0.0.0:7601]
//
// Each connection is one host-agent session — the same session the exec
// and ssh backends run over the stdio of a per-host "mphrun agent"
// process. The daemon forks the block's ranks as process-group children,
// streams their output and exit events back over the connection, and kills
// everything the connection spawned the moment it drops: a rank never
// outlives its launcher. Kill requests (the launcher's grace-expiry
// teardown) arrive over the same connection.
//
// mphd keeps no job state across connections — restarting it is always
// safe, and launchers retry their dial, so a supervisor respawn mid-fleet
// is invisible. Exit status: 0 on clean shutdown (SIGINT/SIGTERM), 1 on a
// listener error, 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"mph/internal/mpirun"
)

func main() {
	listen := flag.String("listen", fmt.Sprintf("0.0.0.0:%d", mpirun.DefaultDaemonPort),
		"TCP control address to listen on")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mphd: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	d, err := mpirun.NewDaemon(*listen)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphd: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "mphd: listening on %s\n", d.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(os.Stderr, "mphd: %v; shutting down\n", sig)
		d.Close()
	}()

	if err := d.Serve(); err != nil {
		fmt.Fprintf(os.Stderr, "mphd: %v\n", err)
		os.Exit(1)
	}
}
