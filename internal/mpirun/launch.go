package mpirun

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"
)

// Launch defaults, applied when the corresponding LaunchSpec field is zero.
const (
	// DefaultTimeout bounds the rendezvous exchange.
	DefaultTimeout = 120 * time.Second
	// DefaultGrace is how long survivors of a failed rank get to exit
	// after the abort broadcast before their process groups are killed.
	DefaultGrace = 5 * time.Second
)

// procResult is one reaped child: its world rank and exit error.
type procResult struct {
	rank int
	err  error
}

// Launch runs a placed MPMD job to completion: it probes the placement
// hosts, starts the rendezvous, spawns every host's rank block through the
// spec's Spawner, supervises the job, and returns nil only if every rank
// exited cleanly.
//
// Failure semantics span hosts: a rank that exits before the world is wired
// cancels the rendezvous and fails the job immediately; after wiring, the
// first abnormal exit triggers an abort over every surviving rank's control
// session (their blocked MPI calls return mpi.ErrAborted), and once
// spec.Grace expires the remaining process groups are killed — through the
// remote agent or daemon for ranks on other hosts. Canceling ctx aborts and
// kills the job the same way and returns ctx.Err(). The sessions are closed
// only once every rank is reaped and its session has reached EOF, so every
// final telemetry report is in spec.Telemetry when Launch returns.
func Launch(ctx context.Context, spec *LaunchSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	sp := spec.Spawner
	if sp == nil {
		sp = NewLocalSpawner()
	}
	timeout := spec.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	grace := spec.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}

	// Pre-launch health checks: probe every placement host concurrently and
	// fail fast with a per-host report, instead of spawning into dead hosts
	// and burning the rendezvous timeout to find out.
	if prober, ok := sp.(HostProber); ok {
		if err := probeHosts(ctx, prober, spec.Hosts()); err != nil {
			return err
		}
	}

	total := len(spec.Procs)
	rvBind := spec.Bind
	if rvBind == "" && sp.WantsRoutable() {
		// Remote ranks must be able to dial back; loopback would strand them.
		rvBind = "0.0.0.0"
	}
	rv, err := NewRendezvousBind(rvBind, total)
	if err != nil {
		return err
	}
	defer rv.Close()
	rv.SetTelemetry(spec.Telemetry)
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(timeout) }()

	blocks, err := hostBlocks(spec, sp, rv.Advertised(), rvBind)
	if err != nil {
		rv.Close()
		<-serveErr
		return err
	}

	if !spec.Quiet {
		fmt.Fprintf(os.Stderr, "mphrun: world of %d ranks across %d executable(s) on %d host(s) [%s backend]; rendezvous %s\n",
			total, countExes(spec), len(spec.Hosts()), sp.Name(), rv.Advertised())
	}

	var handles []Handle
	rankHandle := make(map[int]Handle, total)
	killAll := func() {
		for _, h := range handles {
			h.Kill(-1)
		}
	}
	results := make(chan procResult, total)
	for _, hb := range blocks {
		h, err := sp.Spawn(ctx, hb.host, hb.block)
		if err != nil {
			rv.Close()
			killAll()
			for _, h := range handles {
				h.Wait()
			}
			<-serveErr
			return fmt.Errorf("spawn on host %q: %w", hb.host, err)
		}
		handles = append(handles, h)
		for _, p := range hb.block.Procs {
			rankHandle[p.Rank] = h
		}
		go func(h Handle) {
			for e := range h.Exits() {
				results <- procResult{rank: e.Rank, err: e.Err}
			}
		}(h)
	}

	// Exit bookkeeping; everything below runs on this goroutine only.
	exitErr := make([]error, total)
	exited := make([]bool, total)
	reaped := 0
	primary := -1 // first abnormally-exiting rank
	record := func(r procResult) {
		reaped++
		exited[r.rank] = true
		exitErr[r.rank] = r.err
		if r.err != nil && primary < 0 {
			primary = r.rank
		}
	}
	drainRest := func() {
		for reaped < total {
			record(<-results)
		}
		for _, h := range handles {
			h.Wait()
		}
	}

	// Phase 1: wait for the world to wire up, watching for children that
	// die first and for ctx cancellation.
	wired := false
	for !wired {
		select {
		case <-ctx.Done():
			rv.Close()
			<-serveErr
			killAll()
			drainRest()
			return ctx.Err()
		case err := <-serveErr:
			if err != nil {
				killAll()
				drainRest()
				return fmt.Errorf("rendezvous: %w", err)
			}
			wired = true
		case r := <-results:
			// A fast job can finish a rank between the rendezvous reply
			// and Serve's return; check for that before declaring the
			// exit premature.
			select {
			case err := <-serveErr:
				if err != nil {
					record(r)
					killAll()
					drainRest()
					return fmt.Errorf("rendezvous: %w", err)
				}
				wired = true
				record(r)
			default:
				// A rank exited before the world was wired — whatever its
				// status, the job cannot proceed. Cancel the rendezvous so
				// Serve returns now rather than waiting out the full
				// timeout with the launcher blocked behind it.
				record(r)
				rv.cancel()
				if err := <-serveErr; err == nil {
					// Serve completed in the closing window after all; the
					// world is wired, supervise normally.
					wired = true
					break
				}
				killAll()
				drainRest()
				if r.err != nil {
					return fmt.Errorf("rank %d exited before rendezvous completed: %w", r.rank, r.err)
				}
				return fmt.Errorf("rank %d exited before rendezvous completed", r.rank)
			}
		}
	}

	// Phase 2: supervise the running job. On the first abnormal exit,
	// send a launcher abort down every session so every survivor's blocked
	// MPI calls — on every host — fail with mpi.ErrAborted, then give them
	// grace to exit on their own before killing the remaining process
	// groups (through the agents or daemons for remote ranks).
	aborted := false
	var graceCh <-chan time.Time
	maybeAbort := func() {
		if primary < 0 || aborted {
			return
		}
		aborted = true
		survivors := 0
		for rank := range spec.Procs {
			if !exited[rank] {
				survivors++
			}
		}
		if survivors == 0 {
			return
		}
		fmt.Fprintf(os.Stderr, "mphrun: rank %d%s failed; aborting %d surviving rank(s) (grace %v)\n",
			primary, hostTag(spec.Procs[primary].Host), survivors, grace)
		rv.Abort(1)
		graceCh = time.After(grace)
	}
	maybeAbort()
	canceled := false
	for reaped < total {
		select {
		case <-ctx.Done():
			if !canceled {
				canceled = true
				rv.Abort(1)
				killAll()
			}
			record(<-results)
		case r := <-results:
			record(r)
			maybeAbort()
		case <-graceCh:
			graceCh = nil
			fmt.Fprintln(os.Stderr, "mphrun: grace period expired; killing surviving process groups")
			for rank := range spec.Procs {
				if !exited[rank] {
					rankHandle[rank].Kill(rank)
				}
			}
		}
	}
	for _, h := range handles {
		h.Wait()
	}
	rv.drain(ctlIOTimeout)
	if canceled {
		return ctx.Err()
	}
	return failureReport(spec, exitErr, primary)
}

// hostBlock pairs a placement host with its assembled Block.
type hostBlock struct {
	host  string
	block Block
}

// hostBlocks groups the spec's ranks into per-host blocks in first-use host
// order and fills in the job-wide launch context each spawner needs. The
// registration file is shipped both ways — as the launcher-local path (for
// the direct spawner) and as base64 contents (for spawners that cross a
// host boundary).
func hostBlocks(spec *LaunchSpec, sp Spawner, rvAddr, bind string) ([]hostBlock, error) {
	regdata := ""
	if spec.Registration != "" {
		if _, isLocal := sp.(*LocalSpawner); !isLocal {
			data, err := os.ReadFile(spec.Registration)
			if err != nil {
				return nil, fmt.Errorf("mpirun: read registration: %w", err)
			}
			regdata = base64.StdEncoding.EncodeToString(data)
		}
	}
	base := Block{
		Size:         len(spec.Procs),
		Rendezvous:   rvAddr,
		Registration: spec.Registration,
		Regdata:      regdata,
		Bind:         bind,
		ExtraEnv:     spec.ExtraEnv,
		Passthrough:  passthroughEnv(os.Environ()),
	}
	var blocks []hostBlock
	index := make(map[string]int)
	for _, p := range spec.Procs {
		i, ok := index[p.Host]
		if !ok {
			i = len(blocks)
			index[p.Host] = i
			b := base
			blocks = append(blocks, hostBlock{host: p.Host, block: b})
		}
		blocks[i].block.Procs = append(blocks[i].block.Procs, p)
	}
	return blocks, nil
}

// probeTimeout bounds the whole pre-launch host health check.
const probeTimeout = 15 * time.Second

// probeHosts checks every placement host concurrently through the
// spawner's prober and returns a per-host failure report if any are
// unreachable.
func probeHosts(ctx context.Context, p HostProber, hosts []string) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	errs := make([]error, len(hosts))
	var wg sync.WaitGroup
	for i, host := range hosts {
		wg.Add(1)
		go func(i int, host string) {
			defer wg.Done()
			errs[i] = p.ProbeHost(ctx, host)
		}(i, host)
	}
	wg.Wait()
	var bad []string
	for i, err := range errs {
		if err != nil {
			name := hosts[i]
			if name == "" {
				name = "(launcher host)"
			}
			bad = append(bad, fmt.Sprintf("  %s: %v", name, err))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("mpirun: host check failed for %d of %d host(s):\n%s",
		len(bad), len(hosts), strings.Join(bad, "\n"))
}

// countExes returns the number of distinct spec entries among the procs.
func countExes(spec *LaunchSpec) int {
	max := -1
	for _, p := range spec.Procs {
		if p.Exe > max {
			max = p.Exe
		}
	}
	return max + 1
}

// hostTag renders "@host" for remote ranks, "" for local ones.
func hostTag(host string) string {
	if host == "" {
		return ""
	}
	return "@" + host
}

// failureReport summarises abnormal exits grouped per component executable,
// or returns nil when every rank exited cleanly. primary is the first rank
// whose failure was observed (-1 if none); the others typically failed as
// collateral — aborted by the launcher or killed after the grace period.
func failureReport(spec *LaunchSpec, exitErr []error, primary int) error {
	failed := 0
	for _, err := range exitErr {
		if err != nil {
			failed++
		}
	}
	if failed == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "job failed: %d of %d rank(s) exited abnormally", failed, len(spec.Procs))
	for ei := 0; ei < countExes(spec); ei++ {
		var bad []string
		ranks := 0
		var argv []string
		for _, p := range spec.Procs {
			if p.Exe != ei {
				continue
			}
			ranks++
			if argv == nil {
				argv = p.Argv
			}
			if exitErr[p.Rank] == nil {
				continue
			}
			s := fmt.Sprintf("rank %d%s: %v", p.Rank, hostTag(p.Host), exitErr[p.Rank])
			if p.Rank == primary {
				s += " (first failure)"
			}
			bad = append(bad, s)
		}
		status := "ok"
		if len(bad) > 0 {
			status = strings.Join(bad, "; ")
		}
		fmt.Fprintf(&b, "\n  exe%d [%s] (%d rank(s)): %s", ei, strings.Join(argv, " "), ranks, status)
	}
	return errors.New(b.String())
}

// relayBufSize is the relay's line buffer: lines up to this length are
// emitted intact; longer ones degrade to prefixed chunks of this size.
const relayBufSize = 1 << 20

// relay copies a child stream line by line with a rank prefix. Read errors
// other than EOF are reported to the launcher's stderr so a dying pipe is
// visible instead of looking like a quiet child.
func relay(dst io.Writer, src io.Reader, prefix string, wg *sync.WaitGroup) {
	defer wg.Done()
	err := scanLines(src, func(line []byte) { fmt.Fprintf(dst, "%s%s\n", prefix, line) })
	if err != nil {
		fmt.Fprintf(os.Stderr, "mphrun: output relay for %sstream failed: %v\n", prefix, err)
	}
}

// scanLines calls emit with each line of src, without its "\n" or "\r\n"
// terminator, until EOF (nil) or a read error. A line longer than
// relayBufSize is degraded to chunks of that size rather than truncating
// the stream: a Scanner stops at its first ErrTooLong and silently discards
// everything the child prints afterwards — including the panic traces and
// oversized log records that most need relaying. The slice passed to emit
// is only valid during the call.
func scanLines(src io.Reader, emit func(line []byte)) error {
	br := bufio.NewReaderSize(src, relayBufSize)
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 {
			if line[len(line)-1] == '\n' {
				line = trimEOL(line)
			}
			emit(line)
		}
		switch {
		case err == nil:
		case errors.Is(err, bufio.ErrBufferFull):
			// Oversized line: the full buffer was just emitted as one
			// chunk; keep draining the rest of the same line.
		case errors.Is(err, io.EOF):
			return nil
		default:
			return err
		}
	}
}

// trimEOL strips one trailing "\n", then one trailing "\r".
func trimEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}
