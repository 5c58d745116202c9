package mpirun

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// RankExit is one reaped rank of a spawned block: its world rank and the
// error its process exited with (nil = clean exit).
type RankExit struct {
	// Rank is the world rank that exited.
	Rank int
	// Err is the exit error (nil = exit status 0).
	Err error
}

// Handle supervises the ranks of one spawned host block. Implementations
// must deliver exactly one RankExit per rank on Exits and close the channel
// once the last rank has been reaped (or declared lost — a daemon connection
// dying mid-job counts every unresolved rank as failed).
type Handle interface {
	// Exits delivers one RankExit per rank of the block, in reap order, and
	// is closed after the last one.
	Exits() <-chan RankExit
	// Kill terminates a rank's process group wherever it runs; rank < 0
	// kills every rank of the block. Idempotent and best-effort — a rank
	// that already exited is skipped.
	Kill(rank int)
	// Wait blocks until every rank has been reaped and its relayed output
	// drained.
	Wait()
}

// Block is the host-local slice of a launch handed to a Spawner: the ranks
// placed on one host plus the job-wide launch context they need. The same
// context travels to every host; only Procs and the host differ.
type Block struct {
	// Procs are the ranks placed on the host, in world order.
	Procs []Proc
	// Size is the world size.
	Size int
	// Rendezvous is the launcher's advertised rendezvous address.
	Rendezvous string
	// Registration is the launcher-local registration file path ("" = none);
	// only the local spawner can use it directly.
	Registration string
	// Regdata is the base64 registration-file contents shipped by value for
	// spawners that cross a host boundary.
	Regdata string
	// Bind is the listener bind host for every rank ("" = loopback).
	Bind string
	// ExtraEnv entries (KEY=VALUE) are appended to every rank's environment.
	ExtraEnv []string
	// Passthrough is the launcher's filtered MPH_* environment, forwarded so
	// tuning knobs and fault injections reach ranks on every host.
	Passthrough []string
	// Stdout and Stderr receive the ranks' relayed output (nil = the
	// launcher's own os.Stdout/os.Stderr).
	Stdout, Stderr io.Writer
}

// stdout returns the block's stdout relay destination.
func (b *Block) stdout() io.Writer {
	if b.Stdout != nil {
		return b.Stdout
	}
	return os.Stdout
}

// stderr returns the block's stderr relay destination.
func (b *Block) stderr() io.Writer {
	if b.Stderr != nil {
		return b.Stderr
	}
	return os.Stderr
}

// rankPrefix renders the output-relay prefix of one rank.
func rankPrefix(p Proc, host string) string {
	if host == "" {
		return fmt.Sprintf("[exe%d rank%d] ", p.Exe, p.Rank)
	}
	return fmt.Sprintf("[exe%d rank%d@%s] ", p.Exe, p.Rank, host)
}

// Spawner starts the host-local rank blocks of a launch. Each backend is a
// value resolved once from the CLI (or constructed directly by embedding
// callers), and the launcher calls Spawn per host without knowing how ranks
// come to life there.
type Spawner interface {
	// Name is the CLI spelling of the spawner ("local", "exec", "ssh",
	// "daemon"), used in launcher banners and error reports.
	Name() string
	// WantsRoutable reports whether ranks may run on other machines, in
	// which case the rendezvous and every rank's listener must bind routable
	// interfaces instead of loopback.
	WantsRoutable() bool
	// Spawn starts every rank of the block on the given placement host ("" =
	// the launcher's host) and returns the handle supervising them. On error
	// nothing of the block survives.
	Spawn(ctx context.Context, host string, block Block) (Handle, error)
}

// HostProber is implemented by spawners that can cheaply check a host is
// reachable and ready before the launcher commits to the full spawn. The
// launcher probes every placement host concurrently before phase 1 and fails
// fast with a per-host report instead of burning the rendezvous timeout.
type HostProber interface {
	// ProbeHost checks one placement host; a nil return means the host can
	// spawn ranks right now.
	ProbeHost(ctx context.Context, host string) error
}

// dedupEnv collapses duplicate KEY=VALUE entries, keeping each key's last
// value at its first position. The Go runtime (and libc getenv) honour the
// FIRST occurrence of a duplicated key, so a per-rank override appended
// after os.Environ() — GOMAXPROCS from the slot-share policy in particular —
// would silently lose to the inherited environment without this.
func dedupEnv(env []string) []string {
	out := make([]string, 0, len(env))
	idx := make(map[string]int, len(env))
	for _, kv := range env {
		key, _, ok := strings.Cut(kv, "=")
		if !ok {
			out = append(out, kv)
			continue
		}
		if i, seen := idx[key]; seen {
			out[i] = kv
			continue
		}
		idx[key] = len(out)
		out = append(out, kv)
	}
	return out
}

// LocalSpawner runs every rank directly on the launcher's host — the classic
// single-host mode. Host-placed ranks are rejected by LaunchSpec.Validate.
type LocalSpawner struct{}

// NewLocalSpawner returns the direct-spawn backend.
func NewLocalSpawner() *LocalSpawner { return &LocalSpawner{} }

// Name implements Spawner.
func (*LocalSpawner) Name() string { return "local" }

// WantsRoutable implements Spawner: everything stays on loopback.
func (*LocalSpawner) WantsRoutable() bool { return false }

// Spawn implements Spawner by exec'ing each rank's command with the launch
// context in its environment, wiring output relays and process-group
// isolation, and reaping each rank. On any start error the already-started
// ranks are killed and nothing survives.
func (s *LocalSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	h := &procHandle{
		exits:    make(chan RankExit, len(block.Procs)),
		children: make(map[int]*procChild, len(block.Procs)),
	}
	abort := func(err error) (Handle, error) {
		h.Kill(-1)
		return nil, err
	}
	for _, p := range block.Procs {
		cmd := exec.Command(p.Argv[0], p.Argv[1:]...)
		env := Env{
			Rank:         p.Rank,
			Size:         block.Size,
			Rendezvous:   block.Rendezvous,
			Registration: block.Registration,
			Host:         host,
			Bind:         block.Bind,
		}
		cmd.Env = dedupEnv(append(append(append(os.Environ(),
			env.Environ()...), block.ExtraEnv...), p.Env...))
		c := &procChild{cmd: cmd, rank: p.Rank}
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return abort(err)
		}
		stderr, err := cmd.StderrPipe()
		if err != nil {
			return abort(err)
		}
		setProcGroup(cmd)
		if err := cmd.Start(); err != nil {
			return abort(fmt.Errorf("start %q (rank %d): %w", strings.Join(p.Argv, " "), p.Rank, err))
		}
		prefix := rankPrefix(p, host)
		c.relays.Add(2)
		go relay(block.stdout(), stdout, prefix, &c.relays)
		go relay(block.stderr(), stderr, prefix, &c.relays)
		h.children[p.Rank] = c
	}
	// Reap each child on its own goroutine so a process that dies before the
	// rendezvous completes surfaces immediately instead of leaving the
	// launcher waiting out the timeout. The relays drain to EOF first:
	// cmd.Wait closes the pipes, and would drop the child's last lines.
	for _, c := range h.children {
		h.reapWG.Add(1)
		go func(c *procChild) {
			defer h.reapWG.Done()
			c.relays.Wait()
			h.exits <- RankExit{Rank: c.rank, Err: c.cmd.Wait()}
		}(c)
	}
	go func() {
		h.reapWG.Wait()
		close(h.exits)
	}()
	return h, nil
}

// procChild is one rank started directly by the local spawner.
type procChild struct {
	cmd  *exec.Cmd
	rank int
	// relays counts the child's two output relays still draining; the
	// reaper waits for them before cmd.Wait, which closes the pipes.
	relays sync.WaitGroup
}

// procHandle supervises the directly started ranks of one block.
type procHandle struct {
	exits    chan RankExit
	children map[int]*procChild
	reapWG   sync.WaitGroup
}

// Exits implements Handle.
func (h *procHandle) Exits() <-chan RankExit { return h.exits }

// Kill implements Handle by killing the rank's process group.
func (h *procHandle) Kill(rank int) {
	if rank < 0 {
		for _, c := range h.children {
			killTree(c.cmd)
		}
		return
	}
	if c, ok := h.children[rank]; ok {
		killTree(c.cmd)
	}
}

// Wait implements Handle.
func (h *procHandle) Wait() { h.reapWG.Wait() }

// ExecSpawner runs each host block through one agent process ("mphrun
// agent") on the launcher's own host, treating host assignments as labels
// only. It exercises the full remote path — the host-agent session, env
// and registration shipping, host topology, remote kill — without an ssh
// daemon, which is what CI runs.
type ExecSpawner struct {
	// AgentPath is the agent binary ("" = this executable).
	AgentPath string
}

// NewExecSpawner returns the local-agent backend.
func NewExecSpawner(agentPath string) *ExecSpawner {
	return &ExecSpawner{AgentPath: agentPath}
}

// Name implements Spawner.
func (*ExecSpawner) Name() string { return "exec" }

// WantsRoutable implements Spawner: every process shares the launcher's
// loopback.
func (*ExecSpawner) WantsRoutable() bool { return false }

// Spawn implements Spawner by running one local agent for the block.
func (s *ExecSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	agent, err := resolveAgentPath(s.AgentPath)
	if err != nil {
		return nil, err
	}
	return spawnAgent(exec.Command(agent, "agent"), host, block)
}

// SSHSpawner runs each host block through one agent started on the host
// via ssh. The agent binary must exist at the same path on every remote
// host.
type SSHSpawner struct {
	// AgentPath is the agent binary ("" = this executable's path, assumed
	// shared with the remote hosts).
	AgentPath string
	// Options are extra ssh arguments inserted before the host (after the
	// built-in BatchMode options).
	Options []string
	// Command is the ssh client binary ("" = "ssh"). Tests substitute a stub
	// that runs the remote command locally.
	Command string
}

// NewSSHSpawner returns the ssh backend.
func NewSSHSpawner(agentPath string, options []string) *SSHSpawner {
	return &SSHSpawner{AgentPath: agentPath, Options: options}
}

// Name implements Spawner.
func (*SSHSpawner) Name() string { return "ssh" }

// WantsRoutable implements Spawner: remote ranks must be able to dial back,
// so loopback listeners would strand them.
func (*SSHSpawner) WantsRoutable() bool { return true }

// ssh returns the ssh client binary to run.
func (s *SSHSpawner) ssh() string {
	if s.Command != "" {
		return s.Command
	}
	return "ssh"
}

// sshArgs builds the argument prefix shared by spawn and probe commands:
// batch-mode options, the caller's extra options, then the host.
func (s *SSHSpawner) sshArgs(host string) []string {
	args := []string{"-o", "BatchMode=yes", "-o", "StrictHostKeyChecking=accept-new"}
	args = append(args, s.Options...)
	return append(args, host)
}

// Spawn implements Spawner by running the agent on the block's host via
// ssh; unpinned ranks run through a local agent so supervision is uniform.
func (s *SSHSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	agent, err := resolveAgentPath(s.AgentPath)
	if err != nil {
		return nil, err
	}
	return spawnAgent(s.agentCommand(agent, host), host, block)
}

// agentCommand returns the command that starts the agent for host's block:
// `ssh [options] host '<agent>' 'agent'`, or the agent itself for the
// launcher's own host.
func (s *SSHSpawner) agentCommand(agent, host string) *exec.Cmd {
	if host == "" {
		return exec.Command(agent, "agent")
	}
	return exec.Command(s.ssh(), append(s.sshArgs(host), shellJoin([]string{agent, "agent"}))...)
}

// sshProbeTimeout bounds one host's pre-launch `ssh host true` check.
const sshProbeTimeout = 10 * time.Second

// ProbeHost implements HostProber with `ssh -o BatchMode=yes HOST true`: it
// proves name resolution, reachability, and non-interactive authentication
// in one round trip, which is everything a spawn needs.
func (s *SSHSpawner) ProbeHost(ctx context.Context, host string) error {
	if host == "" {
		return nil // unpinned ranks run on the launcher's own host
	}
	ctx, cancel := context.WithTimeout(ctx, sshProbeTimeout)
	defer cancel()
	out, err := exec.CommandContext(ctx, s.ssh(), append(s.sshArgs(host), "true")...).CombinedOutput()
	if err != nil {
		msg := strings.TrimSpace(string(out))
		if msg != "" {
			return fmt.Errorf("%w (%s)", err, msg)
		}
		return err
	}
	return nil
}

// resolveAgentPath defaults the agent binary to this executable.
func resolveAgentPath(path string) (string, error) {
	if path != "" {
		return path, nil
	}
	self, err := os.Executable()
	if err != nil {
		return "", fmt.Errorf("mpirun: resolve agent path: %w", err)
	}
	return self, nil
}

// spawnAgent starts cmd — the agent, or the ssh client that runs it on
// host — and supervises the host's block over a session on its stdio. The
// process's own stderr (ssh diagnostics, agent failures) is relayed tagged
// with the host.
func spawnAgent(cmd *exec.Cmd, host string, block Block) (Handle, error) {
	label := "agent" + hostTag(host)
	a := &agentConn{cmd: cmd}
	var err error
	if a.WriteCloser, err = cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if a.Reader, err = cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("%s: start %q: %w", label, strings.Join(cmd.Args, " "), err)
	}
	a.relays.Add(1)
	go relay(block.stderr(), stderr, "["+label+"] ", &a.relays)
	return startSession(a, label, host, block, func() { killTree(cmd) })
}

// agentConn carries a session over an agent process's stdout (Reader) and
// stdin (WriteCloser); the process may be the ssh client running one.
type agentConn struct {
	io.Reader
	io.WriteCloser
	cmd *exec.Cmd
	// relays is the process's stderr relay, drained before cmd.Wait closes
	// the pipe.
	relays sync.WaitGroup
}

// Close hangs up — stdin EOF makes the agent tear its block down and exit —
// and reaps the process, killing its tree if it has not exited within
// agentKillBackstop. It returns the process's exit error.
func (a *agentConn) Close() error {
	a.WriteCloser.Close()
	t := time.AfterFunc(agentKillBackstop, func() { killTree(a.cmd) })
	defer t.Stop()
	a.relays.Wait()
	return a.cmd.Wait()
}
