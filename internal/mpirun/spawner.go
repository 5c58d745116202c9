package mpirun

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
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
// context in its environment.
func (s *LocalSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	return spawnProcs(host, block, func(p Proc) (*exec.Cmd, bool, error) {
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
		return cmd, false, nil
	})
}

// ExecSpawner runs every rank through the agent command ("mphrun
// agent-exec") on the launcher's own host, treating host assignments as
// labels only. It exercises the full remote path — agent protocol, env
// forwarding, host topology, remote kill — without an ssh daemon, which is
// what CI runs.
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

// Spawn implements Spawner by running one local agent process per rank.
func (s *ExecSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	agent, err := resolveAgentPath(s.AgentPath)
	if err != nil {
		return nil, err
	}
	return spawnProcs(host, block, func(p Proc) (*exec.Cmd, bool, error) {
		return exec.Command(agent, agentArgs(host, block, p)...), true, nil
	})
}

// SSHSpawner runs each rank by executing the agent command on its assigned
// host via ssh. The agent binary must exist at the same path on every remote
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

// Spawn implements Spawner by running the agent command on each rank's host
// via ssh; unpinned ranks run through the local agent so supervision is
// uniform.
func (s *SSHSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	agent, err := resolveAgentPath(s.AgentPath)
	if err != nil {
		return nil, err
	}
	return spawnProcs(host, block, func(p Proc) (*exec.Cmd, bool, error) {
		if host == "" {
			return exec.Command(agent, agentArgs(host, block, p)...), true, nil
		}
		remote := shellJoin(append([]string{agent}, agentArgs(host, block, p)...))
		return exec.Command(s.ssh(), append(s.sshArgs(host), remote)...), true, nil
	})
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

// agentArgs builds the agent-exec argument list for one rank: the launch
// context as flags, the forwarded environment as repeated -env flags, and
// the rank's command after "--".
func agentArgs(host string, block Block, p Proc) []string {
	args := []string{
		"agent-exec",
		"-rank", strconv.Itoa(p.Rank),
		"-size", strconv.Itoa(block.Size),
		"-rendezvous", block.Rendezvous,
	}
	if host != "" {
		args = append(args, "-host", host)
	}
	if block.Bind != "" {
		args = append(args, "-bind", block.Bind)
	}
	if block.Regdata != "" {
		args = append(args, "-regdata", block.Regdata)
	}
	for _, kv := range block.Passthrough {
		args = append(args, "-env", kv)
	}
	for _, kv := range block.ExtraEnv {
		args = append(args, "-env", kv)
	}
	for _, kv := range p.Env {
		args = append(args, "-env", kv)
	}
	args = append(args, "--")
	return append(args, p.Argv...)
}

// procChild is one locally started process of a block: the rank itself, its
// agent, or its ssh client.
type procChild struct {
	cmd  *exec.Cmd
	rank int

	// agentIn is the agent's stdin (nil for direct spawns): writing "kill\n"
	// — or just closing it — makes the agent SIGKILL the rank's process
	// group wherever it runs.
	agentIn io.WriteCloser
	// done is closed once the child has been reaped; it cancels the kill
	// backstop.
	done chan struct{}
	// relays counts the child's two output relays still draining; the
	// reaper waits for them before cmd.Wait, which closes the pipes.
	relays sync.WaitGroup

	killOnce sync.Once
}

// kill terminates the rank's process group. Direct children are killed
// immediately; agent-backed children are asked through the agent's stdin
// (which kills the remote process group), with a local process-tree kill
// after agentKillBackstop in case the agent itself is gone or wedged.
func (c *procChild) kill() {
	c.killOnce.Do(func() {
		if c.agentIn == nil {
			killTree(c.cmd)
			return
		}
		// Best effort: a dead agent just means the write fails and the
		// backstop fires.
		_, _ = io.WriteString(c.agentIn, "kill\n")
		c.agentIn.Close()
		go func() {
			select {
			case <-c.done:
			case <-time.After(agentKillBackstop):
				killTree(c.cmd)
			}
		}()
	})
}

// procHandle supervises the per-process children of one block for the
// local, exec, and ssh spawners.
type procHandle struct {
	exits    chan RankExit
	children map[int]*procChild
	reapWG   sync.WaitGroup
}

// spawnProcs starts one OS process per rank of the block — assembled by
// command, which also reports whether the process is an agent with a stdin
// kill channel — wiring output relays and process-group isolation, and
// begins reaping. On any start error the already-started ranks are killed
// and nothing survives.
func spawnProcs(host string, block Block, command func(p Proc) (*exec.Cmd, bool, error)) (*procHandle, error) {
	h := &procHandle{
		exits:    make(chan RankExit, len(block.Procs)),
		children: make(map[int]*procChild, len(block.Procs)),
	}
	abort := func(err error) (*procHandle, error) {
		h.Kill(-1)
		return nil, err
	}
	for _, p := range block.Procs {
		cmd, isAgent, err := command(p)
		if err != nil {
			return abort(err)
		}
		c := &procChild{cmd: cmd, rank: p.Rank, done: make(chan struct{})}
		if isAgent {
			stdin, err := cmd.StdinPipe()
			if err != nil {
				return abort(err)
			}
			c.agentIn = stdin
		}
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
			err := c.cmd.Wait()
			close(c.done)
			h.exits <- RankExit{Rank: c.rank, Err: err}
		}(c)
	}
	go func() {
		h.reapWG.Wait()
		close(h.exits)
	}()
	return h, nil
}

// Exits implements Handle.
func (h *procHandle) Exits() <-chan RankExit { return h.exits }

// Kill implements Handle.
func (h *procHandle) Kill(rank int) {
	if rank < 0 {
		for _, c := range h.children {
			c.kill()
		}
		return
	}
	if c, ok := h.children[rank]; ok {
		c.kill()
	}
}

// Wait implements Handle.
func (h *procHandle) Wait() { h.reapWG.Wait() }
