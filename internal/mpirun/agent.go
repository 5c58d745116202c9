package mpirun

import (
	"bufio"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// The host-agent protocol is one line-JSON session per (launcher, host
// block) pair. The launcher sends sessionRequest lines; the agent streams
// sessionEvent lines back over the same carrier. Three carriers exist — a
// TCP connection to mphd, the stdio of a local `agent` child (exec
// backend), and the stdio of `ssh host <agent> agent` (ssh backend) — and
// both ends of the session are the same code on all three. One session
// carries at most one spawned block, and the block's ranks never outlive
// it: EOF on the agent's side (the launcher died, hung up, or the carrier
// went with it) kills every process group the session spawned.

// sessionRequest is one launcher→agent command line.
type sessionRequest struct {
	// Op is "ping" (liveness probe), "spawn" (start a block), or "kill".
	Op string `json:"op"`
	// Spawn carries the block for op "spawn".
	Spawn *SpawnBlock `json:"spawn,omitempty"`
	// Rank selects the rank for op "kill"; negative kills the whole block.
	Rank int `json:"rank,omitempty"`
}

// sessionEvent is one agent→launcher event line.
type sessionEvent struct {
	// Event is "pong", "spawned", "line", "exit", or "error".
	Event string `json:"event"`
	// Rank is the world rank the event concerns (spawned, line, exit).
	Rank int `json:"rank,omitempty"`
	// Pid is the started process id (spawned).
	Pid int `json:"pid,omitempty"`
	// Stream is "stdout" or "stderr" (line).
	Stream string `json:"stream,omitempty"`
	// Data is one output line without its line terminator (line). It is
	// bytes, not a string, so output that is not UTF-8 survives the JSON
	// encoding unchanged.
	Data []byte `json:"data,omitempty"`
	// Code is the exit status (exit); 127 means the agent could not start
	// the rank, >128 means it died to signal code-128.
	Code int `json:"code,omitempty"`
	// Msg carries diagnostics (exit with a start failure, error).
	Msg string `json:"msg,omitempty"`
}

// SpawnBlock is the wire form of one host-local rank block: the whole
// host's share of the job in a single request, so gang launch costs one
// round trip and one agent per host instead of one process creation per
// rank. Registration contents and environment travel inside the session,
// never on a command line.
type SpawnBlock struct {
	// Size is the world size.
	Size int `json:"size"`
	// Rendezvous is the launcher's advertised rendezvous address.
	Rendezvous string `json:"rendezvous"`
	// Regdata is the base64 registration-file contents ("" = none); the
	// agent materializes it once for the whole block.
	Regdata string `json:"regdata,omitempty"`
	// Host is the placement host label the ranks report as MPH_HOST.
	Host string `json:"host,omitempty"`
	// Bind is the listener bind host for every rank ("" = loopback).
	Bind string `json:"bind,omitempty"`
	// Env entries (KEY=VALUE) are appended to every rank's environment —
	// the launcher's MPH_* passthrough plus the job's ExtraEnv.
	Env []string `json:"env,omitempty"`
	// Ranks are the block's processes.
	Ranks []SpawnRank `json:"ranks"`
}

// SpawnRank is one process of a SpawnBlock.
type SpawnRank struct {
	// Rank is the world rank.
	Rank int `json:"rank"`
	// Argv is the command and its arguments.
	Argv []string `json:"argv"`
	// Env holds extra KEY=VALUE pairs for this rank only.
	Env []string `json:"env,omitempty"`
}

// ServeStdio serves one host-agent session over this process's stdin and
// stdout. It is the `agent` subcommand the exec and ssh backends start, one
// per host block, and returns once the launcher has hung up (stdin EOF) and
// every rank the session spawned has been killed and reaped.
func ServeStdio() { serveSession(os.Stdin, os.Stdout) }

// serveSession runs the agent side of one session: requests in from r,
// events out to w, and a guaranteed kill of everything the session spawned
// once r ends.
func serveSession(r io.Reader, w io.Writer) {
	job := &sessionJob{enc: json.NewEncoder(w)}
	defer job.teardown()
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return // EOF or torn carrier: teardown kills the block
		}
		var req sessionRequest
		if err := json.Unmarshal(line, &req); err != nil {
			job.send(sessionEvent{Event: "error", Msg: fmt.Sprintf("bad request: %v", err)})
			return
		}
		switch req.Op {
		case "ping":
			job.send(sessionEvent{Event: "pong"})
		case "spawn":
			if req.Spawn == nil {
				job.send(sessionEvent{Event: "error", Msg: "spawn request without a block"})
				return
			}
			if err := job.start(req.Spawn); err != nil {
				job.send(sessionEvent{Event: "error", Msg: err.Error()})
				return
			}
		case "kill":
			job.kill(req.Rank)
		default:
			job.send(sessionEvent{Event: "error", Msg: fmt.Sprintf("unknown op %q", req.Op)})
			return
		}
	}
}

// sessionChild is one rank's process under a session.
type sessionChild struct {
	cmd      *exec.Cmd
	killOnce sync.Once
}

// sessionJob is the agent's per-session spawn state: the block's children
// and the serialized event channel back to the launcher.
type sessionJob struct {
	sendMu sync.Mutex
	enc    *json.Encoder

	mu       sync.Mutex
	children map[int]*sessionChild
	spawned  bool
	cleanup  func()
	wg       sync.WaitGroup
}

// send writes one event line; encoder errors are ignored (a dead launcher
// is handled by the read loop's EOF).
func (j *sessionJob) send(ev sessionEvent) {
	j.sendMu.Lock()
	defer j.sendMu.Unlock()
	_ = j.enc.Encode(ev)
}

// start spawns every rank of the block as a process-group child and wires
// the event streams. At most one block per session.
func (j *sessionJob) start(block *SpawnBlock) error {
	j.mu.Lock()
	if j.spawned {
		j.mu.Unlock()
		return fmt.Errorf("session already spawned a block")
	}
	j.spawned = true
	j.children = make(map[int]*sessionChild, len(block.Ranks))
	j.mu.Unlock()

	registration := ""
	if block.Regdata != "" {
		path, cleanup, err := materializeRegistration(block.Regdata)
		if err != nil {
			return err
		}
		registration = path
		j.mu.Lock()
		j.cleanup = cleanup
		j.mu.Unlock()
	}
	for _, rk := range block.Ranks {
		j.startRank(block, rk, registration)
	}
	return nil
}

// startRank spawns one rank; a start failure becomes an exit event with
// code 127 instead of failing the whole block.
func (j *sessionJob) startRank(block *SpawnBlock, rk SpawnRank, registration string) {
	if len(rk.Argv) == 0 {
		j.send(sessionEvent{Event: "exit", Rank: rk.Rank, Code: 127, Msg: "no command"})
		return
	}
	env := Env{
		Rank:         rk.Rank,
		Size:         block.Size,
		Rendezvous:   block.Rendezvous,
		Registration: registration,
		Host:         block.Host,
		Bind:         block.Bind,
	}
	cmd := exec.Command(rk.Argv[0], rk.Argv[1:]...)
	cmd.Env = dedupEnv(append(append(append(os.Environ(),
		env.Environ()...), block.Env...), rk.Env...))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		j.send(sessionEvent{Event: "exit", Rank: rk.Rank, Code: 127, Msg: err.Error()})
		return
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		j.send(sessionEvent{Event: "exit", Rank: rk.Rank, Code: 127, Msg: err.Error()})
		return
	}
	setProcGroup(cmd)
	if err := cmd.Start(); err != nil {
		j.send(sessionEvent{Event: "exit", Rank: rk.Rank, Code: 127,
			Msg: fmt.Sprintf("start %q: %v", strings.Join(rk.Argv, " "), err)})
		return
	}
	c := &sessionChild{cmd: cmd}
	j.mu.Lock()
	j.children[rk.Rank] = c
	j.mu.Unlock()
	j.send(sessionEvent{Event: "spawned", Rank: rk.Rank, Pid: cmd.Process.Pid})

	var pipes sync.WaitGroup
	pipes.Add(2)
	go j.streamLines(rk.Rank, "stdout", stdout, &pipes)
	go j.streamLines(rk.Rank, "stderr", stderr, &pipes)
	j.wg.Add(1)
	go func() {
		defer j.wg.Done()
		// The pipes EOF when the process group's writers are gone; Wait must
		// not run (and close them) before the readers drain.
		pipes.Wait()
		err := cmd.Wait()
		j.send(sessionEvent{Event: "exit", Rank: rk.Rank, Code: exitStatus(err)})
	}()
}

// streamLines forwards one output pipe as "line" events, split exactly as
// the local relay splits it.
func (j *sessionJob) streamLines(rank int, stream string, r io.Reader, wg *sync.WaitGroup) {
	defer wg.Done()
	_ = scanLines(r, func(line []byte) {
		j.send(sessionEvent{Event: "line", Rank: rank, Stream: stream, Data: line})
	})
}

// kill terminates one rank's process group, or every rank's when rank is
// negative.
func (j *sessionJob) kill(rank int) {
	j.mu.Lock()
	var targets []*sessionChild
	if rank < 0 {
		for _, c := range j.children {
			targets = append(targets, c)
		}
	} else if c, ok := j.children[rank]; ok {
		targets = append(targets, c)
	}
	j.mu.Unlock()
	for _, c := range targets {
		c.killOnce.Do(func() { killTree(c.cmd) })
	}
}

// teardown kills the block, waits for every exit event to flush, and
// removes the materialized registration file.
func (j *sessionJob) teardown() {
	j.kill(-1)
	j.wg.Wait()
	j.mu.Lock()
	cleanup := j.cleanup
	j.mu.Unlock()
	if cleanup != nil {
		cleanup()
	}
}

// materializeRegistration writes shipped registration contents to a temp
// file, returning its path and a cleanup func.
func materializeRegistration(b64 string) (string, func(), error) {
	data, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return "", nil, fmt.Errorf("bad regdata: %w", err)
	}
	f, err := os.CreateTemp("", "mph-registration-*")
	if err != nil {
		return "", nil, err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return "", nil, err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return "", nil, err
	}
	return f.Name(), func() { os.Remove(f.Name()) }, nil
}

// startSession ships the host's block as one SpawnBlock request over conn
// and returns the handle supervising it. label names the far end in errors
// and tags its stray output ("daemon ADDR", "agent@HOST"); backstop, when
// set, kills the local process carrying the session.
func startSession(conn io.ReadWriteCloser, label, host string, block Block, backstop func()) (Handle, error) {
	wire := &SpawnBlock{
		Size:       block.Size,
		Rendezvous: block.Rendezvous,
		Regdata:    block.Regdata,
		Host:       host,
		Bind:       block.Bind,
		Env:        append(append([]string(nil), block.Passthrough...), block.ExtraEnv...),
	}
	h := &sessionHandle{
		conn:     conn,
		label:    label,
		host:     host,
		block:    block,
		backstop: backstop,
		enc:      json.NewEncoder(conn),
		exits:    make(chan RankExit, len(block.Procs)),
		done:     make(chan struct{}),
		procs:    make(map[int]Proc, len(block.Procs)),
		pending:  make(map[int]bool, len(block.Procs)),
	}
	for _, p := range block.Procs {
		wire.Ranks = append(wire.Ranks, SpawnRank{Rank: p.Rank, Argv: p.Argv, Env: p.Env})
		h.procs[p.Rank] = p
		h.pending[p.Rank] = true
	}
	if err := h.send(sessionRequest{Op: "spawn", Spawn: wire}); err != nil {
		if cerr := conn.Close(); cerr != nil {
			err = fmt.Errorf("%w (%v)", err, cerr)
		}
		return nil, fmt.Errorf("%s: send spawn: %w", label, err)
	}
	go h.read()
	return h, nil
}

// sessionHandle supervises one host block over its session without knowing
// what carries it.
type sessionHandle struct {
	conn     io.ReadWriteCloser
	label    string
	host     string
	block    Block
	backstop func()
	procs    map[int]Proc
	exits    chan RankExit
	done     chan struct{}

	sendMu sync.Mutex
	enc    *json.Encoder

	mu      sync.Mutex
	pending map[int]bool // ranks whose exit has not been delivered yet
}

// send writes one request line to the agent.
func (h *sessionHandle) send(req sessionRequest) error {
	h.sendMu.Lock()
	defer h.sendMu.Unlock()
	return h.enc.Encode(req)
}

// unreaped reports whether the rank (any rank, when rank < 0) still awaits
// its exit event.
func (h *sessionHandle) unreaped(rank int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	if rank < 0 {
		return len(h.pending) > 0
	}
	return h.pending[rank]
}

// reap takes the rank off the pending set, reporting whether it was on it.
func (h *sessionHandle) reap(rank int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	was := h.pending[rank]
	delete(h.pending, rank)
	return was
}

// read consumes the event stream, then closes the carrier, which reaps the
// agent process when there is one. A session that ends before every rank
// has exited fails each still-pending rank: an agent crash or a dropped
// carrier mid-job must surface as supervised rank failures, not a hang.
func (h *sessionHandle) read() {
	defer close(h.done)
	defer close(h.exits)
	err := h.events()
	var lost []int
	if err != nil {
		h.mu.Lock()
		for r := range h.pending {
			lost = append(lost, r)
		}
		clear(h.pending)
		h.mu.Unlock()
	}
	if cerr := h.conn.Close(); err != nil && cerr != nil {
		err = fmt.Errorf("%w (%v)", err, cerr)
	}
	for _, r := range lost {
		h.exits <- RankExit{Rank: r, Err: fmt.Errorf("%s: %w", h.label, err)}
	}
}

// events relays the session's output lines and forwards its exits until
// every rank has exited (nil), or returns why the session ended first.
func (h *sessionHandle) events() error {
	r := bufio.NewReader(h.conn)
	for h.unreaped(-1) {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("connection lost: %w", err)
		}
		var ev sessionEvent
		if json.Unmarshal(line, &ev) != nil || ev.Event == "" {
			// Not an event: a login banner from a remote rc file, or other
			// noise on the carrier. Relay it, attributed to the agent.
			fmt.Fprintf(h.block.stderr(), "[%s] %s\n", h.label, trimEOL(line))
			continue
		}
		switch ev.Event {
		case "line":
			w := h.block.stdout()
			if ev.Stream == "stderr" {
				w = h.block.stderr()
			}
			fmt.Fprintf(w, "%s%s\n", rankPrefix(h.procs[ev.Rank], h.host), ev.Data)
		case "exit":
			if h.reap(ev.Rank) {
				h.exits <- RankExit{Rank: ev.Rank, Err: errForExit(ev.Code, ev.Msg)}
			}
		case "error":
			return errors.New(ev.Msg)
		}
	}
	return nil
}

// errForExit converts an exit event into the error shape the supervisor's
// failure report expects (matching exec.ExitError's text).
func errForExit(code int, msg string) error {
	if msg != "" {
		return fmt.Errorf("%s (exit status %d)", msg, code)
	}
	if code == 0 {
		return nil
	}
	return fmt.Errorf("exit status %d", code)
}

// Exits implements Handle.
func (h *sessionHandle) Exits() <-chan RankExit { return h.exits }

// Kill implements Handle by sending the agent a kill request; rank < 0
// kills the whole block. Best effort: a dead session already failed every
// rank. When a local process carries the session and the targeted ranks
// are still unreaped after agentKillBackstop, that process tree is killed,
// which ends the session (and, for ssh, the remote agent's stdin).
func (h *sessionHandle) Kill(rank int) {
	_ = h.send(sessionRequest{Op: "kill", Rank: rank})
	if h.backstop == nil {
		return
	}
	time.AfterFunc(agentKillBackstop, func() {
		if h.unreaped(rank) {
			h.backstop()
		}
	})
}

// Wait implements Handle: output lines arrive on the same stream as exits,
// so the reader finishing means everything is relayed and the carrier is
// closed.
func (h *sessionHandle) Wait() { <-h.done }
