package mpirun

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"
)

// DefaultDaemonPort is the TCP control port mphd listens on when none is
// configured.
const DefaultDaemonPort = 7601

// daemonDialTimeout is the default budget for reaching a host's daemon,
// including reconnect retries against a daemon that is restarting.
const daemonDialTimeout = 5 * time.Second

// Daemon is the mphd server: a long-lived per-host agent that serves the
// host-agent session over warm TCP connections, one session per launcher
// connection, so a launch pays no agent process creation at all.
type Daemon struct {
	ln net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

// NewDaemon starts a daemon listener on the given TCP address (e.g.
// "0.0.0.0:7601", or ":0" for an ephemeral test port). Call Serve to accept
// launchers.
func NewDaemon(listen string) (*Daemon, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("mphd: listen %s: %w", listen, err)
	}
	return &Daemon{ln: ln, conns: make(map[net.Conn]bool)}, nil
}

// Addr returns the daemon's bound control address.
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Serve accepts launcher connections until Close. Each connection is
// handled concurrently and independently; Serve returns nil after Close,
// or the accept error otherwise.
func (d *Daemon) Serve() error {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			conn.Close()
			return nil
		}
		d.conns[conn] = true
		d.wg.Add(1)
		d.mu.Unlock()
		go func() {
			defer d.wg.Done()
			d.handle(conn)
		}()
	}
}

// Close stops accepting, tears down every live connection (killing the
// blocks they spawned — ranks never outlive their control connection), and
// waits for the handlers to finish.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	err := d.ln.Close()
	for conn := range d.conns {
		conn.Close()
	}
	d.mu.Unlock()
	d.wg.Wait()
	return err
}

// handle serves one launcher connection as a host-agent session, then
// forgets it.
func (d *Daemon) handle(conn net.Conn) {
	defer func() {
		d.mu.Lock()
		delete(d.conns, conn)
		d.mu.Unlock()
		conn.Close()
	}()
	serveSession(conn, conn)
}

// DaemonSpawner launches rank blocks through mphd daemons already running
// on the placement hosts: one warm TCP connection and one SpawnBlock
// request per host, with no agent process to start.
type DaemonSpawner struct {
	// Addr, when set, sends every block to this one daemon address
	// regardless of host label — single-machine testing of the daemon path,
	// the daemon analogue of the exec backend.
	Addr string
	// Port is the mphd control port on every host (0 = DefaultDaemonPort).
	Port int
	// DialTimeout bounds connecting to a host's daemon, including reconnect
	// retries against a daemon that is restarting (0 = 5s).
	DialTimeout time.Duration
}

// NewDaemonSpawner returns the daemon backend. addr pins every block to one
// daemon address ("" = per-host, reaching host:port); port 0 selects
// DefaultDaemonPort.
func NewDaemonSpawner(addr string, port int) *DaemonSpawner {
	return &DaemonSpawner{Addr: addr, Port: port}
}

// Name implements Spawner.
func (*DaemonSpawner) Name() string { return "daemon" }

// WantsRoutable implements Spawner: per-host daemons mean ranks on other
// machines, unless a single daemon address pins everything to one machine.
func (s *DaemonSpawner) WantsRoutable() bool { return s.Addr == "" }

// hostAddr resolves the daemon control address for a placement host.
func (s *DaemonSpawner) hostAddr(host string) string {
	if s.Addr != "" {
		return s.Addr
	}
	port := s.Port
	if port == 0 {
		port = DefaultDaemonPort
	}
	if host == "" {
		host = "127.0.0.1"
	}
	return net.JoinHostPort(host, strconv.Itoa(port))
}

// dialTimeout returns the configured or default dial budget.
func (s *DaemonSpawner) dialTimeout() time.Duration {
	if s.DialTimeout > 0 {
		return s.DialTimeout
	}
	return daemonDialTimeout
}

// dial connects to a host's daemon, retrying refused or dropped dials until
// the budget expires so a daemon mid-restart (stale socket, supervisor
// respawn) is reconnected to instead of failed on.
func (s *DaemonSpawner) dial(ctx context.Context, host string) (net.Conn, error) {
	addr := s.hostAddr(host)
	deadline := time.Now().Add(s.dialTimeout())
	var lastErr error
	for {
		d := net.Dialer{Deadline: deadline}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil || !time.Now().Before(deadline) {
			return nil, fmt.Errorf("daemon %s: %w", addr, lastErr)
		}
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("daemon %s: %w", addr, ctx.Err())
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// ProbeHost implements HostProber with a ping/pong round trip: it proves
// the daemon is up and answering, which is everything a spawn needs.
func (s *DaemonSpawner) ProbeHost(ctx context.Context, host string) error {
	conn, err := s.dial(ctx, host)
	if err != nil {
		return err
	}
	defer conn.Close()
	if deadline, ok := ctx.Deadline(); ok {
		conn.SetDeadline(deadline)
	}
	if err := json.NewEncoder(conn).Encode(sessionRequest{Op: "ping"}); err != nil {
		return fmt.Errorf("daemon %s: %w", s.hostAddr(host), err)
	}
	var ev sessionEvent
	if err := json.NewDecoder(conn).Decode(&ev); err != nil {
		return fmt.Errorf("daemon %s: %w", s.hostAddr(host), err)
	}
	if ev.Event != "pong" {
		return fmt.Errorf("daemon %s: unexpected %q reply to ping", s.hostAddr(host), ev.Event)
	}
	return nil
}

// Spawn implements Spawner by shipping the whole block in one SpawnBlock
// request and supervising it over the streamed event channel.
func (s *DaemonSpawner) Spawn(ctx context.Context, host string, block Block) (Handle, error) {
	conn, err := s.dial(ctx, host)
	if err != nil {
		return nil, err
	}
	return startSession(conn, "daemon "+s.hostAddr(host), host, block, nil)
}
