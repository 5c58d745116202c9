package mpirun

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mph/internal/mpi/perf"
)

// ErrRendezvousClosed is returned by Serve when the exchange was canceled
// with Close before every rank registered — the launcher's way of tearing
// the rendezvous down promptly once a child has already failed.
var ErrRendezvousClosed = errors.New("mpirun: rendezvous closed")

// AbortOriginLauncher is the origin rank of an abort the launcher itself
// raises, and of the abort a rank applies when its session to the launcher
// drops; real ranks abort with their own world rank.
const AbortOriginLauncher = -1

// DefaultClockSyncRounds is how many ping-pong round trips the clock-sync
// handshake performs per rank. The estimate keeps the minimum-RTT round, so
// a handful of rounds suffices to dodge scheduling noise.
const DefaultClockSyncRounds = 8

// ctlIOTimeout bounds every write on a control session, and how long Launch
// waits for the sessions of reaped ranks to reach EOF. A wedged launcher must
// never stall a rank, and a wedged rank must never stall the launcher.
const ctlIOTimeout = 5 * time.Second

// ctlMsg is one line of the rank↔launcher session protocol: line-delimited
// JSON over the TCP connection a rank registers on, open for the whole job.
// The snapshot stays raw JSON inside it, so only a rank that reports, and a
// launcher that aggregates, pays to encode or decode the perf.Snapshot type.
//
//	rank:     {"kind":"register","rank":R,"addr":"ip:port","host":"H","pid":P}
//	launcher: {"kind":"book","book":[{"addr":..,"host":..},...],"sync":S,"interval":ns}
//	rank:     {"kind":"ping","seq":i,"t0":<rank ns>}       (×K rounds, when sync)
//	launcher: {"kind":"pong","seq":i,"ts":<launcher ns>}
//	rank:     {"kind":"report","seq":n,"final":F,"snap":{Snapshot}}
//	either:   {"kind":"abort","code":C,"origin":O}
//
// The book answers every registration once the whole world has registered.
// sync asks the rank to run the clock-sync rounds and send a final report at
// shutdown or abort; a nonzero interval also asks for periodic reports. A
// rank's abort is relayed to every other session. The connection's EOF is
// each side's lease on the other: the launcher sees a rank gone, and a rank
// that did not hang up itself sees the launcher gone.
type ctlMsg struct {
	Kind     string          `json:"kind"`
	Rank     int             `json:"rank,omitempty"`
	Addr     string          `json:"addr,omitempty"`
	Host     string          `json:"host,omitempty"`
	PID      int             `json:"pid,omitempty"`
	Book     []Endpoint      `json:"book,omitempty"`
	Sync     bool            `json:"sync,omitempty"`
	Interval time.Duration   `json:"interval,omitempty"`
	Seq      uint64          `json:"seq,omitempty"`
	T0       int64           `json:"t0,omitempty"`
	TS       int64           `json:"ts,omitempty"`
	Final    bool            `json:"final,omitempty"`
	Snap     json.RawMessage `json:"snap,omitempty"`
	Code     int             `json:"code,omitempty"`
	Origin   int             `json:"origin,omitempty"`
}

// writeMsg sends one message with a write deadline. Callers serialize
// writes per connection.
func writeMsg(conn net.Conn, m *ctlMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(ctlIOTimeout))
	_, err = conn.Write(append(b, '\n'))
	return err
}

// readMsg reads the next message, skipping lines that do not decode: a
// write cut off by its deadline leaves a torn line, which costs that one
// message but must not end the session. Only a read error (EOF included)
// is returned.
func readMsg(rd *bufio.Reader) (ctlMsg, error) {
	for {
		line, err := rd.ReadBytes('\n')
		if err != nil {
			return ctlMsg{}, err
		}
		var m ctlMsg
		if json.Unmarshal(line, &m) == nil {
			return m, nil
		}
	}
}

// Rendezvous is the launcher side of the rank↔launcher control sessions.
// Every rank dials it once and registers its endpoint; once the whole world
// has registered, each rank is answered with the complete endpoint book. The
// connections then stay open for the rest of the job: the Rendezvous answers
// clock-sync pings, feeds reports to its Telemetry aggregator (if any), and
// relays a rank's abort to every other rank. See ctlMsg for the protocol.
type Rendezvous struct {
	ln         net.Listener
	size       int
	advertised string
	tele       *Telemetry

	closed atomic.Bool

	mu       sync.Mutex
	book     []Endpoint // complete endpoint book, set when Serve succeeds
	sessions []*session // one per rank, set when Serve succeeds

	live sync.WaitGroup // session readers still running
}

// session is the launcher's end of one rank's control connection.
type session struct {
	rank int
	ep   Endpoint
	pid  int
	conn net.Conn
	rd   *bufio.Reader

	wmu sync.Mutex // serializes writes: pongs, book, relayed aborts
}

// send writes one message to the rank.
func (s *session) send(m *ctlMsg) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return writeMsg(s.conn, m)
}

// NewRendezvous starts the exchange for a world of the given size on a
// loopback port, the right default for single-host jobs.
func NewRendezvous(size int) (*Rendezvous, error) {
	return NewRendezvousBind("", size)
}

// NewRendezvousBind starts the exchange on the given bind host ("" =
// loopback, wildcard = all interfaces with a detected routable IP
// advertised) so workers on other hosts can reach it.
func NewRendezvousBind(bind string, size int) (*Rendezvous, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpirun: rendezvous for world of %d", size)
	}
	ln, err := net.Listen("tcp", ListenAddr(bind))
	if err != nil {
		return nil, fmt.Errorf("mpirun: rendezvous listen: %w", err)
	}
	return &Rendezvous{ln: ln, size: size, advertised: AdvertiseAddr(bind, ln.Addr())}, nil
}

// SetTelemetry makes the sessions report to t: the book asks every rank to
// sync its clock with the launcher and send snapshot reports (periodically
// at t's interval, and a final one at shutdown), which t aggregates. Call it
// before Serve; nil (the default) asks for neither.
func (r *Rendezvous) SetTelemetry(t *Telemetry) { r.tele = t }

// Advertised returns the routable address workers should register with. It
// is the single advertised-address accessor; with the default loopback bind
// it equals the listen address.
func (r *Rendezvous) Advertised() string { return r.advertised }

// Close tears the rendezvous down: a Serve in progress returns
// ErrRendezvousClosed instead of waiting out its timeout, and every open
// session is closed, which every rank still running reads as the launcher
// being gone. It returns once the session readers have exited. Safe to
// call concurrently with Serve and more than once.
func (r *Rendezvous) Close() {
	r.cancel()
	r.mu.Lock()
	sessions := r.sessions
	r.mu.Unlock()
	for _, s := range sessions {
		s.conn.Close()
	}
	r.live.Wait()
}

// cancel stops the registration phase only: a Serve that has not yet
// answered the world returns ErrRendezvousClosed, while sessions already
// answered stay open.
func (r *Rendezvous) cancel() {
	if r.closed.CompareAndSwap(false, true) {
		r.ln.Close()
	}
}

// Book returns the completed endpoint book (indexed by world rank), or nil
// if Serve has not finished successfully.
func (r *Rendezvous) Book() []Endpoint {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.book == nil {
		return nil
	}
	out := make([]Endpoint, len(r.book))
	copy(out, r.book)
	return out
}

// Abort tells every rank the job is over: each open session receives an
// abort with origin AbortOriginLauncher, which fails the rank's blocked MPI
// calls with mpi.ErrAborted. Best effort and parallel; a session that
// already ended is skipped silently.
func (r *Rendezvous) Abort(code int) {
	r.relayAbort(code, AbortOriginLauncher, -1)
}

// relayAbort sends an abort to every session except the one of rank except.
func (r *Rendezvous) relayAbort(code, origin, except int) {
	r.mu.Lock()
	sessions := r.sessions
	r.mu.Unlock()
	msg := &ctlMsg{Kind: "abort", Code: code, Origin: origin}
	var wg sync.WaitGroup
	for _, s := range sessions {
		if s.rank == except {
			continue
		}
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.send(msg) //nolint:errcheck // a dead rank needs no abort
		}(s)
	}
	wg.Wait()
}

// drain waits up to timeout for every session to reach EOF — each rank
// hangs up after its final report, so once the ranks are reaped this is
// immediate and every report has been ingested.
func (r *Rendezvous) drain(timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		r.live.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
	}
}

// Serve runs the registration phase: it accepts every rank's registration,
// then answers each with the full endpoint book, and closes the listener.
// The timeout bounds the whole exchange. On success the sessions stay open
// and are served in the background until the rank hangs up or Close.
//
// Registrations are read concurrently and the book is fanned out to all
// registrants in parallel once complete, so the exchange costs one round
// trip for the whole world instead of N sequential ones — a slow or distant
// rank delays only the final fan-out, never the other ranks' reads.
func (r *Rendezvous) Serve(timeout time.Duration) error {
	defer r.ln.Close()
	deadline := time.Now().Add(timeout)

	// registration is one parsed worker hello, or the error that ended it.
	type registration struct {
		s   *session
		err error
	}
	regCh := make(chan registration, r.size)
	acceptErr := make(chan error, 1)

	// Every accepted connection is tracked so the exchange can be torn down
	// from any failing exit path while parser goroutines are still in
	// flight; on success they all become sessions.
	var connMu sync.Mutex
	var conns []net.Conn
	done, served := false, false
	track := func(c net.Conn) bool {
		connMu.Lock()
		defer connMu.Unlock()
		if done {
			c.Close()
			return false
		}
		conns = append(conns, c)
		return true
	}
	defer func() {
		connMu.Lock()
		done = true
		if !served {
			for _, c := range conns {
				c.Close()
			}
		}
		connMu.Unlock()
	}()

	go func() {
		for i := 0; i < r.size; i++ {
			if l, ok := r.ln.(*net.TCPListener); ok {
				if err := l.SetDeadline(deadline); err != nil {
					acceptErr <- err
					return
				}
			}
			conn, err := r.ln.Accept()
			if err != nil {
				acceptErr <- err
				return
			}
			if !track(conn) {
				return
			}
			go func(conn net.Conn) {
				var reg registration
				defer func() { regCh <- reg }()
				if err := conn.SetDeadline(deadline); err != nil {
					reg.err = err
					return
				}
				reg.s, reg.err = r.register(conn)
			}(conn)
		}
	}()

	book := make([]Endpoint, r.size)
	registered := make([]*session, r.size)
	for got := 0; got < r.size; {
		select {
		case err := <-acceptErr:
			if r.closed.Load() {
				return ErrRendezvousClosed
			}
			return fmt.Errorf("mpirun: rendezvous accept (%d/%d registered): %w", got, r.size, err)
		case reg := <-regCh:
			if reg.err != nil {
				return reg.err
			}
			if registered[reg.s.rank] != nil {
				return fmt.Errorf("mpirun: rank %d registered twice", reg.s.rank)
			}
			book[reg.s.rank] = reg.s.ep
			registered[reg.s.rank] = reg.s
			got++
		}
	}

	// Commit: from here on the sessions belong to the Rendezvous, and Close
	// is what ends them. A Close that won the race fails the exchange. The
	// readers start now; a rank sends nothing before its book arrives.
	r.mu.Lock()
	if r.closed.Load() {
		r.mu.Unlock()
		return ErrRendezvousClosed
	}
	r.book, r.sessions = book, registered
	r.live.Add(r.size)
	for _, s := range registered {
		s.conn.SetReadDeadline(time.Time{})
		go r.serve(s)
	}
	r.mu.Unlock()
	served = true

	reply := &ctlMsg{Kind: "book", Book: book}
	if r.tele != nil {
		reply.Sync, reply.Interval = true, r.tele.interval
	}
	replyErrs := make([]error, r.size)
	var wg sync.WaitGroup
	for rank, s := range registered {
		wg.Add(1)
		go func(rank int, s *session) {
			defer wg.Done()
			if err := s.send(reply); err != nil {
				replyErrs[rank] = fmt.Errorf("mpirun: rendezvous reply to rank %d: %w", rank, err)
			}
		}(rank, s)
	}
	wg.Wait()
	for _, err := range replyErrs {
		if err != nil {
			return err
		}
	}
	return nil
}

// register reads and validates one rank's registration.
func (r *Rendezvous) register(conn net.Conn) (*session, error) {
	rd := bufio.NewReader(conn)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("mpirun: rendezvous read: %w", err)
	}
	var m ctlMsg
	if json.Unmarshal(line, &m) != nil || m.Kind != "register" || m.Addr == "" {
		return nil, fmt.Errorf("mpirun: malformed registration %q", strings.TrimSpace(string(line)))
	}
	if m.Rank < 0 || m.Rank >= r.size {
		return nil, fmt.Errorf("mpirun: registration with bad rank %q", strconv.Itoa(m.Rank))
	}
	return &session{rank: m.Rank, ep: Endpoint{Addr: m.Addr, Host: m.Host}, pid: m.PID, conn: conn, rd: rd}, nil
}

// serve runs one rank's session after the book: it answers clock-sync
// pings, ingests reports, and relays the rank's abort to every other rank,
// until the rank hangs up (or dies, or Close).
func (r *Rendezvous) serve(s *session) {
	defer r.live.Done()
	defer s.conn.Close()
	for {
		m, err := readMsg(s.rd)
		if err != nil {
			return
		}
		switch m.Kind {
		case "ping":
			if s.send(&ctlMsg{Kind: "pong", Seq: m.Seq, TS: time.Now().UnixNano()}) != nil {
				return
			}
		case "report":
			var snap perf.Snapshot
			if r.tele == nil || json.Unmarshal(m.Snap, &snap) != nil {
				continue
			}
			if snap.Host == "" {
				snap.Host = s.ep.Host
			}
			if snap.PID == 0 {
				snap.PID = s.pid
			}
			r.tele.Ingest(s.rank, snap, m.Seq, m.Final, time.Now())
		case "abort":
			r.relayAbort(m.Code, m.Origin, s.rank)
		}
	}
}

// Session is the rank side of the control connection: registered once at
// transport init, it carries the endpoint book in, then clock sync, reports
// and aborts for the rest of the job. Its methods are safe for concurrent
// use.
type Session struct {
	conn net.Conn
	rd   *bufio.Reader

	book     []Endpoint
	sync     bool
	interval time.Duration

	offset, bound int64
	synced        bool

	mu       sync.Mutex // serializes writes and guards seq
	seq      uint64
	closed   atomic.Bool
	watching sync.WaitGroup // the Watch reader, until it exits
}

// Register is the worker side of the exchange: it dials the rendezvous,
// reports this rank's advertised endpoint, waits for the full endpoint book
// and — when the launcher asks for it — runs the clock-sync handshake. The
// returned session stays open until Close.
func Register(rendezvous string, rank int, ep Endpoint, timeout time.Duration) (*Session, error) {
	conn, err := net.DialTimeout("tcp", rendezvous, timeout)
	if err != nil {
		return nil, fmt.Errorf("mpirun: dial rendezvous %s: %w", rendezvous, err)
	}
	s := &Session{conn: conn, rd: bufio.NewReader(conn)}
	if err := s.register(rank, ep, timeout); err != nil {
		conn.Close()
		return nil, err
	}
	return s, nil
}

// register runs the registration and, if requested, the clock sync, all
// under one deadline.
func (s *Session) register(rank int, ep Endpoint, timeout time.Duration) error {
	if err := s.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	reg := &ctlMsg{Kind: "register", Rank: rank, Addr: ep.Addr, Host: ep.Host, PID: os.Getpid()}
	if err := writeMsg(s.conn, reg); err != nil {
		return fmt.Errorf("mpirun: register rank %d: %w", rank, err)
	}
	m, err := readMsg(s.rd)
	if err != nil {
		return fmt.Errorf("mpirun: read endpoint book: %w", err)
	}
	if m.Kind != "book" || rank >= len(m.Book) {
		return fmt.Errorf("mpirun: endpoint book has %d entries, rank is %d", len(m.Book), rank)
	}
	s.book, s.sync, s.interval = m.Book, m.Sync, m.Interval
	if s.sync {
		s.clockSync()
	}
	return s.conn.SetDeadline(time.Time{})
}

// clockSync runs the ping-pong rounds and stores the offset estimate. A
// handshake that fails midway degrades to "no offset": clock sync is
// diagnostics and must never fail a rank's start.
func (s *Session) clockSync() {
	samples := make([]ClockSample, 0, DefaultClockSyncRounds)
	for i := 0; i < DefaultClockSyncRounds; i++ {
		t0 := time.Now().UnixNano()
		if err := writeMsg(s.conn, &ctlMsg{Kind: "ping", Seq: uint64(i), T0: t0}); err != nil {
			break
		}
		pong, err := readMsg(s.rd)
		if err != nil || pong.Kind != "pong" {
			break
		}
		samples = append(samples, ClockSample{T0: t0, TS: pong.TS, T3: time.Now().UnixNano()})
	}
	if off, bound, ok := EstimateClockOffset(samples); ok {
		s.offset, s.bound, s.synced = off, bound, true
	}
}

// Book returns the endpoint book, indexed by world rank.
func (s *Session) Book() []Endpoint { return s.book }

// Reporting returns the launcher's reporting request: whether the rank
// should send reports at all (a final one at shutdown or abort) and how
// often to send periodic ones (0 = final only).
func (s *Session) Reporting() (on bool, interval time.Duration) { return s.sync, s.interval }

// ClockOffset returns the clock-sync result: the estimated
// launcher_clock − rank_clock offset, its half-RTT error bound, and whether
// the handshake produced a usable estimate.
func (s *Session) ClockOffset() (offset, bound int64, ok bool) {
	return s.offset, s.bound, s.synced
}

// Watch starts the session's reader. onAbort runs at most once, on the
// reader's goroutine: for the first abort the launcher sends, or — unless
// the rank closed the session itself — when the session ends, the lease
// that tells the rank its launcher is gone (code 1, origin
// AbortOriginLauncher). onAbort must not call Close, which waits for the
// reader to exit.
func (s *Session) Watch(onAbort func(code, origin int)) {
	s.watching.Add(1)
	go func() {
		defer s.watching.Done()
		for {
			m, err := readMsg(s.rd)
			if err != nil {
				if !s.closed.Load() {
					onAbort(1, AbortOriginLauncher)
				}
				return
			}
			if m.Kind == "abort" {
				onAbort(m.Code, m.Origin)
				return
			}
		}
	}()
}

// Report pushes one snapshot to the launcher. Reports carry a sequence
// number so the aggregator can drop reordered arrivals; final marks the
// shutdown (or abort) report that ends the rank's live rate derivation.
func (s *Session) Report(snap perf.Snapshot, final bool) error {
	b, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return writeMsg(s.conn, &ctlMsg{Kind: "report", Seq: s.seq, Final: final, Snap: b})
}

// Abort asks the launcher to relay a job-wide abort to every other rank.
func (s *Session) Abort(code, origin int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return writeMsg(s.conn, &ctlMsg{Kind: "abort", Code: code, Origin: origin})
}

// Close hangs up the session; the launcher reads it as this rank being
// done. It returns once the Watch reader, if any, has exited. Safe to call
// more than once.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.conn.Close()
	s.watching.Wait()
	return err
}
