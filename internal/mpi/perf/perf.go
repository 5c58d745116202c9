// Package perf is the observability layer of the mpi substrate: MPI_T-style
// performance variables plus a low-overhead per-rank event tracer.
//
// Every rank (Env) owns one Rank handle. Counters come in two flavors,
// chosen by where the hot path already holds a lock:
//
//   - Engine-side variables (queue depths, high-water marks, match
//     classification, per-peer arrival accounting) are plain integers owned
//     by the matching engine and mutated under the engine mutex the hot path
//     holds anyway — zero extra synchronization. Snapshot() pulls them
//     through a registered collector that briefly takes that same lock.
//   - Transport- and collective-side variables (wire frames, acks, dials,
//     collective invocation counts and cumulative latency) are atomics,
//     updated on paths whose cost is dominated by syscalls or log-round
//     messaging, where an atomic add is invisible.
//
// Send-side per-peer totals are not counted on the send path at all: an
// eager send is delivered into the destination engine before it returns, so
// "bytes I sent to d" is exactly "bytes d's engine received from me". The
// in-process transport derives sent totals from sibling engines at snapshot
// time; the TCP transport counts frames it writes (a syscall path). The
// exact-match fast path therefore pays only plain increments under an
// already-held lock, keeping tracer-off overhead within the benchmarked
// bound (see BenchmarkTracerOverhead and EXPERIMENTS.md).
package perf

import (
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Environment variables consulted by the substrate's observability hooks.
const (
	// EnvStatsDir, when set, makes every rank write a JSON Snapshot to
	// <dir>/stats.rank<N>.json when its environment is closed, for
	// hand-launched and in-process runs. mphrun -stats does not use it: it
	// prints from the final reports the ranks send over their control
	// sessions.
	EnvStatsDir = "MPH_STATS_DIR"
	// EnvTraceDir, when set, enables the event tracer at Env creation and
	// makes every rank write <dir>/trace.rank<N>.jsonl on close. mphrun
	// -trace=DIR sets it; cmd/mphtrace merges the files.
	EnvTraceDir = "MPH_TRACE_DIR"
	// EnvTraceEvents overrides the tracer ring capacity (default
	// DefaultTraceEvents).
	EnvTraceEvents = "MPH_TRACE_EVENTS"
	// EnvTraceSample overrides the tracer's 1-in-N sampling divisor for the
	// per-message hot-path events (default DefaultTraceSample; 1 records
	// every event). Structural events are never sampled.
	EnvTraceSample = "MPH_TRACE_SAMPLE"
	// EnvDebugAddr, when set for a TCP-transport job, starts a per-rank
	// HTTP endpoint serving the live Snapshot as JSON (see Serve).
	EnvDebugAddr = "MPH_DEBUG_ADDR"
)

// DefaultTraceEvents is the tracer ring capacity when EnvTraceEvents does
// not override it.
const DefaultTraceEvents = 1 << 16

// DefaultTraceSample is the 1-in-N sampling divisor applied to the
// per-message hot-path events (send, recv-post, match) when EnvTraceSample
// does not override it. 16 keeps tracer-on overhead on the p2p fast path
// under the 25% budget (BENCH_perf.json P1) while retaining a statistically
// useful event stream; set MPH_TRACE_SAMPLE=1 to record everything when
// debugging message-level ordering.
const DefaultTraceSample = 16

// CollOp identifies one collective operation for invocation counting.
type CollOp uint8

// Collective operations tracked per rank. Composite collectives count only
// at the outermost level: an Allreduce's internal Reduce does not also count
// as a Reduce.
const (
	CollBarrier CollOp = iota
	CollBcast
	CollGather
	CollAllgather
	CollScatter
	CollAlltoall
	CollReduce
	CollAllreduce
	CollScan
	CollSplit
	NumCollOps // count sentinel, not an op
)

var collOpNames = [NumCollOps]string{
	"barrier", "bcast", "gather", "allgather", "scatter",
	"alltoall", "reduce", "allreduce", "scan", "split",
}

// String names the collective operation for summaries and traces.
func (op CollOp) String() string {
	if op < NumCollOps {
		return collOpNames[op]
	}
	return "unknown"
}

// CollAlg identifies the algorithm family a collective invocation was routed
// to by the size-based selector (DESIGN.md "Collective algorithms").
type CollAlg uint8

// Algorithm families tracked per collective op. Tree covers the
// latency-optimal binomial-tree/gather+bcast shapes; Ring covers the
// bandwidth-optimal ring Allgather.
const (
	AlgTree CollAlg = iota
	AlgRing
	NumCollAlgs // count sentinel, not an algorithm
)

var collAlgNames = [NumCollAlgs]string{"tree", "ring"}

// String names the algorithm family for summaries.
func (a CollAlg) String() string {
	if a < NumCollAlgs {
		return collAlgNames[a]
	}
	return "unknown"
}

// Phase identifies one MPH handshake phase for trace markers (paper §6: the
// five-phase algorithm in core.handshake).
type Phase uint8

// Handshake phases, in execution order.
const (
	PhaseRegistry   Phase = iota + 1 // registration file load + broadcast
	PhaseSplit                       // world split by executable
	PhaseComponents                  // component communicator creation
	PhaseLayout                      // global layout allgather + validation
	PhaseGlobal                      // private world duplicate
)

var phaseNames = map[Phase]string{
	PhaseRegistry:   "handshake:registry",
	PhaseSplit:      "handshake:split",
	PhaseComponents: "handshake:components",
	PhaseLayout:     "handshake:layout",
	PhaseGlobal:     "handshake:global-dup",
}

// PhaseName names a handshake phase id (as carried in trace events).
func PhaseName(id int64) string {
	if n, ok := phaseNames[Phase(id)]; ok {
		return n
	}
	return "handshake:unknown"
}

// CollOpName names a collective op id (as carried in trace events).
func CollOpName(id int64) string {
	if id >= 0 && id < int64(NumCollOps) {
		return collOpNames[id]
	}
	return "unknown"
}

// CollHistBuckets is the number of log-spaced duration buckets kept per
// collective op for straggler analysis: bucket i counts invocations whose
// wall time was under 1µs·2^i (the last bucket is unbounded), spanning 1µs
// to ~33ms with the overflow catching everything slower.
const CollHistBuckets = 16

// collHistBucket maps one invocation duration to its histogram bucket.
func collHistBucket(ns int64) int {
	us := ns / 1000
	for i := 0; i < CollHistBuckets-1; i++ {
		if us < 1<<i {
			return i
		}
	}
	return CollHistBuckets - 1
}

// collCounter is one collective op's invocation count, cumulative wall
// time, slowest single invocation, and duration histogram.
type collCounter struct {
	count atomic.Uint64
	ns    atomic.Int64
	maxNS atomic.Int64
	hist  [CollHistBuckets]atomic.Uint64
}

// observe folds one outermost invocation's duration into the counter.
func (c *collCounter) observe(d int64) {
	c.count.Add(1)
	c.ns.Add(d)
	for {
		cur := c.maxNS.Load()
		if d <= cur || c.maxNS.CompareAndSwap(cur, d) {
			break
		}
	}
	c.hist[collHistBucket(d)].Add(1)
}

// NetCounters are the TCP transport's wire-level performance variables. All
// fields are atomics updated on syscall-dominated paths; the in-process
// transport leaves them zero.
type NetCounters struct {
	FramesOut atomic.Uint64 // packet frames written
	FramesIn  atomic.Uint64 // packet frames read
	AcksOut   atomic.Uint64 // ack frames written (Ssend releases)
	AcksIn    atomic.Uint64 // ack frames read
	BytesOut  atomic.Uint64 // total bytes written (frames + acks)
	BytesIn   atomic.Uint64 // total bytes read
	Dials     atomic.Uint64 // outbound connections established

	// Fault-tolerance counters: retry, liveness, and failure traffic.
	DialRetries    atomic.Uint64 // dial attempts after the first, per connection
	HeartbeatsOut  atomic.Uint64 // heartbeat frames written on idle connections
	HeartbeatsIn   atomic.Uint64 // heartbeat frames read
	PeersLost      atomic.Uint64 // world ranks declared dead by the failure detector
	AbortsOut      atomic.Uint64 // aborts this rank sent up its launcher session
	AbortsIn       atomic.Uint64 // aborts received over the launcher session (relayed, launcher-raised, or the lease)
	FaultsInjected atomic.Uint64 // MPH_FAULT rule firings (testing only)

	// Rendezvous-protocol counters (payloads at or above the eager
	// threshold; DESIGN.md §12).
	RTSOut   atomic.Uint64 // request-to-send frames written
	RTSIn    atomic.Uint64 // request-to-send frames read
	CTSOut   atomic.Uint64 // clear-to-send frames written
	CTSIn    atomic.Uint64 // clear-to-send frames read
	RDataOut atomic.Uint64 // rendezvous payload frames written
	RDataIn  atomic.Uint64 // rendezvous payload frames read

	// Intra-host shared-memory channel counters (DESIGN.md §12): rendezvous
	// payload frames that moved over the per-peer Unix-domain payload
	// channel instead of the TCP stream. Shm frames and bytes are also
	// counted in RData*/Bytes*, so totals reconcile regardless of channel.
	ShmChannels  atomic.Uint64 // local payload channels successfully established
	ShmRDataOut  atomic.Uint64 // rendezvous payload frames written over the local channel
	ShmRDataIn   atomic.Uint64 // rendezvous payload frames read over the local channel
	ShmBytesOut  atomic.Uint64 // bytes written over the local channel
	ShmBytesIn   atomic.Uint64 // bytes read over the local channel
	ShmFallbacks atomic.Uint64 // transfers that fell back to TCP (negotiation, dial, or write failure)
}

// EngineSnap is the matching engine's contribution to a Snapshot, copied
// under the engine mutex by the registered collector.
type EngineSnap struct {
	UMQDepth     int `json:"umq_depth"`
	UMQHighWater int `json:"umq_high_water"`
	PRQDepth     int `json:"prq_depth"`
	PRQHighWater int `json:"prq_high_water"`

	// Match classification: where the message was when it matched, and
	// what kind of envelope the receive carried.
	MatchesUnexpected uint64 `json:"matches_unexpected"`
	MatchesPosted     uint64 `json:"matches_posted"`
	MatchesWildcard   uint64 `json:"matches_wildcard"`
	MatchesExact      uint64 `json:"matches_exact"`

	// Per-source-world-rank arrival accounting.
	RecvMsgs  []uint64 `json:"recv_msgs_by_peer"`
	RecvBytes []uint64 `json:"recv_bytes_by_peer"`
}

// CollSnap is one collective op's counters in a Snapshot. Count and Nanos
// cover only outermost invocations (composites nest); Tree and Ring count
// every algorithm-selection decision, including those made inside composite
// collectives, so Tree+Ring may exceed Count for ops used as building
// blocks.
type CollSnap struct {
	Count uint64 `json:"count"`
	Nanos int64  `json:"nanos"`
	Tree  uint64 `json:"tree,omitempty"`
	Ring  uint64 `json:"ring,omitempty"`
	// Hier is always zero: the hierarchical collectives it counted are
	// gone. The field stays because the e2ebench module reads it to report
	// mpi.coll_calls.hier.
	Hier uint64 `json:"hier,omitempty"`
	// MaxNanos is the slowest single outermost invocation — a rank whose
	// max dwarfs its peers' was waiting on a straggler (or was one).
	MaxNanos int64 `json:"max_nanos,omitempty"`
	// HistNanos is the per-invocation duration histogram: HistNanos[i]
	// counts invocations under 1µs·2^i (last bucket unbounded). Nil when
	// the op was never invoked at the outermost level.
	HistNanos []uint64 `json:"hist,omitempty"`
}

// NetSnap is the wire counters' value in a Snapshot.
type NetSnap struct {
	FramesOut uint64 `json:"frames_out"`
	FramesIn  uint64 `json:"frames_in"`
	AcksOut   uint64 `json:"acks_out"`
	AcksIn    uint64 `json:"acks_in"`
	BytesOut  uint64 `json:"bytes_out"`
	BytesIn   uint64 `json:"bytes_in"`
	Dials     uint64 `json:"dials"`

	DialRetries    uint64 `json:"dial_retries,omitempty"`
	HeartbeatsOut  uint64 `json:"heartbeats_out,omitempty"`
	HeartbeatsIn   uint64 `json:"heartbeats_in,omitempty"`
	PeersLost      uint64 `json:"peers_lost,omitempty"`
	AbortsOut      uint64 `json:"aborts_out,omitempty"`
	AbortsIn       uint64 `json:"aborts_in,omitempty"`
	FaultsInjected uint64 `json:"faults_injected,omitempty"`

	RTSOut   uint64 `json:"rts_out,omitempty"`
	RTSIn    uint64 `json:"rts_in,omitempty"`
	CTSOut   uint64 `json:"cts_out,omitempty"`
	CTSIn    uint64 `json:"cts_in,omitempty"`
	RDataOut uint64 `json:"rdata_out,omitempty"`
	RDataIn  uint64 `json:"rdata_in,omitempty"`

	ShmChannels  uint64 `json:"shm_channels,omitempty"`
	ShmRDataOut  uint64 `json:"shm_rdata_out,omitempty"`
	ShmRDataIn   uint64 `json:"shm_rdata_in,omitempty"`
	ShmBytesOut  uint64 `json:"shm_bytes_out,omitempty"`
	ShmBytesIn   uint64 `json:"shm_bytes_in,omitempty"`
	ShmFallbacks uint64 `json:"shm_fallbacks,omitempty"`
}

// TraceSnap reports the tracer's state in a Snapshot.
type TraceSnap struct {
	Enabled  bool   `json:"enabled"`
	Capacity int    `json:"capacity,omitempty"`
	Recorded uint64 `json:"recorded,omitempty"`
	Dropped  uint64 `json:"dropped,omitempty"`
	Sample   int    `json:"sample,omitempty"` // 1-in-N divisor for per-message events
}

// Snapshot is one rank's performance variables at a point in time. It is
// the typed unit the HTTP endpoint, the stats files, and mphrun's summary
// all share.
type Snapshot struct {
	WorldRank int    `json:"world_rank"`
	WorldSize int    `json:"world_size"`
	Component string `json:"component,omitempty"`

	// Host and PID identify the OS process behind the rank, so a scraped
	// /perf payload or a streamed telemetry report is attributable without
	// out-of-band context.
	Host string `json:"host,omitempty"`
	PID  int    `json:"pid,omitempty"`

	// CapturedUnixNS is the wall-clock capture time on the rank's own
	// clock; consumers computing rates difference it between reports.
	CapturedUnixNS int64 `json:"captured_unix_ns,omitempty"`

	// ClockOffsetNS estimates launcher_clock − rank_clock (add it to a
	// rank-local wall timestamp to land on the launcher's timeline), with
	// ClockErrBoundNS the half-RTT uncertainty of the estimate. Zero when
	// no clock sync ran (in-process worlds, no telemetry channel).
	ClockOffsetNS   int64 `json:"clock_offset_ns,omitempty"`
	ClockErrBoundNS int64 `json:"clock_err_bound_ns,omitempty"`

	Engine EngineSnap `json:"engine"`

	// Per-destination-world-rank send accounting (derived from receiver
	// engines for the in-process transport, counted at the wire for TCP).
	SentMsgs  []uint64 `json:"sent_msgs_by_peer"`
	SentBytes []uint64 `json:"sent_bytes_by_peer"`

	TotalSentMsgs  uint64 `json:"total_sent_msgs"`
	TotalSentBytes uint64 `json:"total_sent_bytes"`
	TotalRecvMsgs  uint64 `json:"total_recv_msgs"`
	TotalRecvBytes uint64 `json:"total_recv_bytes"`

	Collectives map[string]CollSnap `json:"collectives,omitempty"`
	CommSplits  uint64              `json:"comm_splits"`
	CommDups    uint64              `json:"comm_dups"`
	CommJoins   uint64              `json:"comm_joins"`

	Net   NetSnap   `json:"net"`
	Trace TraceSnap `json:"trace"`
}

// CollNanos sums the cumulative wall time of every collective op.
func (s *Snapshot) CollNanos() int64 {
	var total int64
	for _, c := range s.Collectives {
		total += c.Nanos
	}
	return total
}

// Rank is one rank's performance-variable handle, shared by the engine, the
// transport, the collectives, and the MPH layer above them.
type Rank struct {
	worldRank int
	worldSize int
	base      time.Time
	pid       int

	component  atomic.Pointer[string]
	host       atomic.Pointer[string]
	tracer     atomic.Pointer[Tracer]
	clockOff   atomic.Int64
	clockBound atomic.Int64

	collDepth atomic.Int32
	coll      [NumCollOps]collCounter
	collAlg   [NumCollOps][NumCollAlgs]atomic.Uint64

	splits atomic.Uint64
	dups   atomic.Uint64
	joins  atomic.Uint64

	// Net is exported so the TCP transport updates it directly.
	Net NetCounters

	mu      sync.Mutex
	engSnap func() EngineSnap
	sent    func() (msgs, bytes []uint64)
}

// NewRank creates the handle for one world rank.
func NewRank(worldRank, worldSize int) *Rank {
	return &Rank{worldRank: worldRank, worldSize: worldSize, base: time.Now(), pid: os.Getpid()}
}

// WorldRank returns the rank this handle belongs to.
func (r *Rank) WorldRank() int { return r.worldRank }

// WorldSize returns the world size the per-peer arrays are indexed by.
func (r *Rank) WorldSize() int { return r.worldSize }

// Now returns nanoseconds since the rank's monotonic base; trace event
// timestamps share it.
func (r *Rank) Now() int64 { return int64(time.Since(r.base)) }

// SetComponent records the MPH component name(s) covering this rank; the
// handshake calls it so summaries group ranks by component.
func (r *Rank) SetComponent(name string) { r.component.Store(&name) }

// ComponentName returns the recorded component name, or "".
func (r *Rank) ComponentName() string {
	if p := r.component.Load(); p != nil {
		return *p
	}
	return ""
}

// SetHost records the host label this rank runs on; the transport calls it
// once the launcher-assigned placement is known.
func (r *Rank) SetHost(host string) { r.host.Store(&host) }

// Host returns the recorded host label, or "".
func (r *Rank) Host() string {
	if p := r.host.Load(); p != nil {
		return *p
	}
	return ""
}

// SetClockOffset records the NTP-style clock-sync result against the
// launcher: offset estimates launcher_clock − rank_clock, bound is the
// half-RTT uncertainty. Snapshots and trace dumps carry both so consumers
// can shift this rank's timestamps onto the launcher's timeline.
func (r *Rank) SetClockOffset(offset, bound int64) {
	r.clockOff.Store(offset)
	r.clockBound.Store(bound)
}

// ClockOffset returns the recorded clock-sync result (zero, zero when no
// sync ran).
func (r *Rank) ClockOffset() (offset, bound int64) {
	return r.clockOff.Load(), r.clockBound.Load()
}

// SetEngineCollector registers the engine's snapshot function.
func (r *Rank) SetEngineCollector(fn func() EngineSnap) {
	r.mu.Lock()
	r.engSnap = fn
	r.mu.Unlock()
}

// SetSentCollector registers the transport's per-peer sent-totals function.
func (r *Rank) SetSentCollector(fn func() (msgs, bytes []uint64)) {
	r.mu.Lock()
	r.sent = fn
	r.mu.Unlock()
}

// EnableTracer installs a fresh event tracer with the given ring capacity
// (DefaultTraceEvents if capacity <= 0) and returns it. The caller must
// install it before traffic starts; the hot paths cache the pointer.
//
// The per-message sampling divisor is resolved from EnvTraceSample, falling
// back to DefaultTraceSample when unset, unparsable, or nonpositive — jobs
// that enable tracing get the low-overhead sampled stream unless they ask
// for full fidelity with MPH_TRACE_SAMPLE=1.
func (r *Rank) EnableTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceEvents
	}
	t := NewTracer(capacity, r.base)
	sample := DefaultTraceSample
	if v := os.Getenv(EnvTraceSample); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			sample = n
		}
	}
	t.SetSample(sample)
	r.tracer.Store(t)
	return t
}

// Tracer returns the installed tracer, or nil when tracing is off.
func (r *Rank) Tracer() *Tracer { return r.tracer.Load() }

// CollEnter marks entry into a collective. It returns the start timestamp
// and whether this is the outermost collective on the rank (composite
// collectives nest; only the outermost is counted).
func (r *Rank) CollEnter(op CollOp) (startNS int64, top bool) {
	top = r.collDepth.Add(1) == 1
	startNS = r.Now()
	if tr := r.Tracer(); tr != nil {
		tr.record(startNS, KCollEnter, int64(op), 0, 0, 0)
	}
	return startNS, top
}

// CollExit marks exit from a collective entered with CollEnter.
func (r *Rank) CollExit(op CollOp, startNS int64, top bool) {
	end := r.Now()
	if tr := r.Tracer(); tr != nil {
		tr.record(end, KCollExit, int64(op), end-startNS, 0, 0)
	}
	if top {
		r.coll[op].observe(end - startNS)
	}
	r.collDepth.Add(-1)
}

// CollAlgo records which algorithm family the size-based selector routed one
// collective invocation to. It is called at every selection point, including
// selections made inside composite collectives.
func (r *Rank) CollAlgo(op CollOp, alg CollAlg) {
	if op < NumCollOps && alg < NumCollAlgs {
		r.collAlg[op][alg].Add(1)
	}
}

// CountSplit records a communicator split (also traced).
func (r *Rank) CountSplit(color int, newSize int) {
	r.splits.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommSplit, int64(color), int64(newSize), 0, 0)
	}
}

// CountDup records a communicator duplication (also traced).
func (r *Rank) CountDup() {
	r.dups.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommDup, 0, 0, 0, 0)
	}
}

// CountJoin records a group-based communicator creation (MPH_comm_join's
// substrate; also traced).
func (r *Rank) CountJoin(size int) {
	r.joins.Add(1)
	if tr := r.Tracer(); tr != nil {
		tr.Record(KCommJoin, int64(size), 0, 0, 0)
	}
}

// TracePhase emits a handshake-phase begin marker and returns the matching
// end function. With tracing off both are free.
func (r *Rank) TracePhase(p Phase) func() {
	tr := r.Tracer()
	if tr == nil {
		return func() {}
	}
	tr.Record(KPhaseBegin, int64(p), 0, 0, 0)
	return func() { tr.Record(KPhaseEnd, int64(p), 0, 0, 0) }
}

// Snapshot captures every performance variable of the rank. It is safe to
// call concurrently with traffic; engine variables are copied under the
// engine lock, everything else is read atomically.
func (r *Rank) Snapshot() Snapshot {
	r.mu.Lock()
	engSnap, sent := r.engSnap, r.sent
	r.mu.Unlock()

	s := Snapshot{
		WorldRank:      r.worldRank,
		WorldSize:      r.worldSize,
		Component:      r.ComponentName(),
		Host:           r.Host(),
		PID:            r.pid,
		CapturedUnixNS: time.Now().UnixNano(),
	}
	s.ClockOffsetNS, s.ClockErrBoundNS = r.ClockOffset()
	if engSnap != nil {
		s.Engine = engSnap()
	}
	if s.Engine.RecvMsgs == nil {
		s.Engine.RecvMsgs = make([]uint64, r.worldSize)
		s.Engine.RecvBytes = make([]uint64, r.worldSize)
	}
	if sent != nil {
		s.SentMsgs, s.SentBytes = sent()
	}
	if s.SentMsgs == nil {
		s.SentMsgs = make([]uint64, r.worldSize)
		s.SentBytes = make([]uint64, r.worldSize)
	}
	for i := range s.SentMsgs {
		s.TotalSentMsgs += s.SentMsgs[i]
		s.TotalSentBytes += s.SentBytes[i]
	}
	for i := range s.Engine.RecvMsgs {
		s.TotalRecvMsgs += s.Engine.RecvMsgs[i]
		s.TotalRecvBytes += s.Engine.RecvBytes[i]
	}

	for op := CollOp(0); op < NumCollOps; op++ {
		count := r.coll[op].count.Load()
		tree := r.collAlg[op][AlgTree].Load()
		ring := r.collAlg[op][AlgRing].Load()
		if count == 0 && tree == 0 && ring == 0 {
			continue
		}
		if s.Collectives == nil {
			s.Collectives = make(map[string]CollSnap)
		}
		cs := CollSnap{
			Count:    count,
			Nanos:    r.coll[op].ns.Load(),
			Tree:     tree,
			Ring:     ring,
			MaxNanos: r.coll[op].maxNS.Load(),
		}
		if count > 0 {
			cs.HistNanos = make([]uint64, CollHistBuckets)
			for i := range cs.HistNanos {
				cs.HistNanos[i] = r.coll[op].hist[i].Load()
			}
		}
		s.Collectives[op.String()] = cs
	}
	s.CommSplits = r.splits.Load()
	s.CommDups = r.dups.Load()
	s.CommJoins = r.joins.Load()

	s.Net = NetSnap{
		FramesOut: r.Net.FramesOut.Load(),
		FramesIn:  r.Net.FramesIn.Load(),
		AcksOut:   r.Net.AcksOut.Load(),
		AcksIn:    r.Net.AcksIn.Load(),
		BytesOut:  r.Net.BytesOut.Load(),
		BytesIn:   r.Net.BytesIn.Load(),
		Dials:     r.Net.Dials.Load(),

		DialRetries:    r.Net.DialRetries.Load(),
		HeartbeatsOut:  r.Net.HeartbeatsOut.Load(),
		HeartbeatsIn:   r.Net.HeartbeatsIn.Load(),
		PeersLost:      r.Net.PeersLost.Load(),
		AbortsOut:      r.Net.AbortsOut.Load(),
		AbortsIn:       r.Net.AbortsIn.Load(),
		FaultsInjected: r.Net.FaultsInjected.Load(),

		RTSOut:   r.Net.RTSOut.Load(),
		RTSIn:    r.Net.RTSIn.Load(),
		CTSOut:   r.Net.CTSOut.Load(),
		CTSIn:    r.Net.CTSIn.Load(),
		RDataOut: r.Net.RDataOut.Load(),
		RDataIn:  r.Net.RDataIn.Load(),

		ShmChannels:  r.Net.ShmChannels.Load(),
		ShmRDataOut:  r.Net.ShmRDataOut.Load(),
		ShmRDataIn:   r.Net.ShmRDataIn.Load(),
		ShmBytesOut:  r.Net.ShmBytesOut.Load(),
		ShmBytesIn:   r.Net.ShmBytesIn.Load(),
		ShmFallbacks: r.Net.ShmFallbacks.Load(),
	}
	if tr := r.Tracer(); tr != nil {
		s.Trace = TraceSnap{
			Enabled:  true,
			Capacity: tr.Capacity(),
			Recorded: tr.Recorded(),
			Dropped:  tr.Dropped(),
			Sample:   tr.Sample(),
		}
	}
	return s
}
