package mpirun

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"mph/internal/mpi/perf"
)

// DefaultStaleAfter is how long a live (non-final) rank may go without a
// report before the job view marks it stale. Reporting ranks push at their
// configured interval; several missed intervals on top of this floor means
// the rank is hung, partitioned, or dead.
const DefaultStaleAfter = 15 * time.Second

// ClockSample is one ping-pong round of the clock-sync handshake, all in
// nanoseconds: T0 is the client's send time and T3 its receive time on the
// client clock; TS is the server's reply time on the server clock.
type ClockSample struct {
	T0 int64 // client clock, ping sent
	TS int64 // server clock, pong sent
	T3 int64 // client clock, pong received
}

// RTT returns the round-trip time of the sample on the client clock.
func (s ClockSample) RTT() int64 { return s.T3 - s.T0 }

// EstimateClockOffset reduces the rounds of one clock-sync handshake to an
// offset estimate: server_clock − client_clock, NTP style. Each round's
// estimate assumes the server's reply timestamp was taken at the midpoint of
// the round trip (offset = TS − (T0+T3)/2); the round with the smallest RTT
// is kept, because midpoint error is bounded by half the RTT — the returned
// bound. ok is false when no sample is usable (none, or negative RTTs from a
// clock step mid-handshake).
func EstimateClockOffset(samples []ClockSample) (offset, bound int64, ok bool) {
	best := -1
	for i, s := range samples {
		if s.RTT() < 0 {
			continue
		}
		if best < 0 || s.RTT() < samples[best].RTT() {
			best = i
		}
	}
	if best < 0 {
		return 0, 0, false
	}
	s := samples[best]
	return s.TS - (s.T0+s.T3)/2, s.RTT() / 2, true
}

// rankReport is the aggregator's state for one reporting rank: the latest
// snapshot, the previous one for rate derivation, and receipt bookkeeping.
type rankReport struct {
	snap     perf.Snapshot
	seq      uint64
	final    bool
	received time.Time
	prev     *perf.Snapshot
	prevAt   time.Time
}

// RankStatus is one rank's row of the live job view.
type RankStatus struct {
	Rank      int    `json:"rank"`
	Component string `json:"component,omitempty"`
	Host      string `json:"host,omitempty"`
	PID       int    `json:"pid,omitempty"`
	Final     bool   `json:"final"`
	Stale     bool   `json:"stale"`
	// LastReportAgeMS is how long ago the latest report arrived,
	// launcher clock.
	LastReportAgeMS int64 `json:"last_report_age_ms"`

	SentMsgs  uint64 `json:"sent_msgs"`
	SentBytes uint64 `json:"sent_bytes"`
	RecvMsgs  uint64 `json:"recv_msgs"`
	RecvBytes uint64 `json:"recv_bytes"`

	// Derived rates over the window between the two most recent reports
	// (zero until a second report arrives, or after the final report).
	SentMsgsPerSec  float64 `json:"sent_msgs_per_sec,omitempty"`
	SentBytesPerSec float64 `json:"sent_bytes_per_sec,omitempty"`
	RecvMsgsPerSec  float64 `json:"recv_msgs_per_sec,omitempty"`
	RecvBytesPerSec float64 `json:"recv_bytes_per_sec,omitempty"`

	ClockOffsetNS   int64 `json:"clock_offset_ns,omitempty"`
	ClockErrBoundNS int64 `json:"clock_err_bound_ns,omitempty"`
	CollNanos       int64 `json:"coll_nanos,omitempty"`
}

// JobView is the aggregator's merged, job-wide view of every rank report.
type JobView struct {
	WorldSize int `json:"world_size"`
	Reporting int `json:"reporting"`
	Finals    int `json:"finals"`

	TotalSentMsgs  uint64 `json:"total_sent_msgs"`
	TotalSentBytes uint64 `json:"total_sent_bytes"`
	TotalRecvMsgs  uint64 `json:"total_recv_msgs"`
	TotalRecvBytes uint64 `json:"total_recv_bytes"`

	// Reconciled reports sent==received across every reporting rank. Only
	// meaningful once every rank's final report is in; mid-run the totals
	// lag each other by in-flight traffic and report skew.
	Reconciled bool `json:"reconciled"`

	Ranks []RankStatus `json:"ranks"`
}

// Telemetry is the launcher-side telemetry plane: an aggregator merging
// the perf.Snapshot reports ranks push over their control sessions (see
// Rendezvous.SetTelemetry) into a live job view, and an http.Handler serving
// the view as Prometheus /metrics and JSON /status.
type Telemetry struct {
	size       int
	interval   time.Duration
	staleAfter time.Duration

	mu      sync.Mutex
	reports map[int]*rankReport
}

// NewTelemetry returns the aggregator for a world of the given size. The
// interval is the periodic report period the launcher asks every rank for
// (0 = a final report at shutdown only).
func NewTelemetry(size int, interval time.Duration) *Telemetry {
	return &Telemetry{
		size:       size,
		interval:   interval,
		staleAfter: DefaultStaleAfter,
		reports:    make(map[int]*rankReport),
	}
}

// Ingest merges one rank report into the aggregate, keyed by world rank.
// Reports carry a per-rank sequence number; one arriving out of order
// (an older seq than the latest merged) is dropped, so a delayed periodic
// report can never overwrite the final one. Exported for aggregator tests;
// the control sessions call it internally.
func (t *Telemetry) Ingest(rank int, snap perf.Snapshot, seq uint64, final bool, at time.Time) {
	if rank < 0 || rank >= t.size {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	r, ok := t.reports[rank]
	if !ok {
		t.reports[rank] = &rankReport{snap: snap, seq: seq, final: final, received: at}
		return
	}
	if seq < r.seq {
		return
	}
	prev, prevAt := r.snap, r.received
	r.prev, r.prevAt = &prev, prevAt
	r.snap, r.seq, r.received = snap, seq, at
	r.final = r.final || final
}

// SetStaleAfter overrides the no-report window after which a live rank is
// marked stale in the job view.
func (t *Telemetry) SetStaleAfter(d time.Duration) {
	t.mu.Lock()
	t.staleAfter = d
	t.mu.Unlock()
}

// View returns the merged job view as of now.
func (t *Telemetry) View() JobView { return t.viewAt(time.Now()) }

// viewAt builds the job view against an explicit clock (tests pin it).
func (t *Telemetry) viewAt(now time.Time) JobView {
	t.mu.Lock()
	defer t.mu.Unlock()
	view := JobView{WorldSize: t.size}
	ranks := make([]int, 0, len(t.reports))
	for r := range t.reports {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, rk := range ranks {
		r := t.reports[rk]
		s := &r.snap
		rs := RankStatus{
			Rank:            rk,
			Component:       s.Component,
			Host:            s.Host,
			PID:             s.PID,
			Final:           r.final,
			Stale:           !r.final && now.Sub(r.received) > t.staleAfter,
			LastReportAgeMS: now.Sub(r.received).Milliseconds(),
			SentMsgs:        s.TotalSentMsgs,
			SentBytes:       s.TotalSentBytes,
			RecvMsgs:        s.TotalRecvMsgs,
			RecvBytes:       s.TotalRecvBytes,
			ClockOffsetNS:   s.ClockOffsetNS,
			ClockErrBoundNS: s.ClockErrBoundNS,
			CollNanos:       s.CollNanos(),
		}
		if r.prev != nil && !r.final {
			if dt := r.received.Sub(r.prevAt).Seconds(); dt > 0 {
				rs.SentMsgsPerSec = float64(s.TotalSentMsgs-r.prev.TotalSentMsgs) / dt
				rs.SentBytesPerSec = float64(s.TotalSentBytes-r.prev.TotalSentBytes) / dt
				rs.RecvMsgsPerSec = float64(s.TotalRecvMsgs-r.prev.TotalRecvMsgs) / dt
				rs.RecvBytesPerSec = float64(s.TotalRecvBytes-r.prev.TotalRecvBytes) / dt
			}
		}
		view.Ranks = append(view.Ranks, rs)
		view.Reporting++
		if r.final {
			view.Finals++
		}
		view.TotalSentMsgs += rs.SentMsgs
		view.TotalSentBytes += rs.SentBytes
		view.TotalRecvMsgs += rs.RecvMsgs
		view.TotalRecvBytes += rs.RecvBytes
	}
	view.Reconciled = view.Reporting > 0 && view.TotalSentMsgs == view.TotalRecvMsgs
	return view
}

// Snapshots returns the latest snapshot of every reporting rank, sorted by
// world rank. With every final report in, these are exactly the per-rank
// stats files a -stats run would have collected.
func (t *Telemetry) Snapshots() []perf.Snapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]perf.Snapshot, 0, len(t.reports))
	for _, r := range t.reports {
		out = append(out, r.snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].WorldRank < out[j].WorldRank })
	return out
}

// Handler returns the launcher's job-telemetry HTTP surface:
//
//	/metrics        Prometheus text exposition of the job view
//	/status         the JobView as JSON (per-rank table, ages, rates)
//	/debug/pprof/   net/http/pprof for the launcher process itself
func (t *Telemetry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		t.WriteMetrics(w)
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(t.View()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	perf.PprofMux(mux)
	return mux
}

// WriteMetrics renders the job view in the Prometheus text exposition
// format: job-wide totals plus per-rank series labeled by rank, component,
// and host.
func (t *Telemetry) WriteMetrics(w io.Writer) {
	view := t.View()
	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	gauge("mph_job_ranks_expected", "World size of the running job.", view.WorldSize)
	gauge("mph_job_ranks_reporting", "Ranks that have pushed at least one telemetry report.", view.Reporting)
	gauge("mph_job_ranks_final", "Ranks whose final (shutdown) report has arrived.", view.Finals)
	counter := func(name, help string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
	}
	counter("mph_job_sent_messages_total", "Messages sent, summed over reporting ranks.")
	fmt.Fprintf(w, "mph_job_sent_messages_total %d\n", view.TotalSentMsgs)
	counter("mph_job_recv_messages_total", "Messages received, summed over reporting ranks.")
	fmt.Fprintf(w, "mph_job_recv_messages_total %d\n", view.TotalRecvMsgs)
	counter("mph_job_sent_bytes_total", "Payload bytes sent, summed over reporting ranks.")
	fmt.Fprintf(w, "mph_job_sent_bytes_total %d\n", view.TotalSentBytes)
	counter("mph_job_recv_bytes_total", "Payload bytes received, summed over reporting ranks.")
	fmt.Fprintf(w, "mph_job_recv_bytes_total %d\n", view.TotalRecvBytes)

	if len(view.Ranks) == 0 {
		return
	}
	labels := func(rs RankStatus) string {
		return fmt.Sprintf("rank=%q,component=%q,host=%q",
			fmt.Sprint(rs.Rank), rs.Component, rs.Host)
	}
	counter("mph_rank_sent_messages_total", "Messages sent by one rank.")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_sent_messages_total{%s} %d\n", labels(rs), rs.SentMsgs)
	}
	counter("mph_rank_recv_messages_total", "Messages received by one rank.")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_recv_messages_total{%s} %d\n", labels(rs), rs.RecvMsgs)
	}
	counter("mph_rank_sent_bytes_total", "Payload bytes sent by one rank.")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_sent_bytes_total{%s} %d\n", labels(rs), rs.SentBytes)
	}
	counter("mph_rank_recv_bytes_total", "Payload bytes received by one rank.")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_recv_bytes_total{%s} %d\n", labels(rs), rs.RecvBytes)
	}
	counter("mph_rank_coll_seconds_total", "Cumulative wall time one rank spent inside collectives.")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_coll_seconds_total{%s} %g\n", labels(rs), float64(rs.CollNanos)/1e9)
	}
	fmt.Fprintf(w, "# HELP mph_rank_last_report_age_seconds Seconds since the rank's latest report, launcher clock.\n# TYPE mph_rank_last_report_age_seconds gauge\n")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_last_report_age_seconds{%s} %g\n", labels(rs), float64(rs.LastReportAgeMS)/1e3)
	}
	fmt.Fprintf(w, "# HELP mph_rank_clock_offset_seconds Estimated launcher-clock minus rank-clock offset.\n# TYPE mph_rank_clock_offset_seconds gauge\n")
	for _, rs := range view.Ranks {
		fmt.Fprintf(w, "mph_rank_clock_offset_seconds{%s} %g\n", labels(rs), float64(rs.ClockOffsetNS)/1e9)
	}
	fmt.Fprintf(w, "# HELP mph_rank_stale One when the rank has missed its reporting window without a final report.\n# TYPE mph_rank_stale gauge\n")
	for _, rs := range view.Ranks {
		v := 0
		if rs.Stale {
			v = 1
		}
		fmt.Fprintf(w, "mph_rank_stale{%s} %d\n", labels(rs), v)
	}
}
