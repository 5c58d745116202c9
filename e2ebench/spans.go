package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// span is one timed layer of one job, written to the traced run's JSON
// Lines file. Parent is the ID of the enclosing span (0 for the job span);
// IDs are unique within a job.
type span struct {
	Job    int    `json:"job"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Rank   *int   `json:"rank,omitempty"`
	Host   string `json:"host,omitempty"`
}

// jobSpans builds the span tree of one traced job from the launcher-side
// recording and the ranks' marks:
//
//	job                              Launch call to return
//	├─ mpirun.probe   (per host)     HostProber.ProbeHost
//	├─ mpirun.spawn   (per host)     Spawner.Spawn
//	├─ rank           (per rank)     process entry to exit
//	│  ├─ tcpnet.init                tcpnet.InitFromEnv
//	│  ├─ core.setup                 core.SingleComponentSetup
//	│  ├─ coupler.run                coupler.RunCoupled
//	│  │  ├─ coupler.links           entry to the Config.Init mark (model ranks)
//	│  │  └─ coupler.periods         Config.Init mark to return (model ranks)
//	│  ├─ mpi.barrier                the final world Barrier
//	│  └─ tcpnet.close               Env.Close
//	├─ mpirun.exit    (per rank)     rank's exit mark to the launcher receiving the exit
//	└─ mpirun.reap                   last exit mark to Launch returning
func jobSpans(job int, launch interval, rec *launchRecorder, reports []rankReport) []span {
	var out []span
	add := func(parent int, name string, start, end int64, rank *int, host string) int {
		if start == 0 || end == 0 || end < start {
			return 0
		}
		id := len(out) + 1
		out = append(out, span{Job: job, ID: id, Parent: parent, Name: name,
			Start: start, End: end, Rank: rank, Host: host})
		return id
	}
	root := add(0, "job", launch.Start, launch.End, nil, "")
	for _, c := range rec.probes {
		add(root, "mpirun.probe", c.Start, c.End, nil, c.Host)
	}
	for _, c := range rec.spawns {
		add(root, "mpirun.spawn", c.Start, c.End, nil, c.Host)
	}
	exitMark := make(map[int]int64, len(reports))
	var lastExit int64
	for i := range reports {
		r := &reports[i]
		m := r.Marks
		rank := &r.Rank
		id := add(root, "rank", m.Entry, m.Exit, rank, r.Host)
		add(id, "tcpnet.init", m.Entry, m.InitDone, rank, r.Host)
		add(id, "core.setup", m.InitDone, m.SetupDone, rank, r.Host)
		run := add(id, "coupler.run", m.SetupDone, m.RunDone, rank, r.Host)
		if m.LinksDone != 0 {
			add(run, "coupler.links", m.SetupDone, m.LinksDone, rank, r.Host)
			add(run, "coupler.periods", m.LinksDone, m.RunDone, rank, r.Host)
		}
		add(id, "mpi.barrier", m.RunDone, m.BarrierDone, rank, r.Host)
		add(id, "tcpnet.close", m.BarrierDone, m.CloseDone, rank, r.Host)
		exitMark[r.Rank] = m.Exit
		lastExit = max(lastExit, m.Exit)
	}
	for _, e := range rec.exits {
		rank := e.Rank
		add(root, "mpirun.exit", exitMark[rank], e.At, &rank, "")
	}
	add(root, "mpirun.reap", lastExit, launch.End, nil, "")
	return out
}

// writeSpans writes spans to path as JSON Lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSpans loads a JSON Lines span file.
func readSpans(path string) ([]span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

// layerRow is one line of the per-layer table: per job, the number of
// spans of a layer, their summed wall time, and their summed self time (the
// part of each span no child span covers), each the median over jobs.
type layerRow struct {
	Name           string  `json:"name"`
	Spans          float64 `json:"spans"`
	WallS          float64 `json:"wall_s"`
	SelfS          float64 `json:"self_s"`
	firstSeenOrder int
}

// layerTable computes the per-layer self-time table from spans. A span's
// self time is its wall time minus the union of its children's intervals,
// so overlapping children (ranks running side by side) are not counted
// twice.
func layerTable(spans []span) []layerRow {
	byJob := make(map[int][]span)
	var jobs []int
	for _, s := range spans {
		if _, ok := byJob[s.Job]; !ok {
			jobs = append(jobs, s.Job)
		}
		byJob[s.Job] = append(byJob[s.Job], s)
	}
	type acc struct{ spans, wall, self []float64 }
	layers := make(map[string]*acc)
	order := make(map[string]int)
	for _, j := range jobs {
		js := byJob[j]
		children := make(map[int][]interval)
		for _, s := range js {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
		count := make(map[string]float64)
		wall := make(map[string]float64)
		self := make(map[string]float64)
		for _, s := range js {
			if _, ok := order[s.Name]; !ok {
				order[s.Name] = len(order)
			}
			d := s.End - s.Start
			count[s.Name]++
			wall[s.Name] += float64(d) / 1e9
			self[s.Name] += float64(d-covered(interval{s.Start, s.End}, children[s.ID])) / 1e9
		}
		for name := range order {
			a := layers[name]
			if a == nil {
				a = &acc{}
				layers[name] = a
			}
			a.spans = append(a.spans, count[name])
			a.wall = append(a.wall, wall[name])
			a.self = append(a.self, self[name])
		}
	}
	var rows []layerRow
	for name, a := range layers {
		rows = append(rows, layerRow{Name: name, Spans: median(a.spans),
			WallS: median(a.wall), SelfS: median(a.self), firstSeenOrder: order[name]})
	}
	sort.Slice(rows, func(i, k int) bool { return rows[i].firstSeenOrder < rows[k].firstSeenOrder })
	return rows
}

// covered is the length of the union of ivs clipped to within.
func covered(within interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		iv.Start = max(iv.Start, within.Start)
		iv.End = min(iv.End, within.End)
		if iv.End > iv.Start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, k int) bool { return clipped[i].Start < clipped[k].Start })
	var total, end int64
	for _, iv := range clipped {
		if iv.Start > end {
			end = iv.Start
		}
		if iv.End > end {
			total += iv.End - end
			end = iv.End
		}
	}
	return total
}

// printLayerTable writes the per-layer table.
func printLayerTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-18s %10s %12s %12s   (median per job)\n", "layer", "spans", "wall_s", "self_s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-18s %10.0f %12.6f %12.6f\n", r.Name, r.Spans, r.WallS, r.SelfS)
	}
}
