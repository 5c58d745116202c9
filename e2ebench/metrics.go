package main

import (
	"sort"
)

// tailSamples is how many jobs job_s_tail keeps beyond it.
const tailSamples = 10

// tailInfo says which order statistic job_s_tail is.
type tailInfo struct {
	Value      float64 `json:"value_s"`
	Percentile float64 `json:"percentile"`
	Jobs       int     `json:"jobs"`
	Beyond     int     `json:"beyond"`
}

// jobE2E is one job's end-to-end figures. The times are wall-clock.
type jobE2E struct {
	jobS     float64 // Launch call to return
	setupS   float64 // Launch call to the last model rank's Config.Init mark
	periodsS float64 // last model Init mark to the coupler root's RunCoupled return
	cpuS     float64 // launcher CPU during Launch plus every rank's own CPU
	rssMB    float64 // max over ranks of VmHWM at exit
	steal    float64 // share of the machine's CPU time the hypervisor took during Launch
}

func jobEndToEnd(j *jobResult) jobE2E {
	var lastInit, rootDone, cpu, hwm int64
	for _, r := range j.reports {
		lastInit = max(lastInit, r.Marks.LinksDone)
		if r.Diag != nil {
			rootDone = r.Marks.RunDone
		}
		cpu += r.CPUNanos
		hwm = max(hwm, r.VmHWMKiB)
	}
	return jobE2E{
		jobS:     seconds(j.launch.End - j.launch.Start),
		setupS:   seconds(lastInit - j.launch.Start),
		periodsS: seconds(rootDone - lastInit),
		cpuS:     seconds(j.launchCPU + cpu),
		rssMB:    float64(hwm) / 1024,
		steal:    j.steal,
	}
}

// endToEndMetrics are the run's end-to-end metrics, medians over jobs. The
// gated times are net of hypervisor steal: each job's wall times are scaled
// by 1 − its steal share, which takes out the CPU time the machine's other
// tenants took from the job (see README.md, "Noise on a shared machine").
// wall holds the same medians as measured on the wall clock, and tail the
// tail of the wall-clock job time; both are reported beside the metrics.
func endToEndMetrics(jobs []*jobResult, w *workload) (gated, wall map[string]metric, tail tailInfo) {
	var job, setup, rate, jobWall, setupWall, rateWall, cpu, rss []float64
	for _, j := range jobs {
		e := jobEndToEnd(j)
		net := 1 - e.steal
		job = append(job, e.jobS*net)
		setup = append(setup, e.setupS*net)
		rate = append(rate, float64(w.periods)/(e.periodsS*net))
		jobWall = append(jobWall, e.jobS)
		setupWall = append(setupWall, e.setupS)
		rateWall = append(rateWall, float64(w.periods)/e.periodsS)
		cpu = append(cpu, e.cpuS)
		rss = append(rss, e.rssMB)
	}
	gated = map[string]metric{
		"job_s":                {median(job), "s"},
		"setup_s":              {median(setup), "s"},
		"couple_periods_per_s": {median(rate), "1/s"},
		"job_cpu_s":            {median(cpu), "s"},
		"rank_peak_rss_mb":     {median(rss), "MiB"},
	}
	wall = map[string]metric{
		"job_s_wall":                {median(jobWall), "s"},
		"setup_s_wall":              {median(setupWall), "s"},
		"couple_periods_per_s_wall": {median(rateWall), "1/s"},
	}
	return gated, wall, tailOf(jobWall)
}

// tailOf returns the highest order statistic of xs with tailSamples values
// beyond it, and which percentile that is. With too few values for that it
// returns the minimum.
func tailOf(xs []float64) tailInfo {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := max(len(s)-1-tailSamples, 0)
	return tailInfo{Value: s[i], Percentile: 100 * float64(i+1) / float64(len(s)), Jobs: len(s), Beyond: len(s) - 1 - i}
}

// layerMetrics are the traced run's per-layer metrics, each the median over
// jobs of a per-job figure.
func layerMetrics(jobs []*jobResult, w *workload) map[string]metric {
	units := map[string]string{}
	per := map[string][]float64{}
	put := func(name, unit string, v float64) {
		units[name] = unit
		per[name] = append(per[name], v)
	}
	names := componentNames()
	periods := float64(w.periods)
	for _, j := range jobs {
		rs := j.reports
		var spawn float64
		for _, c := range j.rec.spawns {
			spawn += seconds(c.End - c.Start)
		}
		var probe float64
		if len(j.rec.probes) > 0 {
			first, last := j.rec.probes[0].Start, j.rec.probes[0].End
			for _, c := range j.rec.probes {
				first, last = min(first, c.Start), max(last, c.End)
			}
			probe = seconds(last - first)
		}
		var lastEntry, lastInitDone, lastExit, lastLinks, rootDone int64
		var init, setup, collS, barrier, closeS, links []float64
		var frames, bytesOut, rts, rdata, shm, fallbacks, dials, beats uint64
		var tree, ring, hier, unexp, posted, splits, dups, joins uint64
		var umq int
		cpu := map[string]float64{}
		busy := map[string][]float64{}
		for _, r := range rs {
			m := r.Marks
			lastEntry = max(lastEntry, m.Entry)
			lastInitDone = max(lastInitDone, m.InitDone)
			lastExit = max(lastExit, m.Exit)
			init = append(init, seconds(m.InitDone-m.Entry))
			setup = append(setup, seconds(m.SetupDone-m.InitDone))
			barrier = append(barrier, seconds(m.BarrierDone-m.RunDone))
			closeS = append(closeS, seconds(m.CloseDone-m.BarrierDone))
			if m.LinksDone != 0 {
				lastLinks = max(lastLinks, m.LinksDone)
				links = append(links, seconds(m.LinksDone-m.SetupDone))
			}
			if r.Diag != nil {
				rootDone = m.RunDone
			}
			p := r.Perf
			collS = append(collS, seconds(p.CollNanos()))
			frames += p.Net.FramesOut
			bytesOut += p.Net.BytesOut
			rts += p.Net.RTSOut
			rdata += p.Net.RDataOut
			shm += p.Net.ShmRDataOut
			fallbacks += p.Net.ShmFallbacks
			dials += p.Net.Dials
			beats += p.Net.HeartbeatsOut
			for _, c := range p.Collectives {
				tree += c.Tree
				ring += c.Ring
				hier += c.Hier
			}
			unexp += p.Engine.MatchesUnexpected
			posted += p.Engine.MatchesPosted
			umq = max(umq, p.Engine.UMQHighWater)
			splits += p.CommSplits
			dups += p.CommDups
			joins += p.CommJoins
			cpu[r.Component] += seconds(r.CPUNanos)
			if wall := m.RunDone - m.SetupDone; wall > 0 {
				busy[r.Component] = append(busy[r.Component], float64(r.RunCPUNs)/float64(wall))
			}
		}
		put("mpirun.spawn_s", "s", spawn)
		put("mpirun.ranks_up_s", "s", seconds(lastEntry-j.launch.Start))
		put("mpirun.probe_s", "s", probe)
		put("mpirun.reap_s", "s", seconds(j.launch.End-lastExit))
		put("mpirun.cpu_s", "s", seconds(j.launchCPU))
		put("tcpnet.init_s", "s", median(init))
		put("tcpnet.init_s_max", "s", maxOf(init))
		put("tcpnet.book_wait_s", "s", seconds(lastInitDone-lastEntry))
		put("tcpnet.close_s", "s", maxOf(closeS))
		put("tcpnet.frames_per_period", "count", float64(frames)/periods)
		put("tcpnet.bytes_per_period", "B", float64(bytesOut)/periods)
		put("tcpnet.rdv_per_period", "count", float64(rts)/periods)
		put("tcpnet.shm_share", "ratio", ratio(shm, rdata))
		put("tcpnet.shm_fallbacks", "count", float64(fallbacks))
		put("tcpnet.dials", "count", float64(dials))
		put("tcpnet.heartbeats_out", "count", float64(beats))
		put("mpi.coll_s", "s", maxOf(collS))
		put("mpi.coll_calls.tree", "count", float64(tree))
		put("mpi.coll_calls.ring", "count", float64(ring))
		put("mpi.coll_calls.hier", "count", float64(hier))
		put("mpi.unexpected_ratio", "ratio", ratio(unexp, unexp+posted))
		put("mpi.umq_high_water", "count", float64(umq))
		put("mpi.barrier_s", "s", maxOf(barrier))
		put("core.setup_s", "s", median(setup))
		put("core.setup_s_max", "s", maxOf(setup))
		put("core.comm_splits", "count", float64(splits))
		put("core.comm_dups", "count", float64(dups))
		put("coupler.links_s", "s", maxOf(links))
		put("coupler.periods_s", "s", seconds(rootDone-lastLinks))
		put("coupler.comm_joins", "count", float64(joins))
		for _, c := range names {
			put("rank.cpu_s."+c, "s", cpu[c])
			put("rank.busy_share."+c, "ratio", mean(busy[c]))
		}
	}
	out := make(map[string]metric, len(per))
	for name, vs := range per {
		out[name] = metric{median(vs), units[name]}
	}
	return out
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median of xs (0 for none), averaging the middle pair of an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
