// Command e2ebench is the repository's end-to-end job benchmark. It runs
// real coupled climate jobs, one at a time, through mpirun.Launch — the call
// mphrun makes — with every rank a real OS process over tcpnet, and splits
// each job's time by layer: spawner, rendezvous and transport, MPH
// handshake, coupler. See README.md in this directory for the workloads and
// every metric.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash e2ebench/run.sh --workload climate-eager --seed 1 --seconds 30 --trace 0
//	bash e2ebench/run.sh --workload launch-churn --seed 1 --seconds 30 --trace 1
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 30 --trace 0
//	.bench_build/e2ebench/bin/e2ebench selftime .bench_build/e2ebench/spans/launch-churn-seed1.jsonl
//
// Each workload's result is one JSON object on a line of standard output,
// printed last; a human-readable summary, the stamp and the per-layer
// table go to standard error. The exit status is 1 when any job fails its
// correctness gate.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"mph/internal/coupler"
	"mph/internal/mpirun"
)

// workload is one benchmark job shape.
type workload struct {
	name string
	// layout is the rank count of atmosphere, ocean, land, ice and coupler.
	layout                        [5]int
	nlat, nlon, periods, substeps int
	// hosts, when set, places the ranks on these fictitious hosts through an
	// in-process mphd; otherwise every rank is a local child of the launcher process.
	hosts     string
	placement mpirun.Placement
}

var workloads = []workload{
	{name: "climate-eager", layout: [5]int{3, 2, 2, 1, 2},
		nlat: 128, nlon: 64, periods: 50, substeps: 4},
	{name: "climate-bulk-2host", layout: [5]int{3, 2, 2, 1, 2},
		nlat: 256, nlon: 128, periods: 20, substeps: 4,
		hosts: "nodeA:5,nodeB:5", placement: mpirun.PlaceCyclic},
	{name: "launch-churn", layout: [5]int{4, 3, 3, 2, 4},
		nlat: 24, nlon: 8, periods: 1, substeps: 1},
}

// Job limits: a job that wires or finishes slower than this has hung.
const (
	jobTimeout        = 60 * time.Second
	rendezvousTimeout = 30 * time.Second
	abortGrace        = 2 * time.Second
)

// outDir holds everything a run writes, relative to the checkout root.
const outDir = ".bench_build/e2ebench"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "rank":
			os.Exit(rankMain(os.Args[2:]))
		case "selftime":
			os.Exit(selftimeMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// selftimeMain prints the per-layer table of a traced run's span file.
func selftimeMain(args []string) int {
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench selftime SPANS.jsonl")
		return 2
	}
	spans, err := readSpans(args[0])
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	printLayerTable(os.Stdout, layerTable(spans))
	return 0
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: climate-eager, climate-bulk-2host, launch-churn, or all of them in turn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "how long to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var ws []*workload
	for i := range workloads {
		if *name == "all" || workloads[i].name == *name {
			ws = append(ws, &workloads[i])
		}
	}
	if len(ws) == 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "e2ebench: need -workload (one of %s, or all), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	status := 0
	for _, w := range ws {
		if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
			status = 1
		}
	}
	return status
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// jobResult is one launched job as the launcher side saw it.
type jobResult struct {
	launch    interval // the Launch call
	launchCPU int64    // launcher CPU during Launch, including an in-process mphd
	rec       *launchRecorder
	reports   []rankReport
	err       error   // launch failure or failed correctness check
	steal     float64 // share of the machine's CPU time the hypervisor took during Launch
}

// bench is one run's fixed state: the workload, its launch spec and
// everything the gate compares against.
type bench struct {
	w         *workload
	params    rankParams
	spec      mpirun.LaunchSpec
	spawner   mpirun.Spawner
	ref       *coupler.Diagnostics
	size      int
	rankGMP   string
	reportDir string
	closeAll  func()
}

func newBench(w *workload, seed int64, trace bool) (*bench, error) {
	for _, d := range []string{"tmp", "logs", "results", "spans"} {
		if err := os.MkdirAll(filepath.Join(outDir, d), 0o755); err != nil {
			return nil, err
		}
	}
	// Temporary files of every process — the tcpnet intra-host channel's
	// Unix sockets among them — go inside the checkout. The path stays
	// relative (every rank shares the launcher's working directory) so the
	// socket paths stay short whatever the checkout's location.
	if err := os.Setenv("TMPDIR", filepath.Join(outDir, "tmp")); err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	b := &bench{w: w, reportDir: filepath.Join(outDir, "reports"), closeAll: func() {}}
	b.params = rankParams{nlat: w.nlat, nlon: w.nlon, periods: w.periods, substeps: w.substeps,
		seed: seed, trace: trace, logDir: filepath.Join(outDir, "logs")}

	names := componentNames()
	var entries []mpirun.Entry
	for i, n := range w.layout {
		p := b.params
		p.component = names[i]
		entries = append(entries, mpirun.Entry{Nprocs: n, Argv: append([]string{self}, p.args()...)})
		b.size += n
	}
	var hosts []mpirun.HostSlot
	b.spawner = mpirun.NewLocalSpawner()
	b.rankGMP = "inherited from the launcher (local spawner, no slot-share injection)"
	if w.hosts != "" {
		if hosts, err = mpirun.ParseHostList(w.hosts); err != nil {
			return nil, err
		}
		d, err := mpirun.NewDaemon("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		served := make(chan struct{})
		go func() { d.Serve(); close(served) }()
		b.closeAll = func() { d.Close(); <-served }
		b.spawner = mpirun.NewDaemonSpawner(d.Addr(), 0)
		b.rankGMP = "slot share injected by mpirun.NewLaunchSpec (host slots / ranks on host)"
	}
	spec, err := mpirun.NewLaunchSpec(entries, hosts, w.placement)
	if err != nil {
		b.closeAll()
		return nil, err
	}
	spec.Timeout = rendezvousTimeout
	spec.Grace = abortGrace
	spec.Quiet = true
	spec.ExtraEnv = []string{envReportDir + "=" + b.reportDir}
	b.spec = *spec

	b.ref, err = referenceDiag(w.layout, b.params)
	if err != nil {
		b.closeAll()
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return b, nil
}

// runJob launches one job, collects its rank reports and applies the gate.
func (b *bench) runJob() *jobResult {
	j := &jobResult{rec: &launchRecorder{}}
	// Reports travel as files: a local rank's last stdout lines can be
	// lost when the launcher reaps it before its relay drained the pipe.
	if err := os.RemoveAll(b.reportDir); err != nil {
		j.err = err
		return j
	}
	if err := os.MkdirAll(b.reportDir, 0o755); err != nil {
		j.err = err
		return j
	}
	spec := b.spec
	spec.Spawner = wrapSpawner(b.spawner, j.rec)
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()

	stat0 := readCPUStat()
	cpu0 := cpuNanos()
	j.launch.Start = now()
	err := mpirun.Launch(ctx, &spec)
	j.launch.End = now()
	j.launchCPU = cpuNanos() - cpu0
	j.steal = readCPUStat().stealSince(stat0)

	if err == nil {
		j.reports, err = readReports(b.reportDir)
	}
	if err == nil {
		err = checkJob(j.reports, b.size, b.w.nlat*b.w.nlon, b.ref)
	}
	j.err = err
	return j
}

func run(w *workload, seed int64, dur time.Duration, trace bool) error {
	b, err := newBench(w, seed, trace)
	if err != nil {
		return err
	}
	defer b.closeAll()

	// One unmeasured job warms the page cache and the spawn path.
	if j := b.runJob(); j.err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: job failed: %v\n", j.err)
		return printResult(w, nil, 1, 1, trace, b, nil)
	}
	var jobs []*jobResult
	failed := 0
	start := time.Now()
	for time.Since(start) < dur {
		j := b.runJob()
		if j.err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "e2ebench: job failed: %v\n", j.err)
			break
		}
		jobs = append(jobs, j)
	}
	var table []layerRow
	if trace {
		// The table is computed from the written file, so anyone can
		// reproduce it with the selftime subcommand.
		path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
		var spans []span
		for i, j := range jobs {
			spans = append(spans, jobSpans(i+1, j.launch, j.rec, j.reports)...)
		}
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		if spans, err = readSpans(path); err != nil {
			return err
		}
		table = layerTable(spans)
		fmt.Fprintf(os.Stderr, "per-layer self time from %s:\n", path)
		printLayerTable(os.Stderr, table)
	}
	return printResult(w, jobs, len(jobs)+failed, failed, trace, b, table)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printResult computes the run's metrics, writes the stamped result file and
// prints the result line. It returns an error when any job failed, after
// the result line is out.
func printResult(w *workload, jobs []*jobResult, attempted, failed int, trace bool, b *bench, table []layerRow) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var e2e, wall map[string]metric
	var tail tailInfo
	if len(jobs) > 0 {
		e2e, wall, tail = endToEndMetrics(jobs, w)
		res.Metrics = e2e
		if trace {
			res.Metrics = layerMetrics(jobs, w)
		}
	}
	st := newStamp(b, jobs)
	fmt.Fprintf(os.Stderr, "stamp: commit %s, source %s, %s, nproc %d, launcher GOMAXPROCS %d, rank GOMAXPROCS %s (%s), %s\n",
		st.Commit, st.SourceSHA256[:12], st.GoVersion, st.NProc, st.LauncherGOMAXPROCS,
		st.RankGOMAXPROCS, st.RankGOMAXPROCSPolicy, st.Date)
	if trace {
		fmt.Fprintln(os.Stderr, "per-layer metrics:")
		printMetrics(res.Metrics)
		fmt.Fprintln(os.Stderr, "end-to-end metrics under tracing (their difference from a --trace 0 run is the tracing overhead):")
	} else {
		fmt.Fprintln(os.Stderr, "end-to-end metrics (times net of hypervisor steal):")
	}
	fmt.Fprintf(os.Stderr, "  %-28s %14.6g ratio (%d of %d jobs failed)\n", "failed_job_ratio",
		float64(failed)/float64(attempted), failed, attempted)
	if len(jobs) > 0 {
		printMetrics(e2e)
		var steal []float64
		for _, j := range jobs {
			steal = append(steal, j.steal)
		}
		fmt.Fprintf(os.Stderr, "as measured on the wall clock, with hypervisor steal at median %.1f%%, max %.1f%% of CPU time:\n",
			100*median(steal), 100*maxOf(steal))
		printMetrics(wall)
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g s (p%.1f of %d jobs, %d beyond it)\n", "job_s_tail",
			tail.Value, tail.Percentile, tail.Jobs, tail.Beyond)
	}

	file := struct {
		Workload string            `json:"workload"`
		Trace    bool              `json:"trace"`
		Stamp    stamp             `json:"stamp"`
		Result   result            `json:"result"`
		Tail     *tailInfo         `json:"job_s_tail,omitempty"`
		Layers   []layerRow        `json:"layers,omitempty"`
		Jobs     []map[string]any  `json:"jobs"`
		EndToEnd map[string]metric `json:"end_to_end,omitempty"`
		Wall     map[string]metric `json:"wall_clock,omitempty"`
	}{Workload: w.name, Trace: trace, Stamp: st, Result: res, Layers: table, EndToEnd: e2e, Wall: wall}
	if len(jobs) > 0 {
		file.Tail = &tail
	}
	for _, j := range jobs {
		e := jobEndToEnd(j)
		file.Jobs = append(file.Jobs, map[string]any{"job_s_wall": e.jobS, "setup_s_wall": e.setupS,
			"periods_s_wall": e.periodsS, "job_cpu_s": e.cpuS, "rank_peak_rss_mb": e.rssMB,
			"steal_share": e.steal})
	}
	trc := 0
	if trace {
		trc = 1
	}
	path := filepath.Join(outDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", w.name, b.params.seed, trc))
	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(&res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed > 0 {
		return fmt.Errorf("%d of %d jobs failed", failed, attempted)
	}
	return nil
}

// printMetrics writes metrics to standard error, one a line, by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// envCommit carries the checkout's commit from run.sh into the stamp.
const envCommit = "E2EBENCH_COMMIT"

// stamp identifies what produced a result.
type stamp struct {
	Commit               string `json:"commit"`
	SourceSHA256         string `json:"source_sha256"`
	GoVersion            string `json:"go_version"`
	NProc                int    `json:"nproc"`
	LauncherGOMAXPROCS   int    `json:"launcher_gomaxprocs"`
	RankGOMAXPROCS       string `json:"rank_gomaxprocs"`
	RankGOMAXPROCSPolicy string `json:"rank_gomaxprocs_policy"`
	Date                 string `json:"date"`
}

func newStamp(b *bench, jobs []*jobResult) stamp {
	st := stamp{Commit: os.Getenv(envCommit), SourceSHA256: sourceHash("."),
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), LauncherGOMAXPROCS: runtime.GOMAXPROCS(0),
		RankGOMAXPROCSPolicy: b.rankGMP, Date: time.Now().UTC().Format(time.RFC3339)}
	if st.Commit == "" {
		st.Commit = "unknown"
	}
	seen := map[int]bool{}
	var gmp []string
	for _, j := range jobs {
		for _, r := range j.reports {
			if !seen[r.GOMAXPROCS] {
				seen[r.GOMAXPROCS] = true
				gmp = append(gmp, fmt.Sprint(r.GOMAXPROCS))
			}
		}
	}
	st.RankGOMAXPROCS = strings.Join(gmp, ",")
	return st
}

// sourceHash fingerprints the Go sources under root, which identifies the
// code when the checkout carries no commit.
func sourceHash(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", path)
		io.Copy(h, f)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
