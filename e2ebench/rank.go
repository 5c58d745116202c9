package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/grid"
	"mph/internal/model"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/mpi/tcpnet"
)

// registration is the climate example's registration file, which its ranks
// fall back to when the launcher forwards none.
const registration = `
BEGIN
atmosphere
ocean
land
ice
coupler
END
`

// envReportDir names the directory each rank writes its report to, as
// rank<N>.json.
const envReportDir = "E2EBENCH_REPORT_DIR"

// rankMarks are a rank's wall-clock marks in Unix nanoseconds (0 = not
// recorded). The end-to-end run records only LinksDone and RunDone, which
// its metrics need; the traced run records all of them.
type rankMarks struct {
	Entry       int64 `json:"entry,omitempty"`        // process entry (main)
	InitDone    int64 `json:"init_done,omitempty"`    // tcpnet.InitFromEnv returned
	SetupDone   int64 `json:"setup_done,omitempty"`   // core.SingleComponentSetup returned
	LinksDone   int64 `json:"links_done,omitempty"`   // coupler.Config.Init ran (model ranks)
	RunDone     int64 `json:"run_done,omitempty"`     // coupler.RunCoupled returned
	BarrierDone int64 `json:"barrier_done,omitempty"` // final world Barrier returned
	CloseDone   int64 `json:"close_done,omitempty"`   // Env.Close returned
	Exit        int64 `json:"exit,omitempty"`         // report written, process about to exit
}

// rankReport is everything one rank tells the launcher at exit.
type rankReport struct {
	Rank       int           `json:"rank"`
	Component  string        `json:"component"`
	Host       string        `json:"host,omitempty"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Marks      rankMarks     `json:"marks"`
	CPUNanos   int64         `json:"cpu_ns"`               // getrusage(RUSAGE_SELF) user+system at exit
	RunCPUNs   int64         `json:"run_cpu_ns,omitempty"` // CPU spent inside RunCoupled (traced run)
	VmHWMKiB   int64         `json:"vmhwm_kib"`            // peak resident set at exit
	Perf       perf.Snapshot `json:"perf"`
	// Diag is the coupled run's diagnostics, sent by the coupler root only.
	Diag *coupler.Diagnostics `json:"diag,omitempty"`
}

// rankParams are the flags every rank of a job gets.
type rankParams struct {
	component                     string
	nlat, nlon, periods, substeps int
	seed                          int64
	trace                         bool
	logDir                        string
}

// args renders p as the rank subcommand's argument list.
func (p rankParams) args() []string {
	return []string{"rank",
		"-component", p.component,
		"-nlat", strconv.Itoa(p.nlat), "-nlon", strconv.Itoa(p.nlon),
		"-periods", strconv.Itoa(p.periods), "-substeps", strconv.Itoa(p.substeps),
		"-seed", strconv.FormatInt(p.seed, 10), "-trace=" + strconv.FormatBool(p.trace), "-logdir", p.logDir}
}

// config is the coupled-run configuration of the job, with the seeded
// perturbation of every model's initial field as its Init hook. onInit runs
// first in the hook, when the links are built and the model constructed.
func (p rankParams) config(onInit func()) (coupler.Config, error) {
	g, err := grid.New(p.nlat, p.nlon)
	if err != nil {
		return coupler.Config{}, err
	}
	return coupler.Config{Grid: g, Periods: p.periods, SubSteps: p.substeps, Dt: 0.5,
		Names: coupler.DefaultNames(),
		Init: func(component string, m *model.SurfaceModel) error {
			if onInit != nil {
				onInit()
			}
			perturb(m.Field(), p.seed, component)
			return nil
		}}, nil
}

// perturb scales every owned cell of f by 1 + 0.01·u, u in [-1, 1) drawn
// from a hash of (seed, component, global cell). It depends on the global
// cell only, so the perturbed field is the same however it is decomposed,
// and a multiplicative change keeps non-negative fields non-negative.
func perturb(f *grid.Field, seed int64, component string) {
	h := fnv.New64a()
	h.Write([]byte(component))
	base := mix(uint64(seed) ^ h.Sum64())
	lo, hi := f.Decomp.Bands(f.P)
	nlon := f.Decomp.Grid.NLon
	idx := 0
	for lat := lo; lat < hi; lat++ {
		for lon := 0; lon < nlon; lon++ {
			u := float64(mix(base+uint64(lat*nlon+lon))>>11)/float64(1<<53)*2 - 1
			f.Data[idx] *= 1 + 0.01*u
			idx++
		}
	}
}

// mix is the splitmix64 finalizer: a bijective scramble of x.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rankMain is the benchmark's climate rank. It makes exactly the calls
// examples/climate's runDistributed makes, in the same order —
// tcpnet.InitFromEnv, core.SingleComponentSetup, coupler.RunCoupled, a
// world Barrier, Env.Close — and records wall-clock marks around them.
func rankMain(args []string) int {
	entry := now()
	var p rankParams
	fs := flag.NewFlagSet("rank", flag.ContinueOnError)
	fs.StringVar(&p.component, "component", "", "component name")
	fs.IntVar(&p.nlat, "nlat", 24, "latitude bands")
	fs.IntVar(&p.nlon, "nlon", 8, "longitude bands")
	fs.IntVar(&p.periods, "periods", 1, "coupling periods")
	fs.IntVar(&p.substeps, "substeps", 1, "model steps per period")
	fs.Int64Var(&p.seed, "seed", 0, "input seed")
	fs.BoolVar(&p.trace, "trace", false, "record every mark")
	fs.StringVar(&p.logDir, "logdir", ".", "component log directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runRank(p, entry); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench rank: %v\n", err)
		return 1
	}
	return 0
}

func runRank(p rankParams, entry int64) error {
	r := &rankReport{Component: p.component, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	mark := func(at *int64) {
		if p.trace {
			*at = now()
		}
	}
	if p.trace {
		r.Marks.Entry = entry
	}
	cfg, err := p.config(func() { r.Marks.LinksDone = now() })
	if err != nil {
		return err
	}

	env, regPath, err := tcpnet.InitFromEnv()
	mark(&r.Marks.InitDone)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			env.Close()
		}
	}()
	world := mpi.WorldComm(env)
	r.Rank = world.Rank()
	src := core.TextSource(registration)
	if regPath != "" {
		src = core.FileSource(regPath)
	}
	s, err := core.SingleComponentSetup(world, src, p.component, core.WithLogDir(p.logDir))
	mark(&r.Marks.SetupDone)
	if err != nil {
		return err
	}

	var cpu0 int64
	if p.trace {
		cpu0 = cpuNanos()
	}
	d, err := coupler.RunCoupled(s, cfg)
	r.Marks.RunDone = now()
	if err != nil {
		return err
	}
	if p.trace {
		r.RunCPUNs = cpuNanos() - cpu0
	}
	if s.CompName() == cfg.Names.Coupler && s.LocalProcID() == 0 {
		r.Diag = d
	}
	if err := world.Barrier(); err != nil {
		return err
	}
	mark(&r.Marks.BarrierDone)

	r.Perf = env.Perf().Snapshot()
	r.Host = r.Perf.Host
	closed = true
	if err := env.Close(); err != nil {
		return err
	}
	mark(&r.Marks.CloseDone)
	r.CPUNanos = cpuNanos()
	r.VmHWMKiB = vmHWMKiB()
	mark(&r.Marks.Exit)
	data, err := json.Marshal(r)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(os.Getenv(envReportDir), fmt.Sprintf("rank%d.json", r.Rank)), data, 0o644)
}

// cpuNanos is the calling process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// vmHWMKiB reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func vmHWMKiB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			return kib
		}
	}
	return 0
}

// readReports loads every rank report in dir, in rank order.
func readReports(dir string) ([]rankReport, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank*.json"))
	if err != nil {
		return nil, err
	}
	out := make([]rankReport, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r rankReport
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(a, c int) bool { return out[a].Rank < out[c].Rank })
	return out, nil
}

// cpuStat is the machine-wide CPU time from /proc/stat, in clock ticks.
type cpuStat struct{ steal, total uint64 }

// readCPUStat reads the aggregate "cpu" line of /proc/stat; zero where the
// file does not exist.
func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var st cpuStat
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			st.total += v
		}
		if i == 7 {
			st.steal = v
		}
	}
	return st
}

// stealSince is the share of CPU time stolen by the hypervisor since s0.
func (s cpuStat) stealSince(s0 cpuStat) float64 {
	if s.total <= s0.total {
		return 0
	}
	return float64(s.steal-s0.steal) / float64(s.total-s0.total)
}
