// Command mphbench regenerates the EXPERIMENTS.md sweep tables: for each
// experiment it runs the shared scenarios of internal/bench over a
// parameter grid and prints one table, mirroring what the evaluation
// section of the paper would report had it included quantitative results
// (the published paper is qualitative; see EXPERIMENTS.md).
//
// Usage:
//
//	mphbench [-exp E2,E4] [-repeat 5]
//
// Without -exp every experiment runs.
//
// The binary doubles as its own launch target for the L1 launch-latency and
// C1 collective sweeps: invoked as "mphbench agent" it is the per-host
// agent of the exec backend, and with MPH_BENCH_WORKER=1 in
// the environment it is a rank that joins the rendezvous, runs the C1 cell
// its arguments name (if any), and exits.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"mph/internal/bench"
	"mph/internal/mpi"
	"mph/internal/mpi/perf"
	"mph/internal/mpi/tcpnet"
	"mph/internal/mpirun"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agent" {
		mpirun.ServeStdio()
		return
	}
	if os.Getenv("MPH_BENCH_WORKER") == "1" {
		os.Exit(benchWorker())
	}
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (E1..E8, A1, A2, P1, P2, C1, L1) or \"all\"")
	repeat := flag.Int("repeat", 5, "repetitions per cell (minimum is reported)")
	perfOut := flag.String("perfout", "BENCH_perf.json", "output file for the P1 tracer-overhead baseline")
	collOut := flag.String("collout", "BENCH_coll.json", "output file for the C1 collective-crossover sweep")
	transportOut := flag.String("transportout", "BENCH_transport.json", "output file for the P2 eager/rendezvous sweep")
	launchOut := flag.String("launchout", "BENCH_launch.json", "output file for the L1 launch-latency sweep")
	flag.Parse()
	benchPerfPath = *perfOut
	benchCollPath = *collOut
	benchTransportPath = *transportOut
	benchLaunchPath = *launchOut

	want := map[string]bool{}
	if *expFlag == "all" {
		for _, e := range []string{"E1", "E2", "E3", "E4", "E5", "E6", "E8", "A1", "A2", "P1", "P2", "C1", "L1"} {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(e))] = true
		}
	}

	runners := []struct {
		id  string
		run func(repeat int) error
	}{
		{"E1", e1}, {"E2", e2}, {"E3", e3}, {"E4", e4}, {"E5", e5}, {"E6", e6}, {"E8", e8},
		{"A1", a1}, {"A2", a2}, {"P1", p1}, {"P2", p2}, {"C1", c1}, {"L1", l1},
	}
	for _, r := range runners {
		if !want[r.id] {
			continue
		}
		if err := r.run(*repeat); err != nil {
			fmt.Fprintf(os.Stderr, "mphbench: %s: %v\n", r.id, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

// timeIt returns the minimum wall time of repeat runs of fn.
func timeIt(repeat int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < repeat; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

func e1(repeat int) error {
	fmt.Println("E1: handshake across the five execution modes (8 ranks, 4 components)")
	fmt.Printf("%-14s %12s\n", "mode", "time")
	modes := []struct {
		name string
		run  func() error
	}{
		{"SCSE", func() error { return bench.HandshakeSCME(8, 1) }},
		{"SCME", func() error { return bench.HandshakeSCME(8, 4) }},
		{"MCSE", func() error { return bench.HandshakeMultiComp(8, 4, false) }},
		{"MCME-overlap", func() error { return bench.HandshakeMultiComp(8, 4, true) }},
		{"MIME", func() error { _, err := bench.EnsembleRound(4, 1, 1); return err }},
	}
	for _, m := range modes {
		d, err := timeIt(repeat, m.run)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %12v\n", m.name, d)
	}
	return nil
}

func e2(repeat int) error {
	fmt.Println("E2: SCME handshake scaling (registry bcast + split + layout exchange)")
	fmt.Printf("%-8s %-8s %12s\n", "ranks", "comps", "time")
	for _, ranks := range []int{8, 16, 32, 64, 128} {
		for _, comps := range []int{2, 4, 8, 16} {
			if comps > ranks {
				continue
			}
			d, err := timeIt(repeat, func() error { return bench.HandshakeSCME(ranks, comps) })
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %-8d %12v\n", ranks, comps, d)
		}
	}
	return nil
}

func e3(repeat int) error {
	fmt.Println("E3: single-split (disjoint) vs repeated-split (overlap) handshake, 16 ranks")
	fmt.Printf("%-8s %12s %12s %8s\n", "comps", "disjoint", "overlap", "ratio")
	for _, comps := range []int{2, 4, 8} {
		dj, err := timeIt(repeat, func() error { return bench.HandshakeMultiComp(16, comps, false) })
		if err != nil {
			return err
		}
		ov, err := timeIt(repeat, func() error { return bench.HandshakeMultiComp(16, comps, true) })
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12v %12v %8.2f\n", comps, dj, ov, float64(ov)/float64(dj))
	}
	return nil
}

func e4(repeat int) error {
	fmt.Println("E4: MPH_comm_join + M-to-N redistribution (10 rounds, 128x64 grid)")
	fmt.Printf("%-10s %12s %14s\n", "M->N", "time", "bandwidth")
	const nlat, nlon, rounds = 128, 64, 10
	bytes := float64(nlat * nlon * 8 * rounds)
	for _, mn := range [][2]int{{2, 2}, {4, 2}, {2, 4}, {4, 4}, {8, 4}} {
		d, err := timeIt(repeat, func() error {
			return bench.JoinTransfer(mn[0], mn[1], nlat, nlon, rounds)
		})
		if err != nil {
			return err
		}
		mbs := bytes / d.Seconds() / 1e6
		fmt.Printf("%d->%-7d %12v %11.1f MB/s\n", mn[0], mn[1], d, mbs)
	}
	return nil
}

func e5(repeat int) error {
	fmt.Println("E5: inter-component ping-pong by (name, local id), 100 round trips")
	fmt.Printf("%-10s %12s %14s\n", "payload", "time", "per round")
	const rounds = 100
	for _, size := range []int{64, 1 << 10, 16 << 10, 256 << 10, 1 << 20} {
		d, err := timeIt(repeat, func() error { return bench.PingPong(size, rounds) })
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %12v %14v\n", size, d, d/rounds)
	}
	return nil
}

func e6(repeat int) error {
	fmt.Println("E6: ensemble aggregate-and-steer cycles (4 rounds, 256 cells)")
	fmt.Printf("%-8s %12s %14s\n", "members", "time", "final spread")
	for _, members := range []int{2, 4, 8, 16, 32} {
		var spread float64
		d, err := timeIt(repeat, func() error {
			s, err := bench.EnsembleRound(members, 4, 256)
			spread = s
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12v %14.4f\n", members, d, spread)
	}
	return nil
}

func a1(repeat int) error {
	fmt.Println("A1 (ablation): row<->column transpose round trips (10 rounds)")
	fmt.Printf("%-8s %-10s %12s %14s\n", "ranks", "grid", "time", "bandwidth")
	const rounds = 10
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{32, 128} {
			bytes := float64(n * n * 8 * rounds * 2) // there and back
			d, err := timeIt(repeat, func() error { return bench.TransposeRoundTrip(p, n, n, rounds) })
			if err != nil {
				return err
			}
			fmt.Printf("%-8d %dx%-7d %12v %11.1f MB/s\n", p, n, n, d, bytes/d.Seconds()/1e6)
		}
	}
	return nil
}

func a2(repeat int) error {
	fmt.Println("A2 (ablation): k-field exchange, bundled vs per-field messages (4->4 ranks, 64x32, 10 rounds)")
	fmt.Printf("%-8s %12s %12s %8s\n", "k", "bundled", "per-field", "ratio")
	const m, n, nlat, nlon, rounds = 4, 4, 64, 32, 10
	for _, k := range []int{2, 4, 8, 16} {
		b, err := timeIt(repeat, func() error { return bench.BundleTransfer(m, n, k, nlat, nlon, rounds, true) })
		if err != nil {
			return err
		}
		pf, err := timeIt(repeat, func() error { return bench.BundleTransfer(m, n, k, nlat, nlon, rounds, false) })
		if err != nil {
			return err
		}
		fmt.Printf("%-8d %12v %12v %8.2f\n", k, b, pf, float64(pf)/float64(b))
	}
	return nil
}

// benchPerfPath is where p1 writes its JSON baseline (-perfout).
var benchPerfPath string

// p1 measures the event tracer's cost on the exact-match hot path — the
// same loop as BenchmarkEngineMatching/exact/pending=64 — with the tracer
// off (nil-check fast path), on with the default 1-in-N sampling, and on
// recording every event (MPH_TRACE_SAMPLE=1). The headline overhead is the
// sampled configuration, which is what a job gets by enabling tracing; the
// full-fidelity row documents what opting out of sampling costs. The
// baseline goes to BENCH_perf.json so later PRs can diff against it.
func p1(repeat int) error {
	fmt.Println("P1: tracer overhead on the exact-match path (64 pending, in-process)")
	const (
		pending = 64
		iters   = 500_000
	)
	measure := func(traced bool, sample string) (nsPerOp float64, err error) {
		if traced {
			old, had := os.LookupEnv(perf.EnvTraceSample)
			os.Setenv(perf.EnvTraceSample, sample)
			defer func() {
				if had {
					os.Setenv(perf.EnvTraceSample, old)
				} else {
					os.Unsetenv(perf.EnvTraceSample)
				}
			}()
		}
		d, err := timeIt(repeat, func() error {
			w, err := mpi.NewWorld(1)
			if err != nil {
				return err
			}
			defer w.Close()
			if traced {
				w.EnableTracing(1 << 16)
			}
			return w.Run(func(c *mpi.Comm) error {
				for i := 0; i < pending; i++ {
					if err := c.Send(0, 99, nil); err != nil {
						return err
					}
				}
				for i := 0; i < iters; i++ {
					if err := c.Send(0, 0, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(0, 0); err != nil {
						return err
					}
				}
				return nil
			})
		})
		if err != nil {
			return 0, err
		}
		return float64(d.Nanoseconds()) / iters, nil
	}
	// measureTelemetry runs the same hot loop while a background reporter
	// snapshots the rank's pvars every interval and pushes them over a
	// control session to a live telemetry aggregator — the exact work
	// mphrun -stats-interval adds to a job. The hot path itself is untouched
	// (snapshots are atomic reads on another goroutine), so the budget in
	// DESIGN.md is ≤5%.
	measureTelemetry := func(interval time.Duration) (nsPerOp float64, err error) {
		tele := mpirun.NewTelemetry(1, interval)
		d, err := timeIt(repeat, func() error {
			w, err := mpi.NewWorld(1)
			if err != nil {
				return err
			}
			defer w.Close()
			pv, err := w.Perf(0)
			if err != nil {
				return err
			}
			rv, err := mpirun.NewRendezvous(1)
			if err != nil {
				return err
			}
			defer rv.Close()
			rv.SetTelemetry(tele)
			go rv.Serve(5 * time.Second)
			client, err := mpirun.Register(rv.Advertised(), 0, mpirun.Endpoint{Addr: "bench"}, 5*time.Second)
			if err != nil {
				return err
			}
			defer client.Close()
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(interval)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
						client.Report(pv.Snapshot(), false)
					}
				}
			}()
			runErr := w.Run(func(c *mpi.Comm) error {
				for i := 0; i < pending; i++ {
					if err := c.Send(0, 99, nil); err != nil {
						return err
					}
				}
				for i := 0; i < iters; i++ {
					if err := c.Send(0, 0, nil); err != nil {
						return err
					}
					if _, _, err := c.Recv(0, 0); err != nil {
						return err
					}
				}
				return nil
			})
			close(stop)
			wg.Wait()
			if runErr != nil {
				return runErr
			}
			return client.Report(pv.Snapshot(), true)
		})
		if err != nil {
			return 0, err
		}
		return float64(d.Nanoseconds()) / iters, nil
	}

	off, err := measure(false, "")
	if err != nil {
		return err
	}
	on, err := measure(true, fmt.Sprint(perf.DefaultTraceSample))
	if err != nil {
		return err
	}
	onFull, err := measure(true, "1")
	if err != nil {
		return err
	}
	const teleInterval = 50 * time.Millisecond
	teleOn, err := measureTelemetry(teleInterval)
	if err != nil {
		return err
	}
	overhead := (on - off) / off * 100
	fullOverhead := (onFull - off) / off * 100
	teleOverhead := (teleOn - off) / off * 100
	fmt.Printf("%-22s %12s %10s\n", "tracer", "ns/op", "overhead")
	fmt.Printf("%-22s %12.1f %10s\n", "off", off, "-")
	fmt.Printf("%-22s %12.1f %9.1f%%\n", fmt.Sprintf("on (sample=%d)", perf.DefaultTraceSample), on, overhead)
	fmt.Printf("%-22s %12.1f %9.1f%%\n", "on (sample=1, full)", onFull, fullOverhead)
	fmt.Printf("%-22s %12.1f %9.1f%%\n", fmt.Sprintf("telemetry (%v)", teleInterval), teleOn, teleOverhead)

	baseline := struct {
		Experiment   string  `json:"experiment"`
		Pending      int     `json:"pending"`
		Iters        int     `json:"iters"`
		Repeat       int     `json:"repeat"`
		Sample       int     `json:"sample"`
		OffNsPerOp   float64 `json:"off_ns_per_op"`
		OnNsPerOp    float64 `json:"on_ns_per_op"`
		OnFullNsOp   float64 `json:"on_full_ns_per_op"`
		TeleNsPerOp  float64 `json:"telemetry_ns_per_op"`
		TeleMs       int64   `json:"telemetry_interval_ms"`
		OverheadPc   float64 `json:"tracer_on_overhead_pct"`
		FullOverhead float64 `json:"tracer_full_overhead_pct"`
		TeleOverhead float64 `json:"telemetry_on_overhead_pct"`
	}{"P1", pending, iters, repeat, perf.DefaultTraceSample, off, on, onFull,
		teleOn, teleInterval.Milliseconds(), overhead, fullOverhead, teleOverhead}
	return writeBench(benchPerfPath, "baseline", &baseline)
}

// benchTransportPath is where p2 writes its JSON sweep (-transportout).
var benchTransportPath string

// p2 sweeps one-directional message sizes across three transport cells: pure
// eager (MPH_EAGER_THRESHOLD=-1), rendezvous over loopback TCP
// (MPH_EAGER_THRESHOLD=0, MPH_SHM=off), and rendezvous over the intra-host
// channel (MPH_EAGER_THRESHOLD=0, MPH_SHM on — the in-process pair shares a
// hostname, so the channel engages exactly as it would under a single-host
// mphrun placement). The eager/rendezvous crossover motivates the 64 KiB
// default threshold; the tcp/shm column shows what the Unix-socket payload
// path buys over loopback TCP. The sweep goes to BENCH_transport.json.
func p2(repeat int) error {
	fmt.Println("P2: eager vs rendezvous(tcp) vs rendezvous(shm) send, 2 ranks, one host")
	sizes := []int{256, 4 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 8 << 20}

	// measure times `rounds` back-to-back sends of one size under the given
	// threshold and MPH_SHM setting, returning the per-message time. A fresh
	// 2-rank world per cell: both knobs are read at transport construction.
	measure := func(threshold, shm string, size int) (time.Duration, error) {
		for _, kv := range [][2]string{{tcpnet.EnvEagerThreshold, threshold}, {tcpnet.EnvShm, shm}} {
			name, val := kv[0], kv[1]
			old, had := os.LookupEnv(name)
			os.Setenv(name, val)
			defer func() {
				if had {
					os.Setenv(name, old)
				} else {
					os.Unsetenv(name)
				}
			}()
		}
		rounds := 64 << 20 / size
		if rounds > 512 {
			rounds = 512
		}
		if rounds < 4 {
			rounds = 4
		}
		payload := make([]byte, size)
		d, err := timeIt(repeat, func() error {
			return tcpPair(func(c *mpi.Comm) error {
				for i := 0; i < rounds; i++ {
					if err := c.Send(1, 2, payload); err != nil {
						return err
					}
				}
				return nil
			}, func(c *mpi.Comm) error {
				for i := 0; i < rounds; i++ {
					if _, _, err := c.Recv(0, 2); err != nil {
						return err
					}
				}
				return nil
			})
		})
		return d / time.Duration(rounds), err
	}

	type row struct {
		PayloadBytes int     `json:"payload_bytes"`
		EagerNsPerOp int64   `json:"eager_ns_per_op"`
		RdvNsPerOp   int64   `json:"rendezvous_ns_per_op"`
		ShmNsPerOp   int64   `json:"rendezvous_shm_ns_per_op"`
		EagerOverRdv float64 `json:"eager_over_rendezvous"`
		TCPOverShm   float64 `json:"tcp_over_shm"`
	}
	var rows []row
	fmt.Printf("%-10s %12s %12s %12s %8s %8s %14s\n",
		"payload", "eager", "rdv(tcp)", "rdv(shm)", "e/r", "tcp/shm", "shm bandwidth")
	for _, size := range sizes {
		eager, err := measure("-1", "off", size)
		if err != nil {
			return err
		}
		rdv, err := measure("0", "off", size)
		if err != nil {
			return err
		}
		shm, err := measure("0", "1", size)
		if err != nil {
			return err
		}
		ratio := float64(eager) / float64(rdv)
		shmRatio := float64(rdv) / float64(shm)
		mbs := float64(size) / shm.Seconds() / 1e6
		fmt.Printf("%-10d %12v %12v %12v %8.2f %8.2f %11.1f MB/s\n",
			size, eager, rdv, shm, ratio, shmRatio, mbs)
		rows = append(rows, row{size, eager.Nanoseconds(), rdv.Nanoseconds(), shm.Nanoseconds(), ratio, shmRatio})
	}

	sweep := struct {
		Experiment       string `json:"experiment"`
		Repeat           int    `json:"repeat"`
		DefaultThreshold int    `json:"default_threshold_bytes"`
		Rows             []row  `json:"rows"`
	}{"P2", repeat, tcpnet.DefaultEagerThreshold, rows}
	return writeBench(benchTransportPath, "sweep", &sweep)
}

// tcpPair boots a rendezvous server plus two TCP endpoints over loopback
// (goroutines standing in for OS processes; the wire path is identical) and
// runs fn0 on rank 0 and fn1 on rank 1.
func tcpPair(fn0, fn1 func(c *mpi.Comm) error) error {
	rv, err := mpirun.NewRendezvous(2)
	if err != nil {
		return err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(30 * time.Second) }()

	fns := []func(c *mpi.Comm) error{fn0, fn1}
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			env, err := tcpnet.Init(rank, 2, rv.Advertised())
			if err != nil {
				errs[rank] = err
				return
			}
			defer env.Close()
			c := mpi.WorldComm(env)
			if err := fns[rank](c); err != nil {
				errs[rank] = err
				return
			}
			errs[rank] = c.Barrier() // drain in-flight traffic before teardown
		}(r)
	}
	wg.Wait()
	if err := <-serveErr; err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// benchCollPath is where c1 writes its JSON sweep (-collout).
var benchCollPath string

// c1Ranks is the world size of every C1 cell.
const c1Ranks = 8

// c1Sizes is the C1 payload axis: per-rank block bytes for Allgather, the
// reduced vector's bytes for Allreduce.
var c1Sizes = []int{256, 1 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20}

// collOps are the collectives a C1 cell can time, keyed by the name the
// launcher passes to the worker.
var collOps = map[string]func(c *mpi.Comm, size int) error{
	"allgather": func(c *mpi.Comm, size int) error {
		_, err := c.Allgather(make([]byte, size))
		return err
	},
	"allreduce": func(c *mpi.Comm, size int) error {
		_, err := c.AllreduceFloats(make([]float64, size/8), mpi.OpSum)
		return err
	},
}

// collRow is one C1 payload size. Allreduce has a single algorithm, so its
// rows carry only the tree time.
type collRow struct {
	Op           string  `json:"op"`
	Ranks        int     `json:"ranks"`
	PayloadBytes int     `json:"payload_bytes"`
	TreeNsPerOp  int64   `json:"tree_ns_per_op"`
	RingNsPerOp  int64   `json:"ring_ns_per_op,omitempty"`
	TreeOverRing float64 `json:"tree_over_ring,omitempty"`
}

// collSweep is the BENCH_coll.json document.
type collSweep struct {
	Experiment       string    `json:"experiment"`
	Repeat           int       `json:"repeat"`
	GoVersion        string    `json:"go_version"`
	CPUs             int       `json:"cpus"`
	DefaultThreshold int       `json:"default_threshold_bytes"`
	Rows             []collRow `json:"rows"`
}

// c1 times Allgather (tree and ring, each pinned via
// MPH_COLL_RING_THRESHOLD) and Allreduce (tree, its only algorithm) over a
// payload sweep on 8 real tcpnet processes, one mpirun.Launch per cell on
// the local spawner. It prints the cells as the markdown table
// EXPERIMENTS.md carries and writes them to BENCH_coll.json. The ratio is
// tree/ring: above 1.0 the ring wins.
func c1(repeat int) error {
	fmt.Printf("C1: collective algorithms on %d tcpnet processes, one host\n", c1Ranks)
	self, err := os.Executable()
	if err != nil {
		return err
	}
	out, err := os.MkdirTemp("", "mphbench-c1-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(out)

	// cell launches one job that times op at size with the ring threshold
	// pinned, and returns rank 0's best per-operation time.
	cell := func(op, threshold string, size int) (time.Duration, error) {
		// Amortise per-call noise on small payloads without making the
		// megabyte cells crawl.
		rounds := min(max(1<<20/size, 2), 64)
		result := filepath.Join(out, fmt.Sprintf("%s-%s-%d", op, threshold, size))
		spec, err := mpirun.NewLaunchSpec([]mpirun.Entry{{Nprocs: c1Ranks, Argv: []string{self,
			op, strconv.Itoa(size), strconv.Itoa(rounds), strconv.Itoa(repeat), result}}}, nil, mpirun.PlaceBlock)
		if err != nil {
			return 0, err
		}
		spec.Spawner = mpirun.NewLocalSpawner()
		spec.Timeout = 120 * time.Second
		spec.Quiet = true
		spec.ExtraEnv = []string{"MPH_BENCH_WORKER=1", mpi.EnvCollRingThreshold + "=" + threshold}
		if err := mpirun.Launch(context.Background(), spec); err != nil {
			return 0, fmt.Errorf("%s %d B (threshold %s): %w", op, size, threshold, err)
		}
		raw, err := os.ReadFile(result)
		if err != nil {
			return 0, err
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
		return time.Duration(ns), err
	}

	var rows []collRow
	for _, size := range c1Sizes {
		// Tree and ring of one size run back to back so drift on the host
		// hits both columns alike.
		tree, err := cell("allgather", "-1", size)
		if err != nil {
			return err
		}
		ring, err := cell("allgather", "0", size)
		if err != nil {
			return err
		}
		rows = append(rows, collRow{"allgather", c1Ranks, size, tree.Nanoseconds(), ring.Nanoseconds(),
			float64(tree) / float64(ring)})
	}
	for _, size := range c1Sizes {
		tree, err := cell("allreduce", "-1", size)
		if err != nil {
			return err
		}
		rows = append(rows, collRow{Op: "allreduce", Ranks: c1Ranks, PayloadBytes: size, TreeNsPerOp: tree.Nanoseconds()})
	}
	fmt.Print(c1Table(rows))

	sweep := collSweep{"C1", repeat, runtime.Version(), runtime.NumCPU(), mpi.DefaultRingThreshold, rows}
	return writeBench(benchCollPath, "sweep", &sweep)
}

// c1Header is the header row of the C1 table in EXPERIMENTS.md.
const c1Header = "| payload | allgather tree µs | allgather ring µs | allgather t/r | allreduce tree µs |"

// c1Table renders the C1 rows as the markdown table EXPERIMENTS.md carries:
// one line per payload size, times in whole microseconds, ratio to two
// decimals. The drift test in main_test.go holds the document to it.
func c1Table(rows []collRow) string {
	var b strings.Builder
	b.WriteString(c1Header + "\n|---|---|---|---|---|\n")
	for _, size := range c1Sizes {
		cells := []string{payloadLabel(size), "", "", "", ""}
		for _, r := range rows {
			if r.PayloadBytes != size {
				continue
			}
			switch r.Op {
			case "allgather":
				cells[1], cells[2] = micros(r.TreeNsPerOp), micros(r.RingNsPerOp)
				cells[3] = fmt.Sprintf("%.2f", r.TreeOverRing)
			case "allreduce":
				cells[4] = micros(r.TreeNsPerOp)
			}
		}
		b.WriteString("| " + strings.Join(cells, " | ") + " |\n")
	}
	return b.String()
}

// micros formats nanoseconds as whole microseconds.
func micros(ns int64) string { return fmt.Sprintf("%.0f", float64(ns)/1e3) }

// payloadLabel names a byte count the way the EXPERIMENTS.md tables do.
func payloadLabel(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

// benchWorker is the rank body of the launched sweeps. With no arguments
// (L1) it joins the TCP world via the rendezvous and exits at once, so the
// measured time is launch overhead, not application work. With a C1 cell
// as arguments (op, payload bytes, rounds, repeat, result file) it times
// that collective and rank 0 writes the best per-operation nanoseconds to
// the result file.
func benchWorker() int {
	env, _, err := tcpnet.InitFromEnv()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer env.Close()
	if len(os.Args) > 1 {
		if err := collCell(mpi.WorldComm(env), os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "mphbench worker:", err)
			return 1
		}
	}
	return 0
}

// collCell runs one C1 cell on this rank: a warm-up call (which also dials
// the peers), then repeat timed runs of rounds back-to-back calls, each
// closed by a Barrier so the time covers the slowest rank.
func collCell(c *mpi.Comm, args []string) error {
	if len(args) != 5 {
		return fmt.Errorf("want op, size, rounds, repeat, result; got %q", args)
	}
	op, ok := collOps[args[0]]
	if !ok {
		return fmt.Errorf("unknown collective %q", args[0])
	}
	var nums [3]int
	for i := range nums {
		n, err := strconv.Atoi(args[1+i])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad cell parameter %q", args[1+i])
		}
		nums[i] = n
	}
	size, rounds, repeat := nums[0], nums[1], nums[2]
	if err := op(c, size); err != nil {
		return err
	}
	if err := c.Barrier(); err != nil {
		return err
	}
	best, err := timeIt(repeat, func() error {
		for i := 0; i < rounds; i++ {
			if err := op(c, size); err != nil {
				return err
			}
		}
		return c.Barrier()
	})
	if err != nil || c.Rank() != 0 {
		return err
	}
	return os.WriteFile(args[4], []byte(strconv.FormatInt(int64(best)/int64(rounds), 10)), 0o644)
}

// benchLaunchPath is where l1 writes its JSON sweep (-launchout).
var benchLaunchPath string

// l1Ranks is the L1 gang-size axis.
var l1Ranks = []int{1, 2, 4, 8, 16}

// launchRow is one L1 cell: the best launch time of one backend at one
// gang size.
type launchRow struct {
	Backend  string `json:"backend"`
	Ranks    int    `json:"ranks"`
	LaunchNs int64  `json:"launch_ns"`
}

// launchSweep is the BENCH_launch.json document.
type launchSweep struct {
	Experiment string      `json:"experiment"`
	Repeat     int         `json:"repeat"`
	Commit     string      `json:"commit"`
	GoVersion  string      `json:"go_version"`
	CPUs       int         `json:"cpus"`
	Rows       []launchRow `json:"rows"`
}

// l1 measures gang-launch latency — mpirun.Launch of n empty ranks through
// to every rank registered, run, and reaped — for each spawner on one host.
// The local backend forks each worker itself; the exec backend starts one
// agent process for the host block, which forks the workers; the daemon
// backend sends the same block session over a warm TCP connection to an
// mphd that is already running, so it starts no agent. The daemon here is
// in-process (the -daemon-addr override), which is the same session a
// deployed mphd serves. It prints the EXPERIMENTS.md table and writes the
// cells to BENCH_launch.json.
func l1(repeat int) error {
	fmt.Println("L1: gang-launch latency by backend (empty ranks, one host)")
	self, err := os.Executable()
	if err != nil {
		return err
	}
	d, err := mpirun.NewDaemon("127.0.0.1:0")
	if err != nil {
		return err
	}
	go d.Serve()
	defer d.Close()

	backends := []struct {
		name    string
		spawner mpirun.Spawner
	}{
		{"local", mpirun.NewLocalSpawner()},
		{"exec", mpirun.NewExecSpawner(self)},
		{"daemon", mpirun.NewDaemonSpawner(d.Addr(), 0)},
	}

	var rows []launchRow
	for _, ranks := range l1Ranks {
		for _, b := range backends {
			dur, err := timeIt(repeat, func() error {
				spec, err := mpirun.NewLaunchSpec(
					[]mpirun.Entry{{Nprocs: ranks, Argv: []string{self}}}, nil, mpirun.PlaceBlock)
				if err != nil {
					return err
				}
				spec.Spawner = b.spawner
				spec.Timeout = 60 * time.Second
				spec.Quiet = true
				spec.ExtraEnv = []string{"MPH_BENCH_WORKER=1"}
				return mpirun.Launch(context.Background(), spec)
			})
			if err != nil {
				return fmt.Errorf("%s backend, %d ranks: %w", b.name, ranks, err)
			}
			rows = append(rows, launchRow{b.name, ranks, dur.Nanoseconds()})
		}
	}
	fmt.Print(l1Table(rows))

	sweep := launchSweep{"L1", repeat, gitCommit(), runtime.Version(), runtime.NumCPU(), rows}
	return writeBench(benchLaunchPath, "sweep", &sweep)
}

// writeBench writes one BENCH_*.json document (what names it for the
// confirmation line: "sweep" or "baseline").
func writeBench(path, what string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s written to %s\n", what, path)
	return nil
}

// l1Header is the header row of the L1 table in EXPERIMENTS.md.
const l1Header = "| ranks | local | exec | daemon | exec/daemon |"

// l1Table renders the L1 rows as the markdown table EXPERIMENTS.md carries:
// one line per gang size, times in milliseconds to one decimal, the
// exec/daemon ratio to two. The drift test in main_test.go holds the
// document to it.
func l1Table(rows []launchRow) string {
	var b strings.Builder
	b.WriteString(l1Header + "\n|---|---|---|---|---|\n")
	for _, n := range l1Ranks {
		ns := map[string]int64{}
		for _, r := range rows {
			if r.Ranks == n {
				ns[r.Backend] = r.LaunchNs
			}
		}
		fmt.Fprintf(&b, "| %d | %s | %s | %s | %.2f |\n", n,
			millis(ns["local"]), millis(ns["exec"]), millis(ns["daemon"]),
			float64(ns["exec"])/float64(ns["daemon"]))
	}
	return b.String()
}

// millis formats nanoseconds as milliseconds to one decimal.
func millis(ns int64) string { return fmt.Sprintf("%.1f ms", float64(ns)/1e6) }

// gitCommit names the source a sweep measured: the HEAD commit, suffixed
// "+modified" when tracked files differ from it, or "unknown" outside a git
// work tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if exec.Command("git", "diff", "--quiet", "HEAD", "--").Run() != nil {
		commit += "+modified"
	}
	return commit
}

func e8(repeat int) error {
	fmt.Println("E8: coupled five-component climate system (10 ranks, 4 periods)")
	fmt.Printf("%-10s %12s %16s\n", "grid", "time", "cell-periods/s")
	for _, g := range [][2]int{{16, 8}, {32, 16}, {64, 32}, {128, 64}} {
		const periods = 4
		d, err := timeIt(repeat, func() error { return bench.CoupledClimate(g[0], g[1], periods) })
		if err != nil {
			return err
		}
		rate := float64(g[0]*g[1]*periods) / d.Seconds()
		fmt.Printf("%dx%-7d %12v %16.0f\n", g[0], g[1], d, rate)
	}
	return nil
}
