#!/bin/sh
# Repository check suite: everything a change must pass before merging.
# The race pass targets internal/mpi because the matching engine is the
# concurrency-critical core; its stress tests are written to run under -race.
# The perf package gets an explicit vet (it is the observability layer every
# future perf PR reports through), and the tracer-overhead benchmark runs
# once as a smoke test that both tracer paths still execute. The chaos pass
# repeats the fault-injection tests under -race: failure paths are the most
# interleaving-sensitive code in the tree. lintdoc enforces doc comments on
# every exported identifier (golint's exported rule, in-tree). The collective
# bench smoke runs one tree and one ring Allgather iteration so both
# algorithm paths of the size-based selector stay executable. The rendezvous
# alloc guard runs the large-send benchmark with -benchmem and fails if the
# send path regrows a payload-sized copy (B/op must stay near one payload —
# the receiver's buffer — for 1 MiB messages). The P2 smoke runs one cell of
# the eager/rendezvous sweep so the mphbench TCP-pair harness stays
# executable. The multi-host smoke launches the climate example across two
# placement hosts through the exec backend (one agent per host serving the
# host-agent session on its stdio — the ssh path minus ssh) with stats on,
# so the remote-launch machinery stays exercised end to end without an sshd. The telemetry smoke reruns that job with live
# reporting on and scrapes the launcher's Prometheus /metrics endpoint
# mid-run (scripts/httpget, so no curl dependency), then asserts the final
# summary reconciles sent == received job-wide. The shm smoke places all five ranks on ONE host with rendezvous forced
# (MPH_EAGER_THRESHOLD=0) and asserts the summary counts at least one
# intra-host payload frame AND still reconciles — proof the Unix-socket
# payload channel engaged under a real exec-backend launch and lost nothing.
# The mpirun race step covers the rank↔launcher control session: rendezvous,
# clock sync, telemetry reports, the abort relay and the launcher lease.
# The daemon smoke starts a real mphd and launches the climate job through it
# (-backend daemon), proving the same session works over TCP outside the unit
# tests; the L1 smoke keeps the launch-latency harness executable.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go vet ./internal/mpi/perf
go run ./scripts/lintdoc .
go build ./...
go test ./...
go test -race ./internal/mpi/...
go test -run 'Fault|Chaos' -race -count=2 ./internal/mpi/...
go test -run 'Telemetry|ClockOffset|Session|Rendezvous' -race ./internal/mpirun
# The benchmark module builds against this module's mpirun API; vetting and
# testing it here makes an API change that breaks the benchmark fail CI.
(cd e2ebench && go vet ./... && go test ./...)
go test -run=NONE -bench=BenchmarkTracerOverhead -benchtime=1x ./internal/mpi
go test -run=NONE -bench=BenchmarkAllgather -benchtime=1x ./internal/mpi

# Rendezvous alloc-regression guard: 1 MiB sends must not allocate beyond
# ~1.7 payloads per op (receiver buffer + slack); 2+ means a sender-side
# payload copy crept back in.
go test -run=NONE -bench=BenchmarkRendezvousSend -benchtime=100x -benchmem \
    ./internal/mpi/tcpnet | tee /tmp/rdvbench.$$
awk '/BenchmarkRendezvousSend/ { for (i = 1; i <= NF; i++) if ($(i+1) == "B/op") bop = $i }
     END { if (bop == "") { print "no B/op reported"; exit 1 }
           if (bop + 0 > 1.7 * 1048576) { print "rendezvous send allocates " bop " B/op, budget 1.7 MiB"; exit 1 } }' \
    /tmp/rdvbench.$$
rm -f /tmp/rdvbench.$$

# P2 smoke: one cell of the eager/rendezvous transport sweep.
go run ./cmd/mphbench -exp P2 -repeat 1 -transportout /tmp/bench_transport.$$.json
rm -f /tmp/bench_transport.$$.json

# Multi-host exec-backend smoke: 5 ranks on two 2-slot hosts (rank 4 wraps).
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT
go build -o "$smoke/mphrun" ./cmd/mphrun
go build -o "$smoke/climate" ./examples/climate
cat > "$smoke/job.cmd" <<EOF
1 $smoke/climate -component atmosphere -periods 2 -logdir $smoke
1 $smoke/climate -component ocean      -periods 2 -logdir $smoke
1 $smoke/climate -component land       -periods 2 -logdir $smoke
1 $smoke/climate -component ice        -periods 2 -logdir $smoke
1 $smoke/climate -component coupler    -periods 2 -logdir $smoke
EOF
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in
grep -q "period" "$smoke/coupler.log"

# Shm-channel smoke: all 5 ranks on one host, rendezvous forced so payloads
# are eligible for the intra-host channel.
MPH_EAGER_THRESHOLD=0 "$smoke/mphrun" -hosts nodeA:5 -backend exec -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/shm.out"
grep -q "totals reconcile" "$smoke/shm.out"
grep -Eq "shm channel: [1-9][0-9]* payload frame" "$smoke/shm.out"

# Daemon smoke: start a real mphd on a loopback port and run the climate job
# through it — the persistent-agent launch path (SpawnBlock gang spawn, event
# streaming, daemon-side reaping) end to end, with the stats summary still
# reconciling. The daemon is killed (and its death tolerated) on exit.
go build -o "$smoke/mphd" ./cmd/mphd
"$smoke/mphd" -listen 127.0.0.1:7641 > "$smoke/mphd.out" 2>&1 &
mphd_pid=$!
trap 'kill "$mphd_pid" 2>/dev/null; rm -rf "$smoke"' EXIT
"$smoke/mphrun" -hosts nodeA:3,nodeB:2 -backend daemon -daemon-addr 127.0.0.1:7641 \
    -placement block -stats \
    -cmdfile "$smoke/job.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/daemon.out"
grep -q "totals reconcile" "$smoke/daemon.out"

# L1 smoke: one repetition of the gang-launch latency sweep, so the
# launch-latency harness (worker mode, the agent subcommand, in-process
# daemon) stays executable.
go run ./cmd/mphbench -exp L1 -repeat 1 -launchout /tmp/bench_launch.$$.json
rm -f /tmp/bench_launch.$$.json

# Telemetry smoke: the same job, paced to ~2s of wall-clock (the unpaced
# grid finishes in milliseconds — too fast to scrape), with live reporting.
# The poller starts first (it retries until the launcher's -http server is
# up) and must see per-rank Prometheus series while the job runs, then the
# -stats summary must reconcile job-wide.
go build -o "$smoke/httpget" ./scripts/httpget
cat > "$smoke/telejob.cmd" <<EOF
1 $smoke/climate -component atmosphere -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component ocean      -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component land       -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component ice        -periods 20 -pace 100ms -logdir $smoke
1 $smoke/climate -component coupler    -periods 20 -pace 100ms -logdir $smoke
EOF
"$smoke/httpget" -timeout 60s -pattern mph_rank_sent_messages_total \
    http://127.0.0.1:7399/metrics > "$smoke/metrics.out" &
poller=$!
"$smoke/mphrun" -hosts nodeA:2,nodeB:2 -backend exec -placement block -stats \
    -stats-interval 100ms -http 127.0.0.1:7399 \
    -cmdfile "$smoke/telejob.cmd" -registration examples/climate/processors_map.in \
    > "$smoke/telemetry.out"
wait "$poller"
grep -q "mph_job_ranks_expected 5" "$smoke/metrics.out"
grep -q "totals reconcile" "$smoke/telemetry.out"
