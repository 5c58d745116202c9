package main

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mph/internal/mpirun"
)

// fakeSpawner records what it is asked to do and hands out fakeHandles.
type fakeSpawner struct {
	spawnErr error
	delay    time.Duration
	blocks   []mpirun.Block
	handles  []*fakeHandle
}

func (*fakeSpawner) Name() string        { return "fake" }
func (*fakeSpawner) WantsRoutable() bool { return true }

func (s *fakeSpawner) Spawn(ctx context.Context, host string, block mpirun.Block) (mpirun.Handle, error) {
	time.Sleep(s.delay)
	s.blocks = append(s.blocks, block)
	if s.spawnErr != nil {
		return nil, s.spawnErr
	}
	h := &fakeHandle{exits: make(chan mpirun.RankExit, len(block.Procs))}
	s.handles = append(s.handles, h)
	return h, nil
}

// fakeProber is a fakeSpawner that also probes hosts.
type fakeProber struct {
	fakeSpawner
	probed []string
}

func (p *fakeProber) ProbeHost(ctx context.Context, host string) error {
	p.probed = append(p.probed, host)
	if host == "down" {
		return errors.New("unreachable")
	}
	return nil
}

type fakeHandle struct {
	mu     sync.Mutex
	exits  chan mpirun.RankExit
	kills  []int
	waited bool
}

func (h *fakeHandle) Exits() <-chan mpirun.RankExit { return h.exits }

func (h *fakeHandle) Kill(rank int) {
	h.mu.Lock()
	h.kills = append(h.kills, rank)
	h.mu.Unlock()
}

func (h *fakeHandle) Wait() {
	h.mu.Lock()
	h.waited = true
	h.mu.Unlock()
}

func TestTimingSpawnerForwardsExitsAndKills(t *testing.T) {
	inner := &fakeSpawner{delay: 2 * time.Millisecond}
	rec := &launchRecorder{}
	sp := wrapSpawner(inner, rec)
	if sp.Name() != "fake" || !sp.WantsRoutable() {
		t.Fatalf("Name/WantsRoutable not forwarded: %q %v", sp.Name(), sp.WantsRoutable())
	}
	if _, ok := sp.(mpirun.HostProber); ok {
		t.Fatal("wrapper of a non-prober must not be a HostProber")
	}
	block := mpirun.Block{Size: 3, Procs: []mpirun.Proc{{Rank: 0}, {Rank: 1}, {Rank: 2}}, Rendezvous: "r:1"}
	h, err := sp.Spawn(context.Background(), "nodeA", block)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inner.blocks[0], block) {
		t.Fatalf("block changed on the way through: %+v", inner.blocks[0])
	}
	fh := inner.handles[0]
	boom := errors.New("exit status 3")
	sent := []mpirun.RankExit{{Rank: 2, Err: nil}, {Rank: 0, Err: boom}, {Rank: 1, Err: nil}}
	for _, e := range sent {
		fh.exits <- e
	}
	close(fh.exits)
	var got []mpirun.RankExit
	for e := range h.Exits() {
		got = append(got, e)
	}
	if !reflect.DeepEqual(got, sent) {
		t.Fatalf("exits forwarded as %+v, want %+v", got, sent)
	}
	h.Kill(1)
	h.Kill(-1)
	h.Wait()
	if !reflect.DeepEqual(fh.kills, []int{1, -1}) || !fh.waited {
		t.Fatalf("kills %v waited %v, want [1 -1] true", fh.kills, fh.waited)
	}

	if len(rec.spawns) != 1 || rec.spawns[0].Host != "nodeA" || rec.spawns[0].Err != nil {
		t.Fatalf("spawn record %+v", rec.spawns)
	}
	if d := time.Duration(rec.spawns[0].End - rec.spawns[0].Start); d < inner.delay {
		t.Fatalf("spawn timed at %v, the call took at least %v", d, inner.delay)
	}
	if len(rec.exits) != len(sent) {
		t.Fatalf("%d exits recorded, want %d", len(rec.exits), len(sent))
	}
	for i, e := range rec.exits {
		if e.Rank != sent[i].Rank || e.At < rec.spawns[0].End {
			t.Fatalf("exit record %d = %+v, want rank %d after the spawn", i, e, sent[i].Rank)
		}
	}
}

func TestTimingSpawnerTimesFailedSpawn(t *testing.T) {
	boom := errors.New("no such host")
	inner := &fakeSpawner{spawnErr: boom, delay: 2 * time.Millisecond}
	rec := &launchRecorder{}
	h, err := wrapSpawner(inner, rec).Spawn(context.Background(), "nodeB", mpirun.Block{})
	if h != nil || err != boom {
		t.Fatalf("Spawn = %v, %v; want nil, the inner error unchanged", h, err)
	}
	if len(rec.spawns) != 1 {
		t.Fatalf("failed spawn not recorded: %+v", rec.spawns)
	}
	c := rec.spawns[0]
	if c.Host != "nodeB" || c.Err != boom || time.Duration(c.End-c.Start) < inner.delay {
		t.Fatalf("failed spawn recorded as %+v", c)
	}
}

func TestTimingProberTimesProbes(t *testing.T) {
	inner := &fakeProber{}
	rec := &launchRecorder{}
	p, ok := wrapSpawner(inner, rec).(mpirun.HostProber)
	if !ok {
		t.Fatal("wrapper of a prober must be a HostProber")
	}
	if err := p.ProbeHost(context.Background(), "nodeA"); err != nil {
		t.Fatal(err)
	}
	if err := p.ProbeHost(context.Background(), "down"); err == nil || err.Error() != "unreachable" {
		t.Fatalf("probe error not forwarded: %v", err)
	}
	hosts := []string{rec.probes[0].Host, rec.probes[1].Host}
	sort.Strings(hosts)
	if !reflect.DeepEqual(hosts, []string{"down", "nodeA"}) || !reflect.DeepEqual(inner.probed, []string{"nodeA", "down"}) {
		t.Fatalf("probes recorded %v, forwarded %v", hosts, inner.probed)
	}
	if rec.probes[1].Err == nil || rec.probes[0].Err != nil {
		t.Fatalf("probe errors recorded as %v, %v", rec.probes[0].Err, rec.probes[1].Err)
	}
}

func TestCovered(t *testing.T) {
	within := interval{10, 100}
	ivs := []interval{{0, 20}, {15, 30}, {50, 60}, {55, 200}}
	// Clipped to [10,20] [15,30] [50,60] [55,100]: the union is 20 + 50.
	if got := covered(within, ivs); got != 70 {
		t.Fatalf("covered = %d, want 70", got)
	}
}

func TestTailOf(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i)
	}
	info := tailOf(xs)
	if info.Value != 30 || info.Beyond != 10 || info.Percentile != 75 {
		t.Fatalf("tailOf = %+v, want 30 with 10 beyond at p75", info)
	}
}
