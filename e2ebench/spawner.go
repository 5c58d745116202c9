package main

import (
	"context"
	"sync"
	"time"

	"mph/internal/mpirun"
)

// interval is one timed call: wall-clock start and end in Unix nanoseconds.
type interval struct {
	Start, End int64
}

// hostCall is one timed Spawn or ProbeHost call on a placement host.
type hostCall struct {
	Host string
	interval
	Err error
}

// exitEvent is one rank exit as the launcher saw it: when the wrapped
// handle delivered it.
type exitEvent struct {
	Rank int
	At   int64
}

// launchRecorder collects the launcher-side timings of one job. The timing
// spawner writes it from the launcher's goroutines; read it only after
// mpirun.Launch has returned.
type launchRecorder struct {
	mu     sync.Mutex
	spawns []hostCall
	probes []hostCall
	exits  []exitEvent
}

func (r *launchRecorder) addSpawn(c hostCall) {
	r.mu.Lock()
	r.spawns = append(r.spawns, c)
	r.mu.Unlock()
}

func (r *launchRecorder) addProbe(c hostCall) {
	r.mu.Lock()
	r.probes = append(r.probes, c)
	r.mu.Unlock()
}

func (r *launchRecorder) addExit(e exitEvent) {
	r.mu.Lock()
	r.exits = append(r.exits, e)
	r.mu.Unlock()
}

// now is the wall clock the launcher side and every rank share: all
// processes of a job run on one machine, so Unix nanoseconds compare
// across them.
func now() int64 { return time.Now().UnixNano() }

// timingSpawner wraps a Spawner and times every Spawn call; everything
// else is forwarded unchanged.
type timingSpawner struct {
	inner mpirun.Spawner
	rec   *launchRecorder
}

// timingProber is a timingSpawner whose inner spawner also probes hosts.
// It is a separate type because Launch probes only when the spawner it is
// given implements mpirun.HostProber.
type timingProber struct {
	*timingSpawner
	prober mpirun.HostProber
}

// wrapSpawner returns sp with its Spawn (and ProbeHost, if sp has one)
// calls and its handles' exit deliveries recorded in rec.
func wrapSpawner(sp mpirun.Spawner, rec *launchRecorder) mpirun.Spawner {
	t := &timingSpawner{inner: sp, rec: rec}
	if p, ok := sp.(mpirun.HostProber); ok {
		return &timingProber{timingSpawner: t, prober: p}
	}
	return t
}

func (s *timingSpawner) Name() string        { return s.inner.Name() }
func (s *timingSpawner) WantsRoutable() bool { return s.inner.WantsRoutable() }

func (s *timingSpawner) Spawn(ctx context.Context, host string, block mpirun.Block) (mpirun.Handle, error) {
	start := now()
	h, err := s.inner.Spawn(ctx, host, block)
	s.rec.addSpawn(hostCall{Host: host, interval: interval{start, now()}, Err: err})
	if err != nil {
		return nil, err
	}
	return newTimingHandle(h, s.rec), nil
}

func (p *timingProber) ProbeHost(ctx context.Context, host string) error {
	start := now()
	err := p.prober.ProbeHost(ctx, host)
	p.rec.addProbe(hostCall{Host: host, interval: interval{start, now()}, Err: err})
	return err
}

// timingHandle forwards a Handle's exits, stamping each with the time the
// launcher side received it, and forwards kills and waits unchanged.
type timingHandle struct {
	inner mpirun.Handle
	rec   *launchRecorder
	exits chan mpirun.RankExit
}

func newTimingHandle(h mpirun.Handle, rec *launchRecorder) *timingHandle {
	t := &timingHandle{inner: h, rec: rec, exits: make(chan mpirun.RankExit)}
	go func() {
		defer close(t.exits)
		for e := range h.Exits() {
			t.rec.addExit(exitEvent{Rank: e.Rank, At: now()})
			t.exits <- e
		}
	}()
	return t
}

func (h *timingHandle) Exits() <-chan mpirun.RankExit { return h.exits }

func (h *timingHandle) Kill(rank int) { h.inner.Kill(rank) }

func (h *timingHandle) Wait() { h.inner.Wait() }
