package mpirun

import (
	"context"
	"fmt"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestDedupEnv pins the duplicate-key rule the GOMAXPROCS injection relies
// on: the Go runtime honours the FIRST occurrence of a key, so dedupEnv
// must collapse duplicates to the last value while keeping positions.
func TestDedupEnv(t *testing.T) {
	got := dedupEnv([]string{"A=1", "B=2", "A=3", "C=4", "B=5"})
	want := []string{"A=3", "B=5", "C=4"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dedupEnv = %v, want %v", got, want)
	}
	// Non-KEY=VALUE entries pass through untouched.
	got = dedupEnv([]string{"weird", "A=1"})
	if !reflect.DeepEqual(got, []string{"weird", "A=1"}) {
		t.Errorf("dedupEnv mangled odd entries: %v", got)
	}
}

// TestSlotShareInjection covers the slot-aware GOMAXPROCS policy at the
// spec level: even splits, oversubscription floored at one, unknown hosts
// untouched.
func TestSlotShareInjection(t *testing.T) {
	entries := []Entry{{Nprocs: 6, Argv: []string{"w"}}}
	hosts := []HostSlot{{Name: "big", Slots: 8}, {Name: "small", Slots: 2}}
	// Block placement: ranks 0-3 exhaust big's... 8 slots hold ranks 0-5?
	// No: big has 8 slots, so all 6 ranks land on big. Use cyclic to spread.
	spec, err := NewLaunchSpec(entries, hosts, PlaceCyclic)
	if err != nil {
		t.Fatal(err)
	}
	perHost := map[string]int{}
	for _, p := range spec.Procs {
		perHost[p.Host]++
	}
	for _, p := range spec.Procs {
		want := fmt.Sprintf("GOMAXPROCS=%d", max(1, slotOf(hosts, p.Host)/perHost[p.Host]))
		found := false
		for _, kv := range p.Env {
			if kv == want {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d on %s env %v missing %s", p.Rank, p.Host, p.Env, want)
		}
	}

	// Oversubscription: 4 ranks on a single-slot host still get at least 1.
	over, err := NewLaunchSpec([]Entry{{Nprocs: 4, Argv: []string{"w"}}},
		[]HostSlot{{Name: "tiny", Slots: 1}}, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range over.Procs {
		if !contains(p.Env, "GOMAXPROCS=1") {
			t.Errorf("oversubscribed rank %d env %v, want GOMAXPROCS=1", p.Rank, p.Env)
		}
	}

	// No hostfile: nothing injected.
	plain, err := NewLaunchSpec([]Entry{{Nprocs: 2, Argv: []string{"w"}}}, nil, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plain.Procs {
		for _, kv := range p.Env {
			if strings.HasPrefix(kv, "GOMAXPROCS=") {
				t.Errorf("rank %d got %s without a hostfile", p.Rank, kv)
			}
		}
	}
}

// slotOf looks up a host's slot count.
func slotOf(hosts []HostSlot, name string) int {
	for _, h := range hosts {
		if h.Name == name {
			return h.Slots
		}
	}
	return 0
}

// contains reports whether the env slice holds the exact entry.
func contains(env []string, kv string) bool {
	for _, e := range env {
		if e == kv {
			return true
		}
	}
	return false
}

// TestSlotShareReachesChild runs the injected share end to end through a
// real spawn: the child must observe the slot share even though the
// inherited environment may already carry a GOMAXPROCS (Go keeps the first
// occurrence of a duplicated key — the bug dedupEnv exists for).
func TestSlotShareReachesChild(t *testing.T) {
	t.Setenv("GOMAXPROCS", "99") // the launcher's own value must lose
	spec, err := NewLaunchSpec(
		[]Entry{{Nprocs: 1, Argv: []string{"/bin/sh", "-c", `test "$GOMAXPROCS" = 2`}}},
		[]HostSlot{{Name: "nodeA", Slots: 2}}, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	block := Block{Procs: spec.Procs, Size: 1}
	h, err := NewLocalSpawner().Spawn(context.Background(), "", block)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := <-h.Exits()
	if !ok {
		t.Fatal("no exit delivered")
	}
	h.Wait()
	if e.Err != nil {
		t.Fatalf("child saw the wrong GOMAXPROCS: %v", e.Err)
	}
}

// TestRendezvousConcurrentRegistration pins the book fan-out rework: a rank
// that connects first but registers last must not serialize the exchange —
// the other ranks' registrations are read while it stalls, and everyone
// still gets the complete book.
func TestRendezvousConcurrentRegistration(t *testing.T) {
	const n = 4
	rv, err := NewRendezvous(n)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- rv.Serve(10 * time.Second) }()

	// The stall: connect immediately, say nothing yet. Under the old
	// sequential accept→read loop this blocked every later rank.
	stall, err := dial(rv.Advertised())
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()

	books := make(chan []Endpoint, n)
	errs := make(chan error, n)
	register := func(rank int) {
		book, err := registerBook(rv.Advertised(), rank, Endpoint{Addr: addrFor(rank)}, 10*time.Second)
		if err != nil {
			errs <- err
			return
		}
		books <- book
	}
	for r := 1; r < n; r++ {
		go register(r)
	}
	time.Sleep(300 * time.Millisecond) // the eager ranks' lines are in flight
	// Now the stalled connection finally registers rank 0.
	if _, err := fmt.Fprintf(stall, "{\"kind\":\"register\",\"rank\":0,\"addr\":%q}\n", addrFor(0)); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Read rank 0's reply on the stalled conn so its Write path completes.
		buf := make([]byte, 4096)
		stall.Read(buf)
		books <- nil // placeholder: rank 0's book arrived on the raw conn
	}()

	received := 0
	timeout := time.After(10 * time.Second)
	for received < n {
		select {
		case err := <-errs:
			t.Fatal(err)
		case book := <-books:
			if book != nil {
				for r := 0; r < n; r++ {
					if book[r].Addr != addrFor(r) {
						t.Fatalf("book[%d] = %q", r, book[r].Addr)
					}
				}
			}
			received++
		case <-timeout:
			t.Fatalf("exchange stalled: %d of %d books delivered", received, n)
		}
	}
	if err := <-serveErr; err != nil {
		t.Fatal(err)
	}
}

// TestAgentKillBackstop pins the safety net of the pipe carriers: an agent
// that takes the spawn request but never acts on a kill request is killed,
// process tree and all, agentKillBackstop after Kill, and the block's
// pending ranks fail with the lost session, named by host, instead of
// hanging the launcher.
func TestAgentKillBackstop(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	wedged := exec.Command("/bin/sh", "-c", "read req; sleep 60")
	block := Block{Size: 1, Procs: []Proc{{Rank: 0, Argv: []string{"/bin/true"}}}, Rendezvous: "127.0.0.1:1"}
	h, err := spawnAgent(wedged, "nodeA", block)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	h.Kill(-1)
	exits := collectExits(t, h, 1)
	if elapsed := time.Since(start); elapsed < agentKillBackstop || elapsed > agentKillBackstop+10*time.Second {
		t.Errorf("block ended %v after Kill, want just after the %v backstop", elapsed, agentKillBackstop)
	}
	if err := exits[0]; err == nil || !strings.Contains(err.Error(), "agent@nodeA: connection lost") {
		t.Errorf("rank 0 err %v, want agent@nodeA: connection lost", err)
	}
}
