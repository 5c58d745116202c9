package mpirun

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseCmdfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.cmd")
	content := `
# a comment
3 ./atm -x   # trailing comment
2 host=node-b ./ocn
1 ./coupler
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, total, err := ParseCmdfile(path)
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(entries) != 3 {
		t.Fatalf("total %d, entries %d", total, len(entries))
	}
	if entries[0].Nprocs != 3 || entries[0].Argv[0] != "./atm" || entries[0].Argv[1] != "-x" || entries[0].Host != "" {
		t.Errorf("entry 0: %+v", entries[0])
	}
	if entries[1].Host != "node-b" || entries[1].Argv[0] != "./ocn" {
		t.Errorf("entry 1: %+v", entries[1])
	}
	if entries[2].Argv[0] != "./coupler" {
		t.Errorf("entry 2: %+v", entries[2])
	}
}

func TestParseCmdfileErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":      "# nothing\n",
		"bad count":  "x ./atm\n",
		"zero":       "0 ./atm\n",
		"negative":   "-2 ./atm\n",
		"no cmd":     "3\n",
		"empty pin":  "3 host= ./atm\n",
		"pin no cmd": "3 host=node-a\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".cmd")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ParseCmdfile(path); err == nil {
				t.Fatalf("accepted %q", content)
			}
		})
	}
	if _, _, err := ParseCmdfile(filepath.Join(dir, "missing.cmd")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestParseColonSpec(t *testing.T) {
	entries, total, err := ParseColonSpec([]string{"3", "./atm", "-x", ":", "2", "host=node-b", "./ocn", ":", "1", "./cpl"})
	if err != nil {
		t.Fatal(err)
	}
	if total != 6 || len(entries) != 3 {
		t.Fatalf("total %d, entries %d", total, len(entries))
	}
	if entries[0].Nprocs != 3 || entries[0].Argv[1] != "-x" {
		t.Errorf("entry 0 %+v", entries[0])
	}
	if entries[1].Host != "node-b" {
		t.Errorf("entry 1 %+v", entries[1])
	}
	if entries[2].Argv[0] != "./cpl" {
		t.Errorf("entry 2 %+v", entries[2])
	}
}

func TestParseColonSpecErrors(t *testing.T) {
	cases := [][]string{
		{":"},
		{"3", "./atm", ":"},
		{":", "3", "./atm"},
		{"x", "./atm"},
		{"0", "./atm"},
		{"3"},
		{"3", "host=", "./atm"},
	}
	for _, args := range cases {
		if _, _, err := ParseColonSpec(args); err == nil {
			t.Errorf("accepted %v", args)
		}
	}
}

func TestParseHostfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hosts")
	content := `
# cluster
node-a slots=2
node-b            # defaults to one slot
node-c slots=1
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := ParseHostfile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []HostSlot{{"node-a", 2}, {"node-b", 1}, {"node-c", 1}}
	if !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts %+v, want %+v", hosts, want)
	}
}

func TestParseHostfileErrors(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"empty":     "# nothing\n",
		"bad slots": "node-a slots=x\n",
		"zero":      "node-a slots=0\n",
		"unknown":   "node-a cpus=4\n",
		"duplicate": "node-a\nnode-a\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_"))
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ParseHostfile(path); err == nil {
				t.Fatalf("accepted %q", content)
			}
		})
	}
}

func TestParseHostList(t *testing.T) {
	hosts, err := ParseHostList("node-a:2, node-b")
	if err != nil {
		t.Fatal(err)
	}
	want := []HostSlot{{"node-a", 2}, {"node-b", 1}}
	if !reflect.DeepEqual(hosts, want) {
		t.Fatalf("hosts %+v, want %+v", hosts, want)
	}
	for _, bad := range []string{"", "node-a,,node-b", "node-a:x", "node-a:0", ":2", "node-a,node-a"} {
		if _, err := ParseHostList(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParsePlacement(t *testing.T) {
	for s, want := range map[string]Placement{"": PlaceBlock, "block": PlaceBlock, "cyclic": PlaceCyclic} {
		got, err := ParsePlacement(s)
		if err != nil || got != want {
			t.Errorf("ParsePlacement(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePlacement("random"); err == nil {
		t.Error("accepted placement \"random\"")
	}
}

// placements extracts the per-rank host assignment of a spec.
func placements(s *LaunchSpec) []string {
	hosts := make([]string, len(s.Procs))
	for i, p := range s.Procs {
		hosts[i] = p.Host
	}
	return hosts
}

func TestPlacementBlock(t *testing.T) {
	entries := []Entry{{Nprocs: 3, Argv: []string{"a"}}, {Nprocs: 2, Argv: []string{"b"}}}
	hosts := []HostSlot{{"h1", 2}, {"h2", 2}, {"h3", 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h1", "h2", "h2", "h3"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("block placement %v, want %v", got, want)
	}
}

func TestPlacementCyclic(t *testing.T) {
	entries := []Entry{{Nprocs: 5, Argv: []string{"a"}}}
	hosts := []HostSlot{{"h1", 2}, {"h2", 1}, {"h3", 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceCyclic)
	if err != nil {
		t.Fatal(err)
	}
	// Round one deals h1,h2,h3; round two skips h2 (single slot used).
	want := []string{"h1", "h2", "h3", "h1", "h3"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("cyclic placement %v, want %v", got, want)
	}
}

func TestPlacementOversubscription(t *testing.T) {
	entries := []Entry{{Nprocs: 5, Argv: []string{"a"}}}
	hosts := []HostSlot{{"h1", 1}, {"h2", 1}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h2", "h1", "h2", "h1"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("oversubscribed placement %v, want %v", got, want)
	}
}

func TestPlacementPins(t *testing.T) {
	entries := []Entry{
		{Nprocs: 2, Argv: []string{"a"}},
		{Nprocs: 1, Host: "pinned", Argv: []string{"b"}},
		{Nprocs: 1, Argv: []string{"c"}},
	}
	hosts := []HostSlot{{"h1", 2}, {"h2", 2}}
	spec, err := NewLaunchSpec(entries, hosts, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	// The pinned rank bypasses the policy; unpinned ranks fill the hostfile
	// in order.
	want := []string{"h1", "h1", "pinned", "h2"}
	if got := placements(spec); !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned placement %v, want %v", got, want)
	}
	if got := spec.Hosts(); !reflect.DeepEqual(got, []string{"h1", "pinned", "h2"}) {
		t.Errorf("Hosts() = %v", got)
	}
}

func TestPlacementNoHostsStaysLocal(t *testing.T) {
	entries := []Entry{{Nprocs: 2, Argv: []string{"a"}}}
	spec, err := NewLaunchSpec(entries, nil, PlaceBlock)
	if err != nil {
		t.Fatal(err)
	}
	if got := placements(spec); !reflect.DeepEqual(got, []string{"", ""}) {
		t.Fatalf("placement without hosts %v, want all local", got)
	}
}

func TestLaunchSpecValidate(t *testing.T) {
	ok := &LaunchSpec{Procs: []Proc{{Rank: 0, Argv: []string{"a"}}, {Rank: 1, Argv: []string{"b"}}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	cases := map[string]*LaunchSpec{
		"empty":          {},
		"sparse ranks":   {Procs: []Proc{{Rank: 1, Argv: []string{"a"}}}},
		"no command":     {Procs: []Proc{{Rank: 0}}},
		"host but local": {Procs: []Proc{{Rank: 0, Host: "h1", Argv: []string{"a"}}}},
	}
	for name, spec := range cases {
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	remote := &LaunchSpec{Procs: []Proc{{Rank: 0, Host: "h1", Argv: []string{"a"}}}, Spawner: NewExecSpawner("")}
	if err := remote.Validate(); err != nil {
		t.Errorf("exec spec with host rejected: %v", err)
	}
}

// TestSSHAgentCommand pins the ssh backend's remote command line: the
// batch-mode options, the caller's options and the host, then the agent
// path and its one argument as a single quoted remote command. Launch
// context, environment and registration travel in the session, so nothing
// else may appear. Unpinned ranks run the agent locally.
func TestSSHAgentCommand(t *testing.T) {
	sp := NewSSHSpawner("/opt/mph bin/mphrun", []string{"-p", "2222"})
	got := sp.agentCommand("/opt/mph bin/mphrun", "node-a").Args
	want := []string{"ssh", "-o", "BatchMode=yes", "-o", "StrictHostKeyChecking=accept-new",
		"-p", "2222", "node-a", "'/opt/mph bin/mphrun' 'agent'"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote agent command:\n got %q\nwant %q", got, want)
	}
	local := sp.agentCommand("/opt/mph bin/mphrun", "").Args
	if want := []string{"/opt/mph bin/mphrun", "agent"}; !reflect.DeepEqual(local, want) {
		t.Errorf("local agent command: got %q, want %q", local, want)
	}
}

func TestPassthroughEnv(t *testing.T) {
	environ := []string{
		"PATH=/bin",
		"MPH_FAULT=drop",
		EnvRank + "=3",
		EnvBind + "=0.0.0.0",
		"MPH_COLL_RING_THRESHOLD=1024",
		"NOTMPH=1",
	}
	got := passthroughEnv(environ)
	want := []string{"MPH_FAULT=drop", "MPH_COLL_RING_THRESHOLD=1024"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("passthroughEnv = %v, want %v", got, want)
	}
}

func TestShellJoin(t *testing.T) {
	got := shellJoin([]string{"/usr/bin/mphrun", "agent", `A=x y`, `B=it's`})
	want := `'/usr/bin/mphrun' 'agent' 'A=x y' 'B=it'\''s'`
	if got != want {
		t.Errorf("shellJoin:\n got %s\nwant %s", got, want)
	}
}
