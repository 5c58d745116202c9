package main

import (
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTimeIt(t *testing.T) {
	calls := 0
	d, err := timeIt(3, func() error {
		calls++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls %d err %v", calls, err)
	}
	if d < time.Millisecond {
		t.Errorf("minimum %v below the sleep", d)
	}
	wantErr := errors.New("boom")
	if _, err := timeIt(2, func() error { return wantErr }); !errors.Is(err, wantErr) {
		t.Errorf("error not propagated: %v", err)
	}
}

// TestTablesRun executes every experiment table once at repeat=1; the
// scenarios inside are the same ones the unit suite exercises, so this is
// a wiring check (output goes to stdout, which `go test` swallows unless
// verbose).
func TestTablesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full sweeps")
	}
	for _, fn := range []struct {
		name string
		run  func(int) error
	}{
		{"e1", e1}, {"e3", e3}, {"e4", e4}, {"e5", e5}, {"e6", e6}, {"a1", a1}, {"a2", a2},
	} {
		if err := fn.run(1); err != nil {
			t.Fatalf("%s: %v", fn.name, err)
		}
	}
}

// TestC1TableMatchesBench is the drift check between EXPERIMENTS.md and
// BENCH_coll.json: the C1 table in the document must show every cell of
// the recorded sweep at the precision c1Table prints, so a regenerated JSON
// without a refreshed table (or a hand-edited table) fails here.
func TestC1TableMatchesBench(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_coll.json")
	if err != nil {
		t.Fatal(err)
	}
	var sweep collSweep
	if err := json.Unmarshal(raw, &sweep); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	lines := strings.Split(string(doc), "\n")
	for i, line := range lines {
		if strings.TrimSpace(line) != c1Header {
			continue
		}
		for _, l := range lines[i:] {
			if !strings.HasPrefix(strings.TrimSpace(l), "|") {
				break
			}
			got = append(got, strings.TrimSpace(l))
		}
		break
	}
	if len(got) == 0 {
		t.Fatalf("EXPERIMENTS.md has no C1 table headed %q", c1Header)
	}
	want := strings.Split(strings.TrimSuffix(c1Table(sweep.Rows), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("C1 table has %d lines, BENCH_coll.json gives %d:\n%s", len(got), len(want), strings.Join(want, "\n"))
	}
	for i := range want {
		gc, wc := tableCells(got[i]), tableCells(want[i])
		if len(gc) != len(wc) {
			t.Errorf("C1 table line %d has %d cells, want %d: %q", i+1, len(gc), len(wc), got[i])
			continue
		}
		for j := range wc {
			if gc[j] != wc[j] {
				t.Errorf("C1 table %s, column %q: document says %q, BENCH_coll.json gives %q",
					gc[0], tableCells(want[0])[j], gc[j], wc[j])
			}
		}
	}
}

// tableCells splits one markdown table line into trimmed cells, ignoring
// bold markers.
func tableCells(line string) []string {
	parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
	for i, p := range parts {
		parts[i] = strings.Trim(strings.TrimSpace(p), "*")
	}
	return parts
}
