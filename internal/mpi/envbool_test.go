package mpi

import (
	"os"
	"testing"
)

func TestEnvBool(t *testing.T) {
	cases := []struct {
		val  string
		def  bool
		want bool
	}{
		{"1", false, true},
		{"true", false, true},
		{"TRUE", false, true},
		{"on", false, true},
		{"Yes", false, true},
		{" on ", false, true},
		{"0", true, false},
		{"false", true, false},
		{"off", true, false},
		{"OFF", true, false},
		{"no", true, false},
		{"2", false, true},   // positive integer: documented numeric semantics
		{"-1", true, false},  // non-positive integer disables
		{"007", false, true}, // Atoi accepts leading zeros
		{"", false, false},   // empty keeps the default
		{"", true, true},
		{"banana", true, true}, // garbage keeps the default...
		{"banana", false, false},
		{"tru", true, true},
		{"onoff", false, false},
	}
	for _, c := range cases {
		t.Setenv("MPH_TEST_BOOL", c.val)
		if got := EnvBool("MPH_TEST_BOOL", c.def); got != c.want {
			t.Errorf("EnvBool(%q, def=%v) = %v, want %v", c.val, c.def, got, c.want)
		}
	}
}

func TestEnvBoolUnset(t *testing.T) {
	t.Setenv("MPH_TEST_BOOL_UNSET", "x") // t.Setenv registers restoration
	if err := os.Unsetenv("MPH_TEST_BOOL_UNSET"); err != nil {
		t.Fatal(err)
	}
	if !EnvBool("MPH_TEST_BOOL_UNSET", true) {
		t.Errorf("unset variable must return the default (true)")
	}
	if EnvBool("MPH_TEST_BOOL_UNSET", false) {
		t.Errorf("unset variable must return the default (false)")
	}
}
