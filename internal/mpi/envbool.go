package mpi

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
)

// envBoolWarned tracks which variables have already produced a garbage-value
// warning, so a knob misspelled once in a job script warns once per process,
// not once per parse site.
var envBoolWarned sync.Map

// EnvBool parses a boolean-ish environment knob strictly. Accepted spellings
// (case-insensitive, surrounding space ignored): "1", "true", "on", "yes"
// enable; "0", "false", "off", "no" disable. Bare integers keep their
// documented numeric semantics: positive enables, zero or negative disables.
// Unset returns def; anything else warns once per variable on stderr and
// returns def, so a typo degrades to the default loudly instead of silently
// flipping the knob (a bare "off" once parsed as enabled).
func EnvBool(name string, def bool) bool {
	raw, ok := os.LookupEnv(name)
	if !ok {
		return def
	}
	v := strings.ToLower(strings.TrimSpace(raw))
	switch v {
	case "":
		return def
	case "1", "true", "on", "yes":
		return true
	case "0", "false", "off", "no":
		return false
	}
	if n, err := strconv.Atoi(v); err == nil {
		return n > 0
	}
	if _, dup := envBoolWarned.LoadOrStore(name, struct{}{}); !dup {
		fmt.Fprintf(os.Stderr, "mph: %s=%q is not a boolean (want 0/1/true/false/on/off); using default %v\n",
			name, raw, def)
	}
	return def
}
