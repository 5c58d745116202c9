package main

import (
	"strings"
	"testing"

	"mph/internal/coupler"
)

// goodJob returns the reports of a correct three-rank job and its
// reference diagnostics.
func goodJob() ([]rankReport, *coupler.Diagnostics) {
	diag := func() *coupler.Diagnostics {
		return &coupler.Diagnostics{
			AtmMean: []float64{280, 281}, OcnMean: []float64{290, 289.5},
			LandMean: []float64{285, 285}, IceMean: []float64{1.5, 1.4},
			Energy: []float64{1e6, 1e6}, FluxImbalance: []float64{1e-13, -2e-13},
		}
	}
	reports := make([]rankReport, 3)
	for i := range reports {
		reports[i].Rank = i
		reports[i].Perf.TotalSentMsgs = uint64(10 + i)
		reports[i].Perf.TotalRecvMsgs = uint64(12 - i)
		reports[i].Perf.TotalSentBytes = 100
		reports[i].Perf.TotalRecvBytes = 100
	}
	reports[2].Diag = diag()
	return reports, diag()
}

func TestCheckJobPassesCorrectJob(t *testing.T) {
	reports, ref := goodJob()
	// A last-bits difference, as a changed reduction order gives.
	reports[2].Diag.Energy[1] *= 1 + 1e-15
	if err := checkJob(reports, 3, 64, ref); err != nil {
		t.Fatal(err)
	}
}

func TestCheckJobTrips(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(rs []rankReport)
		want   string
	}{
		{"duplicate rank", func(rs []rankReport) { rs[1] = rs[0] }, "twice"},
		{"wrong diagnostics", func(rs []rankReport) { rs[2].Diag.OcnMean[1] += 1e-6 }, "ocn mean, period 1"},
		{"imbalance", func(rs []rankReport) { rs[2].Diag.FluxImbalance[0] = 1e-3 }, "not numerically zero"},
		{"lost message", func(rs []rankReport) { rs[0].Perf.TotalRecvMsgs-- }, "do not reconcile"},
		{"no diagnostics", func(rs []rankReport) { rs[2].Diag = nil }, "no diagnostics"},
	}
	for _, c := range cases {
		reports, ref := goodJob()
		c.mutate(reports)
		err := checkJob(reports, 3, 64, ref)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: checkJob = %v, want an error containing %q", c.name, err, c.want)
		}
	}
	reports, ref := goodJob()
	if err := checkJob(reports[:2], 3, 64, ref); err == nil {
		t.Error("a job with a rank missing passed")
	}
}
