package main

import (
	"fmt"
	"math"
	"sync"

	"mph/internal/core"
	"mph/internal/coupler"
	"mph/internal/mpi"
)

// Correctness tolerances of the per-job gate.
//
// The model state never depends on a reduction: every flux is computed cell
// by cell, so the fields evolve bit for bit the same under any collective
// algorithm. Only the reported diagnostics are sums over ranks. A two-host
// placement routes those sums through the hierarchical collectives, which
// add the per-rank partial sums in another order than the in-process tree,
// so a diagnostic may differ from the reference in its last few bits.
// diagRelTol allows 1e-12 relative, about 4500 ulps.
//
// FluxImbalance is the global sum of equal and opposite increments, so it is
// zero up to the rounding of that sum; imbalanceTol bounds it per grid cell.
const (
	diagRelTol   = 1e-12
	imbalanceTol = 1e-12
)

// referenceDiag runs the same coupled job in one process over mpi.RunWorld
// and returns the coupler root's diagnostics.
func referenceDiag(layout [5]int, p rankParams) (*coupler.Diagnostics, error) {
	names := componentNames()
	var blocks []string
	for i, n := range layout {
		for k := 0; k < n; k++ {
			blocks = append(blocks, names[i])
		}
	}
	cfg, err := p.config(nil)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var root *coupler.Diagnostics
	err = mpi.RunWorld(len(blocks), func(c *mpi.Comm) error {
		s, err := core.SingleComponentSetup(c, core.TextSource(registration), blocks[c.Rank()],
			core.WithLogDir(p.logDir))
		if err != nil {
			return err
		}
		d, err := coupler.RunCoupled(s, cfg)
		if err != nil {
			return err
		}
		if s.CompName() == cfg.Names.Coupler && s.LocalProcID() == 0 {
			mu.Lock()
			root = d
			mu.Unlock()
		}
		return nil
	})
	if err == nil && root == nil {
		err = fmt.Errorf("reference run produced no coupler diagnostics")
	}
	return root, err
}

// checkJob is the per-job correctness gate: every rank reported, the
// coupler root's diagnostics match the reference, the flux exchange
// conserved, and the job-wide message totals reconcile. It returns nil
// when the job is correct.
func checkJob(reports []rankReport, size, cells int, ref *coupler.Diagnostics) error {
	if len(reports) != size {
		return fmt.Errorf("%d of %d ranks reported", len(reports), size)
	}
	seen := make([]bool, size)
	var diag *coupler.Diagnostics
	var sentMsgs, recvMsgs, sentBytes, recvBytes uint64
	for _, r := range reports {
		if r.Rank < 0 || r.Rank >= size || seen[r.Rank] {
			return fmt.Errorf("rank %d reported twice or out of range", r.Rank)
		}
		seen[r.Rank] = true
		if r.Diag != nil {
			diag = r.Diag
		}
		sentMsgs += r.Perf.TotalSentMsgs
		recvMsgs += r.Perf.TotalRecvMsgs
		sentBytes += r.Perf.TotalSentBytes
		recvBytes += r.Perf.TotalRecvBytes
	}
	if sentMsgs != recvMsgs || sentBytes != recvBytes {
		return fmt.Errorf("totals do not reconcile: %d messages (%d B) sent, %d (%d B) received",
			sentMsgs, sentBytes, recvMsgs, recvBytes)
	}
	if diag == nil {
		return fmt.Errorf("the coupler root reported no diagnostics")
	}
	for p, imb := range diag.FluxImbalance {
		if !(math.Abs(imb) <= imbalanceTol*float64(cells)) {
			return fmt.Errorf("period %d: flux imbalance %g is not numerically zero (bound %g)",
				p, imb, imbalanceTol*float64(cells))
		}
	}
	series := []struct {
		name      string
		got, want []float64
	}{
		{"atm mean", diag.AtmMean, ref.AtmMean},
		{"ocn mean", diag.OcnMean, ref.OcnMean},
		{"land mean", diag.LandMean, ref.LandMean},
		{"ice mean", diag.IceMean, ref.IceMean},
		{"energy", diag.Energy, ref.Energy},
	}
	for _, s := range series {
		if len(s.got) != len(s.want) {
			return fmt.Errorf("%s: %d periods, reference has %d", s.name, len(s.got), len(s.want))
		}
		for p := range s.got {
			if !(math.Abs(s.got[p]-s.want[p]) <= diagRelTol*math.Abs(s.want[p])) {
				return fmt.Errorf("%s, period %d: %.17g, reference %.17g", s.name, p, s.got[p], s.want[p])
			}
		}
	}
	return nil
}

// componentNames lists the climate components in launch-block order.
func componentNames() [5]string {
	n := coupler.DefaultNames()
	return [5]string{n.Atmosphere, n.Ocean, n.Land, n.Ice, n.Coupler}
}
