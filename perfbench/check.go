package main

import (
	"fmt"
	"math"

	"harvsim/internal/batch"
	"harvsim/internal/harvester"
	"harvsim/internal/wire"
)

// field is one named float output of a run.
type field struct {
	name string
	v    float64
}

// physics lists a result's float outputs the determinism contract pins.
func physics(r batch.Result) []field {
	return []field{
		{"final_vc", r.FinalVc}, {"rms_power", r.RMSPower}, {"mean_power", r.MeanPower}, {"metric", r.Metric},
		{"energy.harvested", r.Energy.Harvested}, {"energy.to_store", r.Energy.ToStore},
		{"energy.load", r.Energy.Load}, {"energy.stored_t0", r.Energy.StoredT0}, {"energy.stored_t1", r.Energy.StoredT1},
	}
}

// diffBits reports the first field whose bits differ ("" when all agree).
func diffBits(got, want []field) string {
	for i := range want {
		if math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
			return fmt.Sprintf("%s %v (bits %#x), reference %v (bits %#x)",
				want[i].name, got[i].v, math.Float64bits(got[i].v), want[i].v, math.Float64bits(want[i].v))
		}
	}
	return ""
}

// diffResult compares an in-process result with its reference bit for
// bit: final Vc, RMS/mean power, metric, energy, final state, steps and
// basin statistics.
func diffResult(got, want batch.Result) string {
	if d := diffBits(physics(got), physics(want)); d != "" {
		return d
	}
	if len(got.FinalState) != len(want.FinalState) {
		return fmt.Sprintf("final state has %d entries, reference %d", len(got.FinalState), len(want.FinalState))
	}
	for i := range want.FinalState {
		if math.Float64bits(got.FinalState[i]) != math.Float64bits(want.FinalState[i]) {
			return fmt.Sprintf("final_state[%d] %v, reference %v", i, got.FinalState[i], want.FinalState[i])
		}
	}
	return diffCounts(got.Stats.Steps, got.Transits, got.SettledTransits, got.FinalBasin, want)
}

func diffCounts(steps, transits, settled, basin int, want batch.Result) string {
	switch {
	case steps != want.Stats.Steps:
		return fmt.Sprintf("steps %d, reference %d", steps, want.Stats.Steps)
	case transits != want.Transits || settled != want.SettledTransits || basin != want.FinalBasin:
		return fmt.Sprintf("basin stats (%d, %d, %d), reference (%d, %d, %d)",
			transits, settled, basin, want.Transits, want.SettledTransits, want.FinalBasin)
	}
	return ""
}

// diffWire compares a streamed result line with its reference: every
// physics field the wire carries, bit for bit.
func diffWire(got wire.Result, want batch.Result) string {
	g := []field{{"final_vc", float64(got.FinalVc)}, {"rms_power", float64(got.RMSPower)},
		{"mean_power", float64(got.MeanPower)}, {"metric", float64(got.Metric)}}
	if d := diffBits(g, physics(want)[:len(g)]); d != "" {
		return d
	}
	return diffCounts(got.Steps, got.Transits, got.SettledTransits, got.FinalBasin, want)
}

// diffEnsembles compares ensemble reductions bit for bit.
func diffEnsembles(got, want []batch.EnsemblePoint) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d ensemble points, reference %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Group != w.Group || g.N != w.N || g.Failed != w.Failed || len(g.Basins) != len(w.Basins) {
			return fmt.Sprintf("ensemble %s: membership differs from reference", w.Group)
		}
		gf := []field{{"mean", g.Mean}, {"variance", g.Variance}, {"ci95", g.CI95}, {"mean_vc", g.MeanVc},
			{"high_orbit_frac", g.HighOrbitFrac}, {"mean_transits", g.MeanTransits}}
		wf := []field{{"mean", w.Mean}, {"variance", w.Variance}, {"ci95", w.CI95}, {"mean_vc", w.MeanVc},
			{"high_orbit_frac", w.HighOrbitFrac}, {"mean_transits", w.MeanTransits}}
		for b := range w.Basins {
			gb, wb := g.Basins[b], w.Basins[b]
			if gb.Basin != wb.Basin || gb.N != wb.N {
				return fmt.Sprintf("ensemble %s: basin split differs from reference", w.Group)
			}
			gf = append(gf, field{"basin.mean", gb.Mean}, field{"basin.variance", gb.Variance}, field{"basin.ci95", gb.CI95})
			wf = append(wf, field{"basin.mean", wb.Mean}, field{"basin.variance", wb.Variance}, field{"basin.ci95", wb.CI95})
		}
		if d := diffBits(gf, wf); d != "" {
			return "ensemble " + w.Group + ": " + d
		}
	}
	return ""
}

// Cross-engine bounds on the Table I charge scenario, as the root
// conformance suite calibrates them for the trapezoidal baseline.
const (
	conformHMax   = 2.5e-4
	conformVcTol  = 1e-3
	conformPowRel = 0.10
)

// conformance runs the first and last points of a grid on the proposed
// engine and the ExistingTrap baseline at the calibrated step cap and
// checks their agreement.
func conformance(grid []batch.Job) error {
	var jobs []batch.Job
	for _, j := range []batch.Job{grid[0], grid[len(grid)-1]} {
		for _, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
			job := batch.Job{Name: j.Name, Scenario: j.Scenario.Clone(), Engine: kind, Decimate: 1}
			job.Scenario.Cfg.Solver.HMax = conformHMax
			jobs = append(jobs, job)
		}
	}
	res := reference(jobs)
	for i := 0; i < len(res); i += 2 {
		prop, trap := res[i], res[i+1]
		if prop.Err != nil || trap.Err != nil {
			return fmt.Errorf("conformance %s: proposed err %v, trap err %v", prop.Name, prop.Err, trap.Err)
		}
		if d := math.Abs(prop.FinalVc - trap.FinalVc); d > conformVcTol {
			return fmt.Errorf("conformance %s: final Vc %v vs trap %v (|d| %.3g > %.3g)", prop.Name, prop.FinalVc, trap.FinalVc, d, conformVcTol)
		}
		if rel := math.Abs(prop.RMSPower-trap.RMSPower) / prop.RMSPower; !(rel <= conformPowRel) {
			return fmt.Errorf("conformance %s: RMS power %v vs trap %v (rel %.3g > %.3g)", prop.Name, prop.RMSPower, trap.RMSPower, rel, conformPowRel)
		}
	}
	return nil
}
