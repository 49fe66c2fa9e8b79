package exp

import (
	"fmt"
	"math"
	"time"

	"harvsim/internal/blocks"
	"harvsim/internal/core"
	"harvsim/internal/harvester"
	"harvsim/internal/trace"
)

// AblationRow is a generic (setting, cpu, error) record.
type AblationRow struct {
	Setting string
	CPUTime time.Duration
	Steps   int
	Err     float64 // deviation vs the reference waveform (RMSE, volts)
	Failed  bool    // run diverged (stability ablation)
}

// AblationResult is a titled list of rows. Note, when set, states what
// the rows show and is derived from them.
type AblationResult struct {
	Title string
	Note  string
	Rows  []AblationRow
}

// flatCPU is the largest max/min CPU ratio across a sweep that its
// note still calls flat.
const flatCPU = 1.25

// sweepNote states what a one-setting sweep's rows show (A1, A2):
// whether CPU stayed flat across the settings, and whether the error
// fell from the first setting to the last.
func sweepNote(rows []AblationRow) string {
	lo, hi := rows[0], rows[0]
	for _, r := range rows {
		if r.CPUTime < lo.CPUTime {
			lo = r
		}
		if r.CPUTime > hi.CPUTime {
			hi = r
		}
	}
	ratio := float64(hi.CPUTime) / float64(lo.CPUTime)
	note := fmt.Sprintf("CPU is flat (within %.2fx across settings)", ratio)
	if ratio > flatCPU {
		note = fmt.Sprintf("CPU is not flat: %s takes %.1fx the CPU of %s", hi.Setting, ratio, lo.Setting)
	}
	first, last := rows[0], rows[len(rows)-1]
	trend := "falls"
	if last.Err >= first.Err {
		trend = "does not fall"
	}
	return note + fmt.Sprintf(";\nVc RMSE %s from %.3g V (%s) to %.3g V (%s).\n",
		trend, first.Err, first.Setting, last.Err, last.Setting)
}

// stabilityNote lists which stability-cap factors kept the march stable
// and which diverged (A3).
func stabilityNote(rows []AblationRow) string {
	stable, diverged := "", ""
	for _, r := range rows {
		if r.Failed {
			diverged += ", " + r.Setting
		} else {
			stable += ", " + r.Setting
		}
	}
	return fmt.Sprintf("stable: %s;\ndiverged: %s.\n", orNone(stable), orNone(diverged))
}

// orNone strips a ", "-joined list's leading separator, or says none.
func orNone(list string) string {
	if list == "" {
		return "none"
	}
	return list[2:]
}

// String renders the ablation table.
func (r AblationResult) String() string {
	var w tableWriter
	w.add("Setting", "CPU", "Steps", "Vc RMSE [V]", "Status")
	for _, row := range r.Rows {
		status := "ok"
		if row.Failed {
			status = "DIVERGED"
		}
		w.add(row.Setting, FormatDuration(row.CPUTime),
			fmt.Sprintf("%d", row.Steps), fmt.Sprintf("%.3g", row.Err), status)
	}
	return fmt.Sprintf("%s\n%s%s", r.Title, w.String(), r.Note)
}

// ablationScenario is the shared workload: a partially charged system so
// the multiplier operates at its working point.
func ablationScenario(duration float64) harvester.Scenario {
	sc := harvester.ChargeScenario(duration)
	sc.Cfg.InitialVc = 2.5
	return sc
}

// runReference produces the tight-tolerance reference waveform.
func runReference(sc harvester.Scenario) (*trace.Series, error) {
	h := harvester.New(sc.Cfg)
	eng := core.NewEngine(h.Sys)
	eng.Ctl.HMax = 2.5e-5
	eng.Ctl.Rtol = 1e-5
	eng.Events = h.Kernel
	rec := trace.NewSeries("ref")
	idx := h.Sys.MustTerminal("Vc")
	eng.Observe(func(t float64, x, y []float64) { rec.Append(t, y[idx]) })
	if err := eng.Run(0, sc.Duration); err != nil {
		return nil, err
	}
	return rec, nil
}

// AblationABOrder sweeps the Adams-Bashforth order 1..4 (paper Section
// II chooses AB for "simplicity and accuracy"; this quantifies the
// accuracy side).
func AblationABOrder(duration float64) (AblationResult, error) {
	res := AblationResult{
		Title: "Ablation A1 — Adams-Bashforth order (accuracy at matched cost)",
	}
	sc := ablationScenario(duration)
	ref, err := runReference(sc)
	if err != nil {
		return res, err
	}
	for order := 1; order <= 4; order++ {
		h := harvester.New(sc.Cfg)
		eng := core.NewEngine(h.Sys)
		eng.Order = order
		eng.Events = h.Kernel
		eng.Ctl.HMax = 2.5e-4
		rec := trace.NewSeries("vc")
		idx := h.Sys.MustTerminal("Vc")
		eng.Observe(func(t float64, x, y []float64) { rec.Append(t, y[idx]) })
		elapsed, err := Timed(func() error { return eng.Run(0, sc.Duration) })
		if err != nil {
			return res, err
		}
		cmp := trace.Compare(rec, ref, 400)
		res.Rows = append(res.Rows, AblationRow{
			Setting: fmt.Sprintf("AB order %d", order),
			CPUTime: elapsed,
			Steps:   eng.Stats.Steps,
			Err:     cmp.RMSE,
		})
	}
	res.Note = sweepNote(res.Rows)
	return res, nil
}

// AblationPWL sweeps the lookup-table granularity, verifying the paper's
// claim that "the size of the look-up tables does not affect the
// simulation speed" while the modelling accuracy can be made arbitrarily
// fine.
func AblationPWL(duration float64) (AblationResult, error) {
	res := AblationResult{
		Title: "Ablation A2 — PWL table granularity (paper Section III-B)",
	}
	sc := ablationScenario(duration)
	ref, err := runReference(sc)
	if err != nil {
		return res, err
	}
	for _, segs := range []int{16, 64, 256, 1024, 4096, 16384} {
		cfg := sc.Cfg
		cfg.Dickson = cloneDicksonWithSegments(cfg.Dickson, segs)
		h := harvester.New(cfg)
		eng := core.NewEngine(h.Sys)
		eng.Events = h.Kernel
		eng.Ctl.HMax = 2.5e-4
		rec := trace.NewSeries("vc")
		idx := h.Sys.MustTerminal("Vc")
		eng.Observe(func(t float64, x, y []float64) { rec.Append(t, y[idx]) })
		elapsed, err := Timed(func() error { return eng.Run(0, sc.Duration) })
		if err != nil {
			return res, err
		}
		cmp := trace.Compare(rec, ref, 400)
		res.Rows = append(res.Rows, AblationRow{
			Setting: fmt.Sprintf("%d segments", segs),
			CPUTime: elapsed,
			Steps:   eng.Stats.Steps,
			Err:     cmp.RMSE,
		})
	}
	res.Note = sweepNote(res.Rows)
	return res, nil
}

func cloneDicksonWithSegments(p blocks.DicksonParams, segs int) blocks.DicksonParams {
	d := *p.Diode
	d.BuildTable(segs)
	p.Diode = &d
	return p
}

// AblationStability sweeps a factor on the stability step cap: inside
// the bound the march is stable; pushing the step past the bound makes
// the explicit update diverge, demonstrating the necessity of paper
// Eq. 7.
func AblationStability(duration float64) (AblationResult, error) {
	res := AblationResult{
		Title: "Ablation A3 — stability bound (paper Eqs. 6-7)",
	}
	sc := ablationScenario(duration)
	for _, factor := range []float64{0.5, 0.9, 1.0, 2.0, 4.0} {
		h := harvester.New(sc.Cfg)
		eng := core.NewEngine(h.Sys)
		eng.Events = h.Kernel
		eng.StabilityFactor = factor
		eng.Ctl.HMax = 1e-3
		// Disable accuracy control and the LLE monitor so only the
		// stability cap governs (the monitor would otherwise rescue the
		// run by halving the step as the divergence churns the Jacobian).
		eng.Ctl.Rtol = 1e9
		eng.Ctl.Atol = 1e9
		eng.LLETol = 1e18
		elapsed, err := Timed(func() error { return eng.Run(0, sc.Duration) })
		row := AblationRow{
			Setting: fmt.Sprintf("%.2gx stability cap", factor),
			CPUTime: elapsed,
			Steps:   eng.Stats.Steps,
		}
		if err != nil {
			row.Failed = true
		} else {
			// Stability means the state stayed physical, not merely
			// finite: a weakly unstable march can saturate against the
			// step ceiling while the proof-mass "displacement" grows to
			// centimetres. Bound |z| at 5 cm (real travel is sub-mm) and
			// every state magnitude at 1e3.
			x := eng.State()
			genOff := h.Sys.MustStateOffset("gen")
			if math.Abs(x[genOff]) > 0.05 {
				row.Failed = true
			}
			for _, v := range x {
				if v != v || v > 1e3 || v < -1e3 {
					row.Failed = true
					break
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Note = stabilityNote(res.Rows)
	return res, nil
}

// AblationAccuracy compares the proposed explicit engine against the
// classical implicit solver at matched step ceilings — the paper's
// "similar accuracy to that of a classical analogue solver".
func AblationAccuracy(duration float64) (AblationResult, error) {
	res := AblationResult{
		Title: "Ablation A4 — accuracy parity with the classical solver",
	}
	sc := ablationScenario(duration)
	ref, err := runReference(sc)
	if err != nil {
		return res, err
	}
	for _, kind := range []harvester.EngineKind{harvester.Proposed, harvester.ExistingTrap} {
		run, h, err := runTimed(kind.String(), sc, kind, 1)
		if err != nil {
			return res, err
		}
		cmp := trace.Compare(h.VcTrace, ref, 400)
		res.Rows = append(res.Rows, AblationRow{
			Setting: kind.String(),
			CPUTime: run.CPUTime,
			Steps:   run.Steps,
			Err:     cmp.RMSE,
		})
	}
	return res, nil
}
