package exp

import (
	"fmt"
	"time"

	"harvsim/internal/circuit"
	"harvsim/internal/harvester"
)

// Table1Row is one simulator environment's cost for the supercapacitor
// charging simulation (paper Table I).
type Table1Row struct {
	Simulator string // the environment this run stands in for
	Technique string
	Run       EngineRun
	// PaperCPU is the CPU time the paper reports for this environment on
	// its own (unscaled) workload — for shape comparison only.
	PaperCPU time.Duration
}

// Table1Result is the reproduced Table I.
type Table1Result struct {
	SimDuration float64 // simulated charging span [s]
	Rows        []Table1Row
}

// Table1 reproduces the paper's Table I: CPU times of the
// Newton-Raphson-based simulation environments on the supercapacitor
// charging problem, plus the proposed engine as reference. simDuration
// scales the charging horizon (the paper's full charge takes hours of
// simulated time; CPU-time ratios are per-step properties and transfer).
func Table1(simDuration float64) (Table1Result, error) {
	res := Table1Result{SimDuration: simDuration}
	sc := harvester.ChargeScenario(simDuration)

	// SystemVision stand-in: trapezoidal + Newton-Raphson over the block
	// model (the VHDL-AMS route).
	run, _, err := runTimed("SystemVision (VHDL-AMS)", sc, harvester.ExistingTrap, 1<<20)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Simulator: "SystemVision (VHDL-AMS)",
		Technique: "trapezoidal + Newton-Raphson",
		Run:       run,
		PaperCPU:  4*time.Hour + 24*time.Minute,
	})

	// PSPICE stand-in: full MNA equivalent-circuit simulation.
	mnaRun, err := runTable1MNA(simDuration)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Simulator: "OrCAD (PSPICE)",
		Technique: "MNA equivalent circuit + Newton-Raphson",
		Run:       mnaRun,
		PaperCPU:  9*time.Hour + 48*time.Minute,
	})

	// SystemC-A stand-in: BDF2/Gear + Newton-Raphson over the block model.
	run, _, err = runTimed("SystemC-A (Visual C++)", sc, harvester.ExistingBDF2, 1<<20)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Simulator: "SystemC-A (Visual C++)",
		Technique: "BDF2/Gear + Newton-Raphson",
		Run:       run,
		PaperCPU:  6*time.Hour + 40*time.Minute,
	})

	// The proposed technique, for reference (not a Table I column in the
	// paper, but the point of the comparison).
	run, _, err = runTimed("proposed (linearised state-space)", sc, harvester.Proposed, 1<<20)
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, Table1Row{
		Simulator: "proposed (this work)",
		Technique: "linearised state-space + Adams-Bashforth",
		Run:       run,
	})
	return res, nil
}

// runTable1MNA runs the equivalent-circuit netlist under the MNA
// transient engine.
func runTable1MNA(simDuration float64) (EngineRun, error) {
	p := circuit.DefaultEquivParams()
	h := circuit.BuildHarvester(p)
	tr := circuit.NewTransient(h.Net)
	tr.HMax = 2.5e-4
	elapsed, err := Timed(func() error { return tr.Run(0, simDuration) })
	if err != nil {
		return EngineRun{}, fmt.Errorf("exp: MNA run failed: %w", err)
	}
	return EngineRun{
		Label:   "OrCAD (PSPICE)",
		CPUTime: elapsed,
		Steps:   tr.Stats.Steps,
		SimTime: simDuration,
	}, nil
}

// String renders the table.
func (r Table1Result) String() string {
	var w tableWriter
	w.add("Simulator", "Technique", "CPU (this repro)", "Steps", "Paper CPU (full workload)")
	base := r.Rows[len(r.Rows)-1].Run // proposed
	for _, row := range r.Rows {
		paper := "-"
		if row.PaperCPU > 0 {
			paper = FormatDuration(row.PaperCPU)
		}
		cpu := FormatDuration(row.Run.CPUTime)
		if row.Run.Label != base.Label {
			cpu += fmt.Sprintf(" (%.0fx vs proposed)", base.Speedup(row.Run))
		}
		w.add(row.Simulator, row.Technique, cpu, fmt.Sprintf("%d", row.Run.Steps), paper)
	}
	return fmt.Sprintf("Table I — supercapacitor charging, %.3g s simulated\n%s",
		r.SimDuration, w.String())
}
