// Command benchtab regenerates every table and figure of the paper's
// evaluation section on this machine and prints them in a form directly
// comparable with the paper (see DESIGN.md for the experiment list).
//
//	benchtab                # all experiments, bench-scale horizons
//	benchtab -only table2   # one experiment
//	benchtab -only xengine  # cross-engine conformance tables
//	benchtab -full          # paper-scale scenario horizons (slow!)
//	benchtab -table1-sim 30
//
// An unknown -only name exits 2 and lists the valid ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"harvsim/internal/exp"
	"harvsim/internal/harvester"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments and streams explicit; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchtab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full      = fs.Bool("full", false, "paper-scale scenario horizons (hours of simulated time)")
		table1Sim = fs.Float64("table1-sim", 10, "simulated charging span for Table I [s]")
		ablSim    = fs.Float64("ablation-sim", 3, "simulated span for the ablations [s]")
		xengSim   = fs.Float64("xengine-sim", 2, "simulated span for the cross-engine conformance charge [s]")
		workers   = fs.Int("workers", 0, "batch worker-pool size for xengine (0 = GOMAXPROCS)")
		fid       = harvester.Quick // set from -full once the flags are parsed
	)

	// The experiments in print order; each returns its rendered tables.
	experiments := []struct {
		name string
		run  func() (string, error)
	}{
		{"table1", func() (string, error) {
			res, err := exp.Table1(*table1Sim)
			if err != nil {
				return "", err
			}
			// Extrapolations to a paper-scale 4-hour charge.
			const fullCharge = 4 * 3600.0
			out := res.String() + "\nextrapolated to a 4 h simulated charge:\n"
			for _, row := range res.Rows {
				out += fmt.Sprintf("  %-24s %s\n", row.Simulator, exp.FormatDuration(row.Run.ExtrapolateTo(fullCharge)))
			}
			return out, nil
		}},
		{"table2", func() (string, error) { return render(exp.Table2(fid)) }},
		{"fig8a", func() (string, error) { return render(exp.Fig8a(fid)) }},
		{"fig8b", func() (string, error) { return render(exp.Fig8b(fid)) }},
		{"fig9", func() (string, error) { return render(exp.Fig9(fid)) }},
		// The agreement tables the benchmarks can't provide: the same
		// workload under all four engines, run through the concurrent
		// batch layer, with deviations against the proposed engine.
		{"xengine", func() (string, error) {
			charge, err := exp.ConformanceCharge(*xengSim, *workers)
			if err != nil {
				return "", err
			}
			sc1, err := exp.ConformanceScenario1(20, *workers)
			return charge.String() + "\n" + sc1.String(), err
		}},
		{"ablations", func() (string, error) {
			var out []string
			for _, ablate := range []func(float64) (exp.AblationResult, error){
				exp.AblationABOrder, exp.AblationPWL, exp.AblationStability, exp.AblationAccuracy,
			} {
				res, err := ablate(*ablSim)
				if err != nil {
					return "", err
				}
				out = append(out, res.String())
			}
			return strings.Join(out, "\n"), nil
		}},
	}
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	valid := strings.Join(names, ", ")
	only := fs.String("only", "", "run a single experiment: "+valid)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if *full {
		fid = harvester.PaperScale
	}
	if *only != "" && !slices.Contains(names, *only) {
		fmt.Fprintf(stderr, "benchtab: unknown experiment %q; valid: %s\n", *only, valid)
		return 2
	}
	for _, e := range experiments {
		if *only != "" && *only != e.name {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(stderr, "benchtab: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, out)
	}
	return 0
}

// render is the common tail of the single-result experiments.
func render[T fmt.Stringer](res T, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return res.String(), nil
}
