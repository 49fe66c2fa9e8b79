package batch

import (
	"context"
	"errors"
	"math"
	"testing"

	"harvsim/internal/harvester"
)

// TestRunFailsInvalidConfigJobs sends each non-physical value through
// batch.Run: its job must come back as a failed Result carrying the
// typed harvester.ConfigError, never a panic, while its neighbours and
// the zero "use the default" values run.
func TestRunFailsInvalidConfigJobs(t *testing.T) {
	cases := []struct {
		name  string
		set   func(*harvester.Config)
		field string // "" = the job must run
	}{
		{"stages=0", func(c *harvester.Config) { c.Dickson.Stages = 0 }, "Dickson.Stages"},
		{"stages=-1", func(c *harvester.Config) { c.Dickson.Stages = -1 }, "Dickson.Stages"},
		{"cstage<0", func(c *harvester.Config) { c.Dickson.CStage = -1e-6 }, "Dickson.CStage"},
		{"cstage=NaN", func(c *harvester.Config) { c.Dickson.CStage = math.NaN() }, "Dickson.CStage"},
		{"cout<0", func(c *harvester.Config) { c.Dickson.COut = -1e-6 }, "Dickson.COut"},
		{"rc<0", func(c *harvester.Config) { c.Microgen.Rc = -10 }, "Microgen.Rc"},
		{"freq<0", func(c *harvester.Config) { c.VibFreq = -5 }, "VibFreq"},
		{"hmax<0", func(c *harvester.Config) { c.Solver.HMax = -1 }, "Solver.HMax"},
		{"ab_order=-1", func(c *harvester.Config) { c.Solver.ABOrder = -1 }, "Solver.ABOrder"},
		{"ab_order=5", func(c *harvester.Config) { c.Solver.ABOrder = 5 }, "Solver.ABOrder"},
		{"stages=1", func(c *harvester.Config) { c.Dickson.Stages = 1 }, ""},
		{"hmax=0 (default)", func(c *harvester.Config) { c.Solver.HMax = 0 }, ""},
		{"ab_order=0 (default)", func(c *harvester.Config) { c.Solver.ABOrder = 0 }, ""},
		{"ab_order=4", func(c *harvester.Config) { c.Solver.ABOrder = 4 }, ""},
	}
	jobs := make([]Job, len(cases))
	for i, c := range cases {
		jobs[i] = chargeJob(0.01)
		jobs[i].Name = c.name
		c.set(&jobs[i].Scenario.Cfg)
	}
	for i, r := range Run(context.Background(), jobs, Options{Cache: NewCache(0)}) {
		c := cases[i]
		if c.field == "" {
			if r.Err != nil {
				t.Errorf("%s: %v, want a run", c.name, r.Err)
			}
			continue
		}
		var ce *harvester.ConfigError
		if !errors.As(r.Err, &ce) {
			t.Errorf("%s: err %v, want a harvester.ConfigError", c.name, r.Err)
		} else if ce.Field != c.field {
			t.Errorf("%s: rejected field %s, want %s", c.name, ce.Field, c.field)
		}
	}
}
