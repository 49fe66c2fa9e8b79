package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestUnknownExperimentExits2(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "bogus"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if out.Len() != 0 {
		t.Errorf("printed tables for an unknown experiment:\n%s", out.String())
	}
	for _, name := range []string{"table1", "table2", "fig8a", "fig8b", "fig9", "xengine", "ablations"} {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("stderr does not list %q: %s", name, errb.String())
		}
	}
}

func TestOnlyRunsOneExperiment(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "table1", "-table1-sim", "0.05"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "Table I") || strings.Contains(out.String(), "Table II") {
		t.Errorf("want Table I alone:\n%s", out.String())
	}
}
