package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the answers to the paper's four EMT queries and to the
// taint query, and that the hand-off lineage reaches patient-08's three
// raw windows.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"everything for patient-08": 5 records`,
		`"patient-07 from arrival to +15min": 2 raw windows`,
		`"profiles handled by emt-jones": 6 windows across 2 patients`,
		`"patients with arrhythmia": patient-08 (diagnosis `,
		"auto-diagnose produced/tainted 3 data sets",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "[raw]"); n != 3 {
		t.Errorf("hand-off lineage has %d raw windows, want 3:\n%s", n, out.String())
	}
}
