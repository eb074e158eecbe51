package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the answers the tour prints: the attribute and time-window
// queries each find the raw set, the speeder set has the raw set as its
// one lineage root, and the audit is clean over all three records.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"8 readings",
		"attribute query 'domain=traffic AND zone=london': 1 record(s)",
		"time-overlap query: 1 record(s)",
		"[derived via speed-filter 1.2]",
		"descendants of the raw set: 2 ",
		"records=3 clean=true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if n := strings.Count(out.String(), "[raw]"); n != 1 {
		t.Errorf("lineage has %d raw roots, want 1:\n%s", n, out.String())
	}
}
