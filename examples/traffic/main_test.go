package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the pipeline's answers: both daily aggregates, the join's
// 18 raw origins, and that every origin survives the payload GC.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ingested 12 traffic and 6 weather tuple sets",
		"daily aggregate for london:",
		"daily aggregate for boston:",
		"provenance audit of the join: 18 raw origin sets",
		"tuple sets handled by 'daily-aggregate': 2",
		"join reachable from first london window: true",
		"GC: collected 9 early-morning payloads",
		"origins still resolvable after GC: 18/18",
		"audit: records=22 collected=9 clean=true",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
