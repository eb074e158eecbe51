package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRun checks the federated answers: the volcano query routes to the one
// site that holds volcano data, the local query stays local, the closure
// finds both ancestors, and only passnet answers boston's local query
// without WAN bytes.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"boston queries domain=volcano: 4 records",
		"contacted 1 remote site(s)",
		"boston queries zone=boston:    4 records",
		"2 ancestors",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	compared := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, "boston-local query:") {
			continue
		}
		compared++
		if strings.HasPrefix(strings.TrimSpace(line), "passnet") != strings.HasSuffix(line, " 0 WAN bytes") {
			t.Errorf("only passnet should answer without WAN bytes: %q", line)
		}
	}
	if compared != 3 {
		t.Errorf("compared %d architectures, want 3:\n%s", compared, out.String())
	}
}
