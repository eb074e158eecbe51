package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The passbench command is exercised end to end through run(), which
// takes its argv and streams explicitly.
func TestRun(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "results.json")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout []string // substrings stdout must hold
		stderr []string // substrings stderr must hold
		json   string   // the IDs the -json file must hold, in order
	}{
		{name: "E14", args: []string{"-scale", "0.05", "-run", "E14"},
			stdout: []string{"E14", "survivability", "passnet", "dht", "dropped-msgs"}},
		// IDs are case-insensitive.
		{name: "e17", args: []string{"-scale", "0.05", "-run", "e17"},
			stdout: []string{"E17", "Membership", "handoff-bytes", "conv-rounds", "dht", "passnet"}},
		{name: "e18", args: []string{"-scale", "0.05", "-run", "e18"},
			stdout: []string{"E18", "overload", "shed", "p999-ms", "central-adm", "passnet"}},
		{name: "unknown", args: []string{"-run", "E14,E99"}, code: 2,
			stderr: []string{`unknown experiment "E99"`, "available: E1 E2", " E18\n"}},
		// A usage error lists the available IDs too.
		{name: "usage", args: []string{"-no-such-flag"}, code: 2,
			stderr: []string{"usage: passbench", "-run", "available: E1 E2", " E18\n"}},
		{name: "json", args: []string{"-scale", "0.05", "-run", "E15,e16", "-json", jsonPath},
			stdout: []string{"E15", "E16", "findings written to " + jsonPath}, json: "E15,E16"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.code, stderr.String())
			}
			for _, want := range tc.stdout {
				if !strings.Contains(stdout.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, stdout.String())
				}
			}
			for _, want := range tc.stderr {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
			if tc.json != "" {
				checkJSON(t, jsonPath, tc.json)
			}
		})
	}
}

// checkJSON asserts that the -json file holds one result with findings
// per selected ID, in order, at scale 0.05.
func checkJSON(t *testing.T, path, wantIDs string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range report.Results {
		if len(r.Findings) == 0 {
			t.Errorf("%s has no findings", r.ID)
		}
		ids = append(ids, r.ID)
	}
	if got := strings.Join(ids, ","); got != wantIDs || report.Scale != 0.05 {
		t.Fatalf("json holds %s at scale %v, want %s at 0.05", got, report.Scale, wantIDs)
	}
}
