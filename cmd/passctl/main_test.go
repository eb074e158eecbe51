package main

import (
	"bytes"
	"strings"
	"testing"
)

// The passctl command is exercised end to end through run(), which takes
// its argv and streams explicitly.

func ctl(t *testing.T, store string, stdin string, args ...string) (string, error) {
	t.Helper()
	var out bytes.Buffer
	argv := append([]string{"-store", store}, args...)
	err := run(argv, strings.NewReader(stdin), &out)
	return out.String(), err
}

const sampleCSV = `# sensor,unixnano,value[,label]
cam-1,1000000000,55.5,plate:abc
cam-1,2000000000,61.2
cam-2,1500000000,48.0
`

func TestIngestQueryRoundTrip(t *testing.T) {
	store := t.TempDir()
	out, err := ctl(t, store, sampleCSV, "ingest", "-attrs", "domain=traffic,zone=boston")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "ingested 3 readings") {
		t.Fatalf("ingest output: %q", out)
	}
	out, err = ctl(t, store, "", "query", "domain=traffic AND zone=boston")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "1 result(s)") {
		t.Fatalf("query output: %q", out)
	}
	// Extract the ID from the query output for record/lineage commands.
	id := strings.Fields(out)[0]
	out, err = ctl(t, store, "", "record", id)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"type:    raw", "zone = boston", "payload: present=true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("record output missing %q:\n%s", want, out)
		}
	}
	out, err = ctl(t, store, "", "lineage", id)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[raw]") {
		t.Fatalf("lineage output: %q", out)
	}
	out, err = ctl(t, store, "", "descendants", id)
	if err != nil || !strings.Contains(out, "0 descendant(s)") {
		t.Fatalf("descendants output: %q, %v", out, err)
	}
}

func TestIngestDerivesWindowAttrs(t *testing.T) {
	store := t.TempDir()
	if _, err := ctl(t, store, sampleCSV, "ingest", "-attrs", "domain=traffic"); err != nil {
		t.Fatal(err)
	}
	// Overlap query between the min and max reading times must hit.
	out, err := ctl(t, store, "", "query", "OVERLAPS [1200000000, 1300000000]")
	if err != nil || !strings.Contains(out, "1 result(s)") {
		t.Fatalf("window query: %q, %v", out, err)
	}
}

func TestGCAndVerify(t *testing.T) {
	store := t.TempDir()
	if _, err := ctl(t, store, sampleCSV, "ingest", "-attrs", "zone=boston"); err != nil {
		t.Fatal(err)
	}
	out, err := ctl(t, store, "", "gc", "-before", "9000000000")
	if err != nil || !strings.Contains(out, "collected 1 payload(s)") {
		t.Fatalf("gc: %q, %v", out, err)
	}
	out, err = ctl(t, store, "", "verify")
	if err != nil {
		t.Fatalf("verify: %v\n%s", err, out)
	}
	if !strings.Contains(out, "store is consistent") || !strings.Contains(out, "collected:        1") {
		t.Fatalf("verify output: %q", out)
	}
	out, err = ctl(t, store, "", "stats")
	if err != nil || !strings.Contains(out, "records:        1") {
		t.Fatalf("stats: %q, %v", out, err)
	}
}

func TestErrors(t *testing.T) {
	store := t.TempDir()
	cases := [][]string{
		{},                              // missing command
		{"bogus"},                       // unknown command
		{"query"},                       // missing expression
		{"record", "nothex"},            // bad id
		{"gc"},                          // missing -before
		{"gc", "-before", "not-a-time"}, // bad cutoff
	}
	for _, args := range cases {
		if _, err := ctl(t, store, "", args...); err == nil {
			t.Errorf("args %v succeeded, want error", args)
		}
	}
	// Missing -store entirely.
	var out bytes.Buffer
	if err := run([]string{"stats"}, strings.NewReader(""), &out); err == nil {
		t.Error("missing -store accepted")
	}
	// Empty stdin ingest.
	if _, err := ctl(t, store, "", "ingest"); err == nil {
		t.Error("empty ingest accepted")
	}
	// Malformed CSV.
	if _, err := ctl(t, store, "only-two,fields", "ingest"); err == nil {
		t.Error("malformed CSV accepted")
	}
	if _, err := ctl(t, store, "s,notanumber,3", "ingest"); err == nil {
		t.Error("bad time accepted")
	}
	// Bad attrs.
	if _, err := ctl(t, store, sampleCSV, "ingest", "-attrs", "novalue"); err == nil {
		t.Error("bad attr spec accepted")
	}
}

func TestTypedAttrParsing(t *testing.T) {
	attrs, err := parseAttrs("n=42,f=2.5,b=true,s=hello,t=2005-04-05T00:00:00Z")
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, a := range attrs {
		kinds[a.Key] = a.Value.Kind.String()
	}
	want := map[string]string{"n": "int", "f": "float", "b": "bool", "s": "string", "t": "time"}
	for k, w := range want {
		if kinds[k] != w {
			t.Errorf("attr %s parsed as %s, want %s", k, kinds[k], w)
		}
	}
}
