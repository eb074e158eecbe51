// Command passctl is the operator CLI for a local PASS store: ingest
// sensor readings, derive and annotate, query by provenance, walk lineage,
// garbage-collect payloads (retaining provenance, per P4), and audit
// consistency.
//
// Usage:
//
//	passctl -store DIR <command> [args]
//
// Commands:
//
//	ingest -attrs k=v,k=v < readings.csv   ingest a tuple set (CSV: sensor,unixnano,value[,label])
//	query  'domain=traffic AND zone=boston'
//	record <hex-id>                        show one provenance record
//	lineage <hex-id> [-depth N]            ancestry tree
//	descendants <hex-id>                   taint set
//	gc -before <RFC3339|unixnano>          collect old payloads
//	verify                                 consistency audit
//	stats                                  store statistics
//
// The paper's experiments (E1–E18) run through cmd/passbench.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"pass/internal/core"
	"pass/internal/index"
	"pass/internal/provenance"
	"pass/internal/tuple"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "passctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("passctl", flag.ContinueOnError)
	storeDir := fs.String("store", "", "store directory (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("missing command (ingest|query|record|lineage|descendants|gc|verify|stats)")
	}
	if *storeDir == "" {
		return fmt.Errorf("-store is required")
	}

	s, err := core.Open(*storeDir, core.Options{})
	if err != nil {
		return err
	}
	defer s.Close()

	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "ingest":
		return cmdIngest(s, cmdArgs, stdin, stdout)
	case "query":
		return cmdQuery(s, cmdArgs, stdout)
	case "record":
		return cmdRecord(s, cmdArgs, stdout)
	case "lineage":
		return cmdLineage(s, cmdArgs, stdout)
	case "descendants":
		return cmdDescendants(s, cmdArgs, stdout)
	case "gc":
		return cmdGC(s, cmdArgs, stdout)
	case "verify":
		return cmdVerify(s, stdout)
	case "stats":
		return cmdStats(s, stdout)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// parseAttrs parses k=v,k2=v2 into typed attributes (ints, floats, bools,
// RFC3339 times, else strings).
func parseAttrs(spec string) ([]provenance.Attribute, error) {
	if spec == "" {
		return nil, nil
	}
	var out []provenance.Attribute
	for _, pair := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("bad attribute %q (want key=value)", pair)
		}
		out = append(out, provenance.Attr(k, typedValue(v)))
	}
	return out, nil
}

func typedValue(v string) provenance.Value {
	if i, err := strconv.ParseInt(v, 10, 64); err == nil {
		return provenance.Int64(i)
	}
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		return provenance.Float(f)
	}
	if v == "true" || v == "false" {
		return provenance.Bool(v == "true")
	}
	if t, err := time.Parse(time.RFC3339, v); err == nil {
		return provenance.TimeVal(t)
	}
	return provenance.String(v)
}

func cmdIngest(s *core.Store, args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("ingest", flag.ContinueOnError)
	attrSpec := fs.String("attrs", "", "comma-separated key=value provenance attributes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	attrs, err := parseAttrs(*attrSpec)
	if err != nil {
		return err
	}
	ts := &tuple.Set{}
	scanner := bufio.NewScanner(stdin)
	line := 0
	for scanner.Scan() {
		line++
		text := strings.TrimSpace(scanner.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) < 3 {
			return fmt.Errorf("line %d: want sensor,unixnano,value[,label]", line)
		}
		t, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad time: %w", line, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return fmt.Errorf("line %d: bad value: %w", line, err)
		}
		r := tuple.Reading{SensorID: strings.TrimSpace(parts[0]), Time: t, Value: v}
		if len(parts) > 3 {
			r.Label = strings.TrimSpace(parts[3])
		}
		ts.Append(r)
	}
	if err := scanner.Err(); err != nil {
		return err
	}
	if ts.Len() == 0 {
		return fmt.Errorf("no readings on stdin")
	}
	// Derive window attributes when absent.
	if _, hasStart := findAttr(attrs, provenance.KeyStart); !hasStart {
		if min, max, ok := ts.TimeRange(); ok {
			attrs = append(attrs,
				provenance.Attr(provenance.KeyStart, provenance.TimeVal(time.Unix(0, min))),
				provenance.Attr(provenance.KeyEnd, provenance.TimeVal(time.Unix(0, max))))
		}
	}
	id, err := s.IngestTupleSet(ts, attrs...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "ingested %d readings as %s\n", ts.Len(), id)
	return nil
}

func findAttr(attrs []provenance.Attribute, key string) (provenance.Value, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return provenance.Value{}, false
}

func cmdQuery(s *core.Store, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: query '<expression>'")
	}
	ids, err := s.QueryString(args[0])
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, err := s.GetRecord(id)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s  %-10s %s\n", id, rec.Type, summarizeAttrs(rec))
	}
	fmt.Fprintf(stdout, "%d result(s)\n", len(ids))
	return nil
}

func summarizeAttrs(rec *provenance.Record) string {
	var parts []string
	for i, a := range rec.Attributes {
		if i >= 4 {
			parts = append(parts, "…")
			break
		}
		parts = append(parts, a.Key+"="+a.Value.AsString())
	}
	return strings.Join(parts, " ")
}

func cmdRecord(s *core.Store, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: record <hex-id>")
	}
	id, err := provenance.ParseID(args[0])
	if err != nil {
		return err
	}
	rec, err := s.GetRecord(id)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "id:      %s\n", id)
	fmt.Fprintf(stdout, "type:    %s\n", rec.Type)
	if rec.Tool != "" {
		fmt.Fprintf(stdout, "tool:    %s %s\n", rec.Tool, rec.ToolVersion)
	}
	fmt.Fprintf(stdout, "created: %s\n", time.Unix(0, rec.Created).UTC().Format(time.RFC3339Nano))
	fmt.Fprintf(stdout, "data:    %x (%d bytes)\n", rec.DataDigest[:8], rec.DataSize)
	present, err := s.DataPresent(id)
	if err == nil && rec.Type != provenance.Annotation {
		fmt.Fprintf(stdout, "payload: present=%v\n", present)
	}
	for _, a := range rec.Attributes {
		fmt.Fprintf(stdout, "attr:    %s = %s (%s)\n", a.Key, a.Value.AsString(), a.Value.Kind)
	}
	for _, p := range rec.Parents {
		fmt.Fprintf(stdout, "parent:  %s\n", p)
	}
	return nil
}

func cmdLineage(s *core.Store, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("lineage", flag.ContinueOnError)
	depth := fs.Int("depth", 16, "maximum tree depth")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: lineage <hex-id> [-depth N]")
	}
	id, err := provenance.ParseID(fs.Arg(0))
	if err != nil {
		return err
	}
	tree, err := s.LineageTree(id, *depth)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, tree)
	return nil
}

func cmdDescendants(s *core.Store, args []string, stdout io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: descendants <hex-id>")
	}
	id, err := provenance.ParseID(args[0])
	if err != nil {
		return err
	}
	desc, err := s.Descendants(id, index.NoLimit)
	if err != nil {
		return err
	}
	for _, d := range desc {
		fmt.Fprintln(stdout, d)
	}
	fmt.Fprintf(stdout, "%d descendant(s)\n", len(desc))
	return nil
}

func cmdGC(s *core.Store, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gc", flag.ContinueOnError)
	before := fs.String("before", "", "cutoff (RFC3339 or unix nanoseconds)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *before == "" {
		return fmt.Errorf("gc requires -before")
	}
	var cutoff int64
	if i, err := strconv.ParseInt(*before, 10, 64); err == nil {
		cutoff = i
	} else if t, err := time.Parse(time.RFC3339, *before); err == nil {
		cutoff = t.UnixNano()
	} else {
		return fmt.Errorf("bad -before %q", *before)
	}
	n, err := s.RemoveDataBefore(cutoff)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "collected %d payload(s); provenance retained\n", n)
	return nil
}

func cmdVerify(s *core.Store, stdout io.Writer) error {
	rep, err := s.VerifyConsistency()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "records:          %d\n", rep.Records)
	fmt.Fprintf(stdout, "live payloads:    %d\n", rep.DataBlobs)
	fmt.Fprintf(stdout, "collected:        %d\n", rep.Collected)
	fmt.Fprintf(stdout, "dangling parents: %d\n", rep.DanglingParents)
	fmt.Fprintf(stdout, "missing data:     %d\n", rep.MissingData)
	fmt.Fprintf(stdout, "broken index:     %d\n", rep.BrokenIndex)
	fmt.Fprintf(stdout, "id mismatches:    %d\n", rep.IDMismatches)
	if !rep.Clean() {
		return fmt.Errorf("store is INCONSISTENT")
	}
	fmt.Fprintln(stdout, "store is consistent")
	return nil
}

func cmdStats(s *core.Store, stdout io.Writer) error {
	st, err := s.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "records:        %d\n", st.Records)
	fmt.Fprintf(stdout, "lsm tables:     %d (%d entries)\n", st.KV.Tables, st.KV.TableEntries)
	fmt.Fprintf(stdout, "memtable keys:  %d (%d bytes)\n", st.KV.MemtableKeys, st.KV.MemtableBytes)
	fmt.Fprintf(stdout, "wal bytes:      %d\n", st.KV.WALSize)
	fmt.Fprintf(stdout, "flushes:        %d\n", st.KV.Flushes)
	fmt.Fprintf(stdout, "compactions:    %d\n", st.KV.Compactions)
	return nil
}
