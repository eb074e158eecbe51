package harness

import (
	"fmt"
	"os"
	"strings"
	"time"

	"pass/internal/core"
	"pass/internal/index"
	"pass/internal/metrics"
	"pass/internal/provenance"
	"pass/internal/query"
	"pass/internal/tuple"
	"pass/internal/workload"
)

// Experiments over the local PASS: E1–E4, E10, E12.

func monotonicClock() func() int64 {
	var t int64
	return func() int64 { t++; return t }
}

// dirSize sums the sizes of a directory's regular files.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total
}

func openScratchStore(pattern string) (*core.Store, func(), error) {
	dir, cleanup, err := tempDir(pattern)
	if err != nil {
		return nil, nil, err
	}
	s, err := core.Open(dir, core.Options{Clock: monotonicClock()})
	if err != nil {
		cleanup()
		return nil, nil, err
	}
	return s, func() { s.Close(); cleanup() }, nil
}

// E1Granularity — §II: "We could conceivably index every sensor reading,
// or tuple, individually. However, this appears infeasible, due to the
// sheer number of readings." The experiment ingests the same reading
// stream grouped at different tuple-set sizes and reports record counts,
// on-disk bytes, ingest time, and query latency.
func (r *Runner) E1Granularity() (*Result, error) {
	totalReadings := r.scale.n(20000)
	readings := make([]tuple.Reading, 0, totalReadings)
	rng := workload.NewRand(11)
	for i := 0; i < totalReadings; i++ {
		readings = append(readings, tuple.Reading{
			SensorID: fmt.Sprintf("cam-%02d", rng.Intn(16)),
			Time:     int64(i) * int64(time.Second),
			Value:    40 + 10*rng.Norm(),
		})
	}

	table := metrics.NewTable("E1: indexing granularity ("+fmt.Sprint(totalReadings)+" readings)",
		"set-size", "records", "kv-entries", "disk-bytes", "ingest-ms", "query-us")
	findings := map[string]float64{}

	for _, setSize := range []int{1, 10, 100, 1000} {
		s, done, err := openScratchStore("e1")
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var recs int
		for base := 0; base < len(readings); base += setSize {
			end := base + setSize
			if end > len(readings) {
				end = len(readings)
			}
			ts := &tuple.Set{Readings: readings[base:end]}
			first, last := readings[base].Time, readings[end-1].Time
			_, err := s.IngestTupleSet(ts,
				provenance.Attr(provenance.KeyDomain, provenance.String("traffic")),
				provenance.Attr(provenance.KeyZone, provenance.String("london")),
				provenance.Attr(provenance.KeyStart, provenance.TimeVal(time.Unix(0, first))),
				provenance.Attr(provenance.KeyEnd, provenance.TimeVal(time.Unix(0, last))),
			)
			if err != nil {
				done()
				return nil, err
			}
			recs++
		}
		ingest := time.Since(start)
		if err := s.KV().Flush(); err != nil {
			done()
			return nil, err
		}
		kv := s.KV().Stats()
		diskBytes := dirSize(s.KV().Dir())
		qStart := time.Now()
		ids, err := s.Query(query.AttrEq{Key: provenance.KeyZone, Value: provenance.String("london")})
		if err != nil {
			done()
			return nil, err
		}
		qLat := time.Since(qStart)
		table.AddRow(setSize, recs, kv.TableEntries, diskBytes,
			float64(ingest.Milliseconds()), float64(qLat.Microseconds()))
		findings[fmt.Sprintf("entries_size%d", setSize)] = float64(kv.TableEntries)
		findings[fmt.Sprintf("records_size%d", setSize)] = float64(recs)
		findings[fmt.Sprintf("querylat_us_size%d", setSize)] = float64(qLat.Microseconds())
		_ = ids
		done()
	}
	findings["entry_ratio_1_vs_1000"] = findings["entries_size1"] / findings["entries_size1000"]
	return &Result{
		ID:       "E1",
		Title:    "Indexing granularity: per-tuple vs tuple-set",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"shape check: per-tuple indexing (set-size 1) must cost orders of magnitude more index entries and ingest time than tuple sets",
		},
	}, nil
}

// Conventional filenames (§II-A) are the strawman E2 measures, fixed to
// the paper's example "volcano_vesuvius_10_11_04": the first value of
// each of nameFields, most significant first, then the record's window
// start at day resolution, joined by nameSep. A field the record lacks
// renders as nameMissing. Everything else about the record is dropped.
var nameFields = []string{provenance.KeyDomain, provenance.KeyZone, provenance.KeySensorClass}

const (
	nameTimeLayout = "06_01_02"
	nameSep        = "_"
	nameMissing    = "x"
)

// nameTimeParts is how many separator-split components the time takes.
var nameTimeParts = len(strings.Split(nameTimeLayout, nameSep))

// sanitizeName keeps a component from colliding with the separator.
func sanitizeName(s string) string { return strings.ReplaceAll(s, nameSep, "-") }

// encodeName renders the record's conventional filename. A missing time
// is one marker per time component, so every name has the same shape.
func encodeName(rec *provenance.Record) string {
	parts := make([]string, 0, len(nameFields)+nameTimeParts)
	for _, f := range nameFields {
		if v, ok := rec.Get(f); ok {
			parts = append(parts, sanitizeName(v.AsString()))
		} else {
			parts = append(parts, nameMissing)
		}
	}
	if start, _, ok := rec.TimeRange(); ok {
		parts = append(parts, time.Unix(0, start).UTC().Format(nameTimeLayout))
	} else {
		for range nameTimeParts {
			parts = append(parts, nameMissing)
		}
	}
	return strings.Join(parts, nameSep)
}

// parsedName is what a filename gives back: string-flattened field
// values and, when present, the day-resolution window start.
type parsedName struct {
	fields  map[string]string
	start   time.Time
	hasTime bool
}

// parseName recovers the fields of a conventional filename; ok is false
// when the name does not have the convention's shape.
func parseName(name string) (p parsedName, ok bool) {
	parts := strings.Split(name, nameSep)
	if len(parts) != len(nameFields)+nameTimeParts {
		return parsedName{}, false
	}
	p.fields = make(map[string]string, len(nameFields))
	for i, f := range nameFields {
		if parts[i] != nameMissing {
			p.fields[f] = parts[i]
		}
	}
	// Missing markers do not parse as a date, so they leave hasTime false.
	if t, err := time.Parse(nameTimeLayout, strings.Join(parts[len(nameFields):], nameSep)); err == nil {
		p.start, p.hasTime = t, true
	}
	return p, true
}

// nameCanExpress reports whether a query on key can be answered from
// filenames at all: "additional important information about the data
// may not be readily expressible in the filename".
func nameCanExpress(key string) bool {
	for _, f := range nameFields {
		if f == key {
			return true
		}
	}
	return key == provenance.KeyStart
}

// matchName answers an attribute-equality query from a filename alone.
// Inexpressible keys never match (recall loss); flattened values can
// collide across types (precision loss).
func matchName(name, key, value string) bool {
	p, ok := parseName(name)
	if !ok {
		return false
	}
	got, ok := p.fields[key]
	return ok && got == sanitizeName(value)
}

// E2Naming — §II-A's eight objections to conventional filenames. The same
// corpus is named both ways; six query classes are answered from (a)
// filenames alone and (b) the provenance index, and scored for
// precision/recall against ground truth.
func (r *Runner) E2Naming() (*Result, error) {
	s, done, err := openScratchStore("e2")
	if err != nil {
		return nil, err
	}
	defer done()

	sets := workload.Generate(workload.Config{
		Domain:  workload.DomainVolcano,
		Zones:   []string{"vesuvius", "etna", "rainier"},
		Windows: r.scale.n(60), SensorsPerZone: 3,
		WindowDur: time.Hour, Seed: 22,
	})
	sets = append(sets, workload.Generate(workload.Config{
		Domain:  workload.DomainTraffic,
		Zones:   []string{"london", "boston"},
		Windows: r.scale.n(60), SensorsPerZone: 3,
		WindowDur: time.Hour, Seed: 23,
	})...)
	// Tag half the sets with a software version (the paper's sensor
	// upgrade example: information a filename cannot carry).
	for i := range sets {
		if i%2 == 0 {
			sets[i].Attrs = append(sets[i].Attrs,
				provenance.Attr(provenance.KeySoftware, provenance.String("fw-2.1")))
		}
	}
	ids, err := workload.IngestAll(s, sets)
	if err != nil {
		return nil, err
	}

	// Conventional filenames for the same records.
	names := make([]string, len(sets))
	records := make([]*provenance.Record, len(sets))
	for i, id := range ids {
		rec, err := s.GetRecord(id)
		if err != nil {
			return nil, err
		}
		records[i] = rec
		names[i] = encodeName(rec)
	}

	// Query classes: (description, attr key, attr value, PASS predicate).
	type class struct {
		name  string
		key   string
		value provenance.Value
	}
	classes := []class{
		{"domain=volcano", provenance.KeyDomain, provenance.String("volcano")},
		{"zone=vesuvius", provenance.KeyZone, provenance.String("vesuvius")},
		{"sensor-class=camera", provenance.KeySensorClass, provenance.String("camera")},
		{"sensor-id=<one sensor>", provenance.KeySensorID, provenance.String("vesuvius-vol-01")},
		{"software=fw-2.1", provenance.KeySoftware, provenance.String("fw-2.1")},
	}

	table := metrics.NewTable("E2: filenames vs provenance-as-name",
		"query", "expressible", "file-prec", "file-recall", "pass-prec", "pass-recall")
	findings := map[string]float64{}

	for _, c := range classes {
		// Ground truth by flat scan.
		var truth []provenance.ID
		for i, rec := range records {
			if rec.Has(c.key, c.value) {
				truth = append(truth, ids[i])
			}
		}
		// Filename answer.
		var fileGot []provenance.ID
		for i, name := range names {
			if matchName(name, c.key, c.value.AsString()) {
				fileGot = append(fileGot, ids[i])
			}
		}
		fileQ := query.Score(fileGot, truth)
		// PASS answer.
		passGot, err := s.Query(query.AttrEq{Key: c.key, Value: c.value})
		if err != nil {
			return nil, err
		}
		passQ := query.Score(passGot, truth)
		expressible := nameCanExpress(c.key)
		table.AddRow(c.name, expressible, fileQ.Precision, fileQ.Recall, passQ.Precision, passQ.Recall)
		findings["file_recall_"+c.key] = fileQ.Recall
		findings["pass_recall_"+c.key] = passQ.Recall
	}
	return &Result{
		ID:       "E2",
		Title:    "Conventional filenames vs provenance-as-name",
		Table:    table,
		Findings: findings,
		Notes: []string{
			"inexpressible attributes (sensor-id, software) have file recall 0 while PASS stays at 1",
		},
	}, nil
}

// E3IndexStructures — §II-B: flat name-to-value scans vs the augmented
// index structures (inverted + time-interval + ancestry).
func (r *Runner) E3IndexStructures() (*Result, error) {
	s, done, err := openScratchStore("e3")
	if err != nil {
		return nil, err
	}
	defer done()

	sets := workload.Generate(workload.Config{
		Domain:  workload.DomainTraffic,
		Zones:   []string{"london", "boston", "tokyo", "seattle"},
		Windows: r.scale.n(250), SensorsPerZone: 4,
		WindowDur: time.Hour, Seed: 33,
	})
	if _, err := workload.IngestAll(s, sets); err != nil {
		return nil, err
	}
	// Add a lineage component for the recursive query.
	chain, err := workload.BuildChain(s, r.scale.n(48), 34)
	if err != nil {
		return nil, err
	}

	preds := []struct {
		name string
		p    query.Predicate
	}{
		{"zone=london AND domain=traffic", query.And{Preds: []query.Predicate{
			query.AttrEq{Key: provenance.KeyZone, Value: provenance.String("london")},
			query.AttrEq{Key: provenance.KeyDomain, Value: provenance.String("traffic")},
		}}},
		{"time overlap (1 window)", query.TimeOverlap{Start: 0, End: time.Hour.Nanoseconds()}},
		{"ancestors(chain leaf)", query.AncestorsOf{ID: chain[len(chain)-1], MaxDepth: index.NoLimit}},
	}

	table := metrics.NewTable("E3: flat scan vs index structures",
		"query", "flat-us", "indexed-us", "speedup", "results")
	findings := map[string]float64{}

	for _, pc := range preds {
		// Indexed.
		t0 := time.Now()
		indexed, err := s.Query(pc.p)
		if err != nil {
			return nil, err
		}
		indexedLat := time.Since(t0)

		// Flat: scan every record; ancestry flat baseline loads the whole
		// record set and walks parents by map.
		t0 = time.Now()
		var flat int
		if anc, ok := pc.p.(query.AncestorsOf); ok {
			all := make(map[provenance.ID]*provenance.Record)
			s.ScanRecords(func(id provenance.ID, rec *provenance.Record) bool {
				all[id] = rec
				return true
			})
			seen := map[provenance.ID]struct{}{}
			stack := []provenance.ID{anc.ID}
			for len(stack) > 0 {
				cur := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				rec, ok := all[cur]
				if !ok {
					continue
				}
				for _, p := range rec.Parents {
					if _, dup := seen[p]; !dup {
						seen[p] = struct{}{}
						stack = append(stack, p)
					}
				}
			}
			flat = len(seen)
		} else {
			s.ScanRecords(func(id provenance.ID, rec *provenance.Record) bool {
				if m, _ := query.Match(rec, pc.p); m {
					flat++
				}
				return true
			})
		}
		flatLat := time.Since(t0)
		if flat != len(indexed) {
			return nil, fmt.Errorf("E3 %q: flat %d != indexed %d", pc.name, flat, len(indexed))
		}
		speedup := float64(flatLat) / float64(maxDur(indexedLat, time.Microsecond))
		table.AddRow(pc.name, float64(flatLat.Microseconds()), float64(indexedLat.Microseconds()),
			speedup, len(indexed))
		findings["speedup_"+pc.name[:4]] = speedup
	}
	return &Result{
		ID:       "E3",
		Title:    "Flat name-value scan vs augmented index structures",
		Table:    table,
		Findings: findings,
		Notes:    []string{"shape check: indexed execution wins on every class and the gap grows with corpus size"},
	}, nil
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// E4TransitiveClosure — §III-B/D: closure latency vs DAG depth and shape,
// naive BFS vs memoized closure (cold and warm).
func (r *Runner) E4TransitiveClosure() (*Result, error) {
	table := metrics.NewTable("E4: transitive closure",
		"shape", "closure-size", "naive-us", "memo-cold-us", "memo-warm-us", "warm-speedup")
	findings := map[string]float64{}

	type shape struct {
		name  string
		build func(s *core.Store) (provenance.ID, error)
	}
	shapes := []shape{
		{"chain-16", func(s *core.Store) (provenance.ID, error) {
			ids, err := workload.BuildChain(s, 16, 41)
			if err != nil {
				return provenance.ZeroID, err
			}
			return ids[len(ids)-1], nil
		}},
		{fmt.Sprintf("chain-%d", r.scale.n(64)), func(s *core.Store) (provenance.ID, error) {
			ids, err := workload.BuildChain(s, r.scale.n(64), 42)
			if err != nil {
				return provenance.ZeroID, err
			}
			return ids[len(ids)-1], nil
		}},
		{"tree-d6-f2 (leafward)", func(s *core.Store) (provenance.ID, error) {
			levels, err := workload.BuildTree(s, 6, 2, 43)
			if err != nil {
				return provenance.ZeroID, err
			}
			leaves := levels[len(levels)-1]
			return leaves[len(leaves)-1], nil
		}},
		{"fanin-32", func(s *core.Store) (provenance.ID, error) {
			_, final, err := workload.BuildFanIn(s, 32, 44)
			return final, err
		}},
	}

	for _, sh := range shapes {
		s, done, err := openScratchStore("e4")
		if err != nil {
			return nil, err
		}
		target, err := sh.build(s)
		if err != nil {
			done()
			return nil, err
		}
		ix := s.Index()

		t0 := time.Now()
		naive, err := ix.NaiveAncestors(target, index.NoLimit)
		if err != nil {
			done()
			return nil, err
		}
		naiveLat := time.Since(t0)

		t0 = time.Now()
		cold, err := ix.Ancestors(target, index.NoLimit)
		if err != nil {
			done()
			return nil, err
		}
		coldLat := time.Since(t0)

		t0 = time.Now()
		warm, err := ix.Ancestors(target, index.NoLimit)
		if err != nil {
			done()
			return nil, err
		}
		warmLat := time.Since(t0)

		if len(naive) != len(cold) || len(cold) != len(warm) {
			done()
			return nil, fmt.Errorf("E4 %s: result size mismatch %d/%d/%d", sh.name, len(naive), len(cold), len(warm))
		}
		speedup := float64(naiveLat) / float64(maxDur(warmLat, time.Nanosecond))
		table.AddRow(sh.name, len(naive), float64(naiveLat.Microseconds()),
			float64(coldLat.Microseconds()), float64(warmLat.Microseconds()), speedup)
		findings["warm_speedup_"+sh.name] = speedup
		findings["size_"+sh.name] = float64(len(naive))
		done()
	}
	return &Result{
		ID:       "E4",
		Title:    "Transitive closure: naive walk vs memoized",
		Table:    table,
		Findings: findings,
		Notes:    []string{"ancestor sets are immutable in append-only provenance, so warm closure answers are cache hits"},
	}, nil
}

// E10Recovery — §IV Reliability: crash (no Close), reopen, audit; recovery
// time vs WAL size.
func (r *Runner) E10Recovery() (*Result, error) {
	table := metrics.NewTable("E10: crash recovery",
		"records", "wal-bytes", "recover-ms", "clean", "dangling", "broken-index")
	findings := map[string]float64{}

	// Each corpus size is an independent store in its own scratch
	// directory — but the cells run SERIALLY even in parallel mode:
	// recover-ms is a real wall-clock latency measurement, and a sibling
	// cell ingesting on the same disk and cores would contaminate it
	// with scheduler contention rather than measure recovery.
	cells := []int{r.scale.n(1000), r.scale.n(3000), r.scale.n(6000)}
	type out struct {
		records   int
		walBytes  int64
		recoverMs float64
		clean     bool
		dangling  int
		brokenIx  int
	}
	runCell := func(n int) (out, error) {
		dir, cleanup, err := tempDir("e10")
		if err != nil {
			return out{}, err
		}
		defer cleanup()
		s, err := core.Open(dir, core.Options{Clock: monotonicClock()})
		if err != nil {
			return out{}, err
		}
		defer s.Close() // release fds of the abandoned instance
		sets := workload.Generate(workload.Config{
			Domain:  workload.DomainWeather,
			Zones:   []string{"boston"},
			Windows: n, SensorsPerZone: 1, ReadingsPerSensor: 2,
			WindowDur: time.Minute, Seed: uint64(n),
		})
		if _, err := workload.IngestAll(s, sets); err != nil {
			return out{}, err
		}
		// Interleave derivations so the lineage graph is at risk too.
		if _, err := workload.BuildChain(s, 20, uint64(n)); err != nil {
			return out{}, err
		}
		walBytes := s.KV().Stats().WALSize
		// Crash: abandon s without Close.

		t0 := time.Now()
		s2, err := core.Open(dir, core.Options{Clock: monotonicClock()})
		if err != nil {
			return out{}, err
		}
		defer s2.Close()
		recoverLat := time.Since(t0)
		rep, err := s2.VerifyConsistency()
		if err != nil {
			return out{}, err
		}
		return out{
			records:   rep.Records,
			walBytes:  walBytes,
			recoverMs: float64(recoverLat.Milliseconds()),
			clean:     rep.Clean(),
			dangling:  rep.DanglingParents,
			brokenIx:  rep.BrokenIndex,
		}, nil
	}
	for _, n := range cells {
		o, err := runCell(n)
		if err != nil {
			return nil, err
		}
		table.AddRow(o.records, o.walBytes, o.recoverMs, o.clean, o.dangling, o.brokenIx)
		findings[fmt.Sprintf("clean_%d", n)] = b2f(o.clean)
		findings[fmt.Sprintf("recover_ms_%d", n)] = o.recoverMs
	}
	return &Result{
		ID:       "E10",
		Title:    "Crash recovery: provenance consistent with data",
		Table:    table,
		Findings: findings,
		Notes:    []string{"shape check: every recovery audit is clean; recovery time grows ~linearly with WAL size"},
	}, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// E12PASSProperties — §V: P1–P4 as measurements.
func (r *Runner) E12PASSProperties() (*Result, error) {
	s, done, err := openScratchStore("e12")
	if err != nil {
		return nil, err
	}
	defer done()

	table := metrics.NewTable("E12: PASS properties", "property", "check", "value")
	findings := map[string]float64{}

	// P3: k ingests of distinct data with identical attributes yield k
	// distinct IDs.
	k := r.scale.n(2000)
	seen := make(map[provenance.ID]struct{}, k)
	rng := workload.NewRand(77)
	for i := 0; i < k; i++ {
		ts := &tuple.Set{}
		ts.Append(tuple.Reading{SensorID: "p3", Time: int64(i), Value: rng.Float64()})
		id, err := s.IngestTupleSet(ts, provenance.Attr("fixed", provenance.String("attrs")))
		if err != nil {
			return nil, err
		}
		seen[id] = struct{}{}
	}
	collisions := k - len(seen)
	table.AddRow("P3 distinct provenance", fmt.Sprintf("%d ingests", k), fmt.Sprintf("%d collisions", collisions))
	findings["p3_collisions"] = float64(collisions)

	// P4: GC every intermediate payload of a chain; closure still complete.
	chain, err := workload.BuildChain(s, 24, 78)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	removed := 0
	for _, id := range chain[:len(chain)-1] {
		if err := s.RemoveData(id); err != nil {
			return nil, err
		}
		removed++
	}
	gcLat := time.Since(t0)
	anc, err := s.Ancestors(chain[len(chain)-1], index.NoLimit)
	if err != nil {
		return nil, err
	}
	table.AddRow("P4 closure after GC", fmt.Sprintf("%d payloads removed", removed),
		fmt.Sprintf("%d/%d ancestors reachable", len(anc), len(chain)-1))
	findings["p4_ancestors_after_gc"] = float64(len(anc))
	findings["p4_expected"] = float64(len(chain) - 1)
	findings["gc_us_per_record"] = float64(gcLat.Microseconds()) / float64(removed)

	// P2: provenance queryable — attribute query returns the P3 corpus.
	got, err := s.Query(query.AttrEq{Key: "fixed", Value: provenance.String("attrs")})
	if err != nil {
		return nil, err
	}
	table.AddRow("P2 queryable", "attr query over P3 corpus", fmt.Sprintf("%d/%d found", len(got), k))
	findings["p2_found"] = float64(len(got))
	findings["p2_expected"] = float64(k)

	// P1: first-class — records decode to typed attributes, not strings.
	rec, err := s.GetRecord(chain[0])
	if err != nil {
		return nil, err
	}
	typed := len(rec.Attributes) > 0 && rec.Attributes[0].Value.Kind != 0
	table.AddRow("P1 first-class", "typed attributes on decode", typed)
	findings["p1_typed"] = b2f(typed)

	// Audit stays clean through all of the above.
	rep, err := s.VerifyConsistency()
	if err != nil {
		return nil, err
	}
	table.AddRow("audit", "VerifyConsistency", rep.Clean())
	findings["audit_clean"] = b2f(rep.Clean())

	return &Result{
		ID:       "E12",
		Title:    "PASS properties P1–P4",
		Table:    table,
		Findings: findings,
	}, nil
}
