// Quickstart: the smallest useful tour of a local PASS store.
//
// It ingests one tuple set of camera readings, derives a filtered set
// from it, annotates the raw data with a sensor-upgrade note, then shows
// the three query shapes the paper cares about: attribute search,
// time-window overlap, and transitive lineage.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"pass/internal/core"
	"pass/internal/index"
	"pass/internal/provenance"
	"pass/internal/tuple"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run performs the tour, printing each step and query answer to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "pass-quickstart-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, err := core.Open(dir, core.Options{})
	if err != nil {
		return err
	}
	defer store.Close()

	// 1. Ingest a tuple set: one hour of speed readings from two cameras.
	start := time.Date(2005, 4, 5, 9, 0, 0, 0, time.UTC)
	readings := &tuple.Set{}
	for i := 0; i < 20; i++ {
		readings.Append(tuple.Reading{
			SensorID: fmt.Sprintf("cam-%d", i%2),
			Time:     start.Add(time.Duration(i) * 3 * time.Minute).UnixNano(),
			Value:    40 + float64(i%7)*5, // km/h
		})
	}
	rawID, err := store.IngestTupleSet(readings,
		provenance.Attr(provenance.KeyDomain, provenance.String("traffic")),
		provenance.Attr(provenance.KeyZone, provenance.String("london")),
		provenance.Attr(provenance.KeySensorClass, provenance.String("camera")),
		provenance.Attr(provenance.KeyStart, provenance.TimeVal(start)),
		provenance.Attr(provenance.KeyEnd, provenance.TimeVal(start.Add(time.Hour))),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "ingested raw tuple set:", rawID.Short())

	// 2. Derive: keep only speeders (>= 60 km/h). The derivation's
	// provenance names its input and the tool that produced it.
	speeders := &tuple.Set{}
	for _, r := range readings.Readings {
		if r.Value >= 60 {
			speeders.Append(r)
		}
	}
	fastID, err := store.Derive([]provenance.ID{rawID}, "speed-filter", "1.2", speeders,
		provenance.Attr(provenance.KeyDomain, provenance.String("traffic")),
		provenance.Attr("threshold-kmh", provenance.Int64(60)),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "derived speeder set:   ", fastID.Short(), "-", speeders.Len(), "readings")

	// 3. Annotate the raw data: camera 1 was replaced mid-window — the
	// kind of note the paper says filenames cannot carry.
	noteID, err := store.Annotate([]provenance.ID{rawID},
		provenance.Attr(provenance.KeyNote, provenance.String("cam-1 replaced with model B")),
		provenance.Attr(provenance.KeyUpgrade, provenance.Bool(true)),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "annotation:            ", noteID.Short())

	// 4. Query by attribute (the provenance IS the name).
	ids, err := store.QueryString(`domain=traffic AND zone=london`)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nattribute query 'domain=traffic AND zone=london':", len(ids), "record(s)")

	// 5. Query by time overlap.
	ids, err = store.QueryString(fmt.Sprintf("OVERLAPS [%d, %d]",
		start.Add(30*time.Minute).UnixNano(), start.Add(40*time.Minute).UnixNano()))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "time-overlap query:", len(ids), "record(s)")

	// 6. Lineage: where did the speeder set come from?
	tree, err := store.LineageTree(fastID, 4)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nlineage of the speeder set:")
	fmt.Fprint(w, tree)

	// 7. Forward closure: what was touched by the raw data? (taint)
	desc, err := store.Descendants(rawID, index.NoLimit)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "descendants of the raw set:", len(desc), "(filter output + annotation)")

	// 8. The audit that backs the Reliability criterion.
	rep, err := store.VerifyConsistency()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nconsistency audit: records=%d clean=%v\n", rep.Records, rep.Clean())
	return nil
}
