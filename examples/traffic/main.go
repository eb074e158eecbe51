// Traffic: the paper's opening scenario (Section I) end to end.
//
// "While traffic data from London's Congestion Zone is useful immediately
// to ticket non-paying drivers, it is also useful in other ways: it could
// be aggregated over time to estimate the effects of changing Zone size,
// or it could be combined geographically with data from other cities ...
// Even deeper insight might be gained by merging historical traffic data
// with historical weather data."
//
// The example ingests windowed camera data for London and Boston, builds
// the aggregation/merge/join pipeline above, then answers the Section
// II-B investigator's question — "looking up the magnetometer readings
// that generated some suspect sighting data" — with a lineage query, and
// finishes with the archival story: payload GC that retains provenance.
//
//	go run ./examples/traffic
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"pass/internal/core"
	"pass/internal/provenance"
	"pass/internal/tuple"
	"pass/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the pipeline, audits it, collects payloads and prints
// each answer to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "pass-traffic-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := core.Open(dir, core.Options{})
	if err != nil {
		return err
	}
	defer store.Close()

	day := time.Date(2005, 4, 5, 0, 0, 0, 0, time.UTC)

	// --- Ingest: 6 hourly windows per city of congestion-zone sightings.
	traffic := workload.Generate(workload.Config{
		Domain:  workload.DomainTraffic,
		Zones:   []string{"london", "boston"},
		Windows: 6, SensorsPerZone: 4, ReadingsPerSensor: 12,
		WindowDur: time.Hour, StartTime: day.UnixNano(), Seed: 2005,
	})
	trafficIDs, err := workload.IngestAll(store, traffic)
	if err != nil {
		return err
	}
	weather := workload.Generate(workload.Config{
		Domain:  workload.DomainWeather,
		Zones:   []string{"london"},
		Windows: 6, SensorsPerZone: 2, ReadingsPerSensor: 4,
		WindowDur: time.Hour, StartTime: day.UnixNano(), Seed: 2006,
	})
	weatherIDs, err := workload.IngestAll(store, weather)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "ingested %d traffic and %d weather tuple sets\n", len(trafficIDs), len(weatherIDs))

	// --- Pipeline stage 1: aggregate each city's day ("aggregated over
	// time to estimate the effects of changing Zone size").
	cityAgg := make(map[string]provenance.ID)
	for _, city := range []string{"london", "boston"} {
		ids, err := store.QueryString("domain=traffic AND zone=" + city)
		if err != nil {
			return err
		}
		var inputs []*tuple.Set
		for _, id := range ids {
			ts, err := store.GetData(id)
			if err != nil {
				return err
			}
			inputs = append(inputs, ts)
		}
		agg := workload.Aggregate(inputs, city+"-hourly-mean")
		aggID, err := store.Derive(ids, "daily-aggregate", "3.0", agg,
			provenance.Attr(provenance.KeyDomain, provenance.String("traffic")),
			provenance.Attr(provenance.KeyZone, provenance.String(city)),
			provenance.Attr("granularity", provenance.String("daily")),
		)
		if err != nil {
			return err
		}
		cityAgg[city] = aggID
		fmt.Fprintf(w, "daily aggregate for %-7s %s (from %d windows)\n", city+":", aggID.Short(), len(ids))
	}

	// --- Stage 2: cross-city merge ("combined geographically with data
	// from other cities").
	lonAgg, _ := store.GetData(cityAgg["london"])
	bosAgg, _ := store.GetData(cityAgg["boston"])
	merged := workload.Merge([]*tuple.Set{lonAgg, bosAgg})
	mergeID, err := store.Derive(
		[]provenance.ID{cityAgg["london"], cityAgg["boston"]},
		"cross-city-merge", "1.0", merged,
		provenance.Attr(provenance.KeyDomain, provenance.String("traffic")),
		provenance.Attr("coverage", provenance.String("london+boston")),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "cross-city merge:      ", mergeID.Short())

	// --- Stage 3: weather join ("merging historical traffic data with
	// historical weather data").
	wParents := append([]provenance.ID{mergeID}, weatherIDs...)
	wAll := []*tuple.Set{merged}
	for _, id := range weatherIDs {
		ts, err := store.GetData(id)
		if err != nil {
			return err
		}
		wAll = append(wAll, ts)
	}
	joined := workload.Merge(wAll)
	joinID, err := store.Derive(wParents, "weather-join", "0.9", joined,
		provenance.Attr(provenance.KeyDomain, provenance.String("traffic+weather")),
	)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "traffic×weather join:  ", joinID.Short())

	// --- The investigator's question (Section II-B): this joined data
	// looks suspect — find the raw tuple sets it came from, and which
	// postprocessing programs touched it.
	roots, err := store.Roots(joinID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nprovenance audit of the join: %d raw origin sets\n", len(roots))
	tools, err := store.QueryString(`"~tool"=daily-aggregate`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "tuple sets handled by 'daily-aggregate': %d\n", len(tools))

	// Every origin is reachable; check one lineage path.
	ok, err := store.Reachable(joinID, trafficIDs[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "join reachable from first london window: %v\n", ok)

	// --- Archival story: after the day closes, raw payloads are
	// collected; provenance stays queryable (P4).
	n, err := store.RemoveDataBefore(day.Add(3 * time.Hour).UnixNano())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nGC: collected %d early-morning payloads\n", n)
	roots2, err := store.Roots(joinID)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "origins still resolvable after GC: %d/%d\n", len(roots2), len(roots))
	rep, err := store.VerifyConsistency()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "audit: records=%d collected=%d clean=%v\n", rep.Records, rep.Collected, rep.Clean())
	return nil
}
