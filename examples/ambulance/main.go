// Ambulance: Section III-C's sensor-enabled EMT team.
//
// "EMTs arriving at an accident or mass casualty event place sensors
// (e.g., pulse oximeters, EKGs) on the patients ... As it moves through
// the system, it gets processed and filtered, and is thus enriched with
// additional provenance."
//
// The example streams vitals for three patients handled by two EMTs,
// enriches each stream through a cleaning + alerting pipeline, then runs
// the paper's own query list:
//
//   - "Show me everything we've done for this patient."
//   - "Show me the heart rate from moment of arrival until now."
//   - "Give heart rate profiles for everyone handled by EMT X."
//   - "Find me all patients with signs of arrhythmia."
//
// plus the taint query from Section III-B: a bug is found in the
// diagnostic tool, so every downstream data set must be located.
//
//	go run ./examples/ambulance
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
	"pass/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run streams the vitals, runs the pipeline and prints each query's
// answer to w.
func run(w io.Writer) error {
	dir, err := os.MkdirTemp("", "pass-ambulance-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := core.Open(dir, core.Options{})
	if err != nil {
		return err
	}
	defer store.Close()

	arrival := time.Date(2005, 4, 5, 14, 30, 0, 0, time.UTC)
	rng := workload.NewRand(911)
	patients := []string{"patient-07", "patient-08", "patient-09"}
	emts := map[string]string{"patient-07": "emt-jones", "patient-08": "emt-jones", "patient-09": "emt-silva"}

	// --- Streaming phase: one raw tuple set per patient per 10-minute
	// window (pulse-ox + EKG multiplexed).
	rawByPatient := make(map[string][]provenance.ID)
	for _, patient := range patients {
		for w := 0; w < 3; w++ {
			start := arrival.Add(time.Duration(w) * 10 * time.Minute)
			ts := &tuple.Set{}
			base := 70 + float64(rng.Intn(30))
			for i := 0; i < 30; i++ {
				hr := base + 8*rng.Norm()
				if patient == "patient-08" && i%7 == 0 {
					hr += 55 // arrhythmia spikes for one patient
				}
				ts.Append(tuple.Reading{
					SensorID: "ekg-" + patient,
					Time:     start.Add(time.Duration(i) * 20 * time.Second).UnixNano(),
					Value:    hr,
					Label:    patient,
				})
			}
			id, err := store.IngestTupleSet(ts,
				provenance.Attr(provenance.KeyDomain, provenance.String("medical")),
				provenance.Attr(provenance.KeyPatient, provenance.String(patient)),
				provenance.Attr(provenance.KeyEMT, provenance.String(emts[patient])),
				provenance.Attr(provenance.KeySensorClass, provenance.String("ekg")),
				provenance.Attr(provenance.KeyStart, provenance.TimeVal(start)),
				provenance.Attr(provenance.KeyEnd, provenance.TimeVal(start.Add(10*time.Minute))),
			)
			if err != nil {
				return err
			}
			rawByPatient[patient] = append(rawByPatient[patient], id)
		}
	}
	fmt.Fprintln(w, "streamed 3 windows × 3 patients of EKG data")

	// --- Enrichment pipeline: clean → diagnose per patient.
	diagnosed := make(map[string]provenance.ID)
	for _, patient := range patients {
		ids := rawByPatient[patient]
		var all []*tuple.Set
		for _, id := range ids {
			ts, err := store.GetData(id)
			if err != nil {
				return err
			}
			all = append(all, ts)
		}
		cleanedSet := workload.Merge(all)
		cleaned, err := store.Derive(ids, "artifact-clean", "2.4", cleanedSet,
			provenance.Attr(provenance.KeyDomain, provenance.String("medical")),
			provenance.Attr(provenance.KeyPatient, provenance.String(patient)),
		)
		if err != nil {
			return err
		}
		// Diagnosis: flag readings over 120 bpm.
		alerts := workload.Filter(cleanedSet, 120)
		diagID, err := store.Derive([]provenance.ID{cleaned}, "auto-diagnose", "0.7", alerts,
			provenance.Attr(provenance.KeyDomain, provenance.String("medical")),
			provenance.Attr(provenance.KeyPatient, provenance.String(patient)),
			provenance.Attr("alert-count", provenance.Int64(int64(alerts.Len()))),
			provenance.Attr("arrhythmia", provenance.Bool(alerts.Len() > 2)),
		)
		if err != nil {
			return err
		}
		diagnosed[patient] = diagID
	}

	// --- Query 1: everything we've done for patient-08.
	ids, err := store.QueryString(`patient=patient-08`)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\n\"everything for patient-08\": %d records (raw windows + pipeline stages)\n", len(ids))

	// --- Query 2: heart rate from arrival until now (time overlap).
	ids, err = store.QueryString(fmt.Sprintf(`patient=patient-07 AND OVERLAPS [%d, %d]`,
		arrival.UnixNano(), arrival.Add(15*time.Minute).UnixNano()))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\"patient-07 from arrival to +15min\": %d raw windows\n", len(ids))

	// --- Query 3: heart rate profiles for everyone handled by EMT Jones.
	ids, err = store.QueryString(`emt=emt-jones AND sensor-class=ekg`)
	if err != nil {
		return err
	}
	patientsSeen := map[string]bool{}
	for _, id := range ids {
		rec, err := store.GetRecord(id)
		if err != nil {
			return err
		}
		if v, ok := rec.Get(provenance.KeyPatient); ok {
			patientsSeen[v.Str] = true
		}
	}
	fmt.Fprintf(w, "\"profiles handled by emt-jones\": %d windows across %d patients\n", len(ids), len(patientsSeen))

	// --- Query 4: all patients with signs of arrhythmia.
	ids, err = store.QueryString(`arrhythmia=true`)
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, _ := store.GetRecord(id)
		p, _ := rec.Get(provenance.KeyPatient)
		fmt.Fprintf(w, "\"patients with arrhythmia\": %s (diagnosis %s)\n", p.Str, id.Short())
	}

	// --- The taint scenario: auto-diagnose 0.7 has a bug. Find every
	// affected data set (forward closure from the tool's outputs) so the
	// downstream can be invalidated.
	buggy, err := store.QueryString(`"~tool"=auto-diagnose`)
	if err != nil {
		return err
	}
	tainted := map[provenance.ID]bool{}
	for _, id := range buggy {
		tainted[id] = true
		desc, err := store.Descendants(id, index.NoLimit)
		if err != nil {
			return err
		}
		for _, d := range desc {
			tainted[d] = true
		}
	}
	fmt.Fprintf(w, "\ntool recall: auto-diagnose produced/tainted %d data sets — all locatable\n", len(tainted))

	// Show one patient's full lineage for the hospital hand-off.
	tree, err := store.LineageTree(diagnosed["patient-08"], 5)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\nhand-off lineage for patient-08's diagnosis:")
	fmt.Fprint(w, tree)
	return nil
}
