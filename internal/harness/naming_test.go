package harness

import (
	"testing"
	"time"

	"pass/internal/provenance"
)

// TestFilenameConvention pins E2's strawman: the conventional filename
// encoder and parser behind the file-prec/file-recall columns.
func TestFilenameConvention(t *testing.T) {
	digestOf := func(b byte) (d [32]byte) {
		for i := range d {
			d[i] = b
		}
		return
	}
	build := func(t *testing.T, b *provenance.Builder) *provenance.Record {
		t.Helper()
		rec, _, err := b.CreatedAt(1).Build()
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	volcano := func(t *testing.T) *provenance.Record {
		return build(t, provenance.NewRaw(digestOf(1), 100).
			Attr(provenance.KeyDomain, provenance.String("volcano")).
			Attr(provenance.KeyZone, provenance.String("vesuvius")).
			Attr(provenance.KeySensorClass, provenance.String("seismometer")).
			Attr(provenance.KeySensorID, provenance.String("s-1")).
			Attr(provenance.KeySensorID, provenance.String("s-2")).
			Attr(provenance.KeyStart, provenance.TimeVal(time.Date(2004, 10, 11, 6, 30, 0, 0, time.UTC))).
			Attr(provenance.KeyEnd, provenance.TimeVal(time.Date(2004, 10, 11, 7, 30, 0, 0, time.UTC))))
	}

	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"EncodePaperExample", func(t *testing.T) {
			// The paper's example name is volcano_vesuvius_10_11_04; the
			// convention emits domain_zone_class_YY_MM_DD.
			if name, want := encodeName(volcano(t)), "volcano_vesuvius_seismometer_04_10_11"; name != want {
				t.Fatalf("encodeName = %q, want %q", name, want)
			}
		}},
		{"EncodeMissingFields", func(t *testing.T) {
			rec := build(t, provenance.NewRaw(digestOf(2), 1).
				Attr(provenance.KeyDomain, provenance.String("traffic")))
			if name := encodeName(rec); name != "traffic_x_x_x_x_x" {
				t.Fatalf("encodeName with missing fields = %q", name)
			}
		}},
		{"EncodeSanitizesSeparator", func(t *testing.T) {
			rec := build(t, provenance.NewRaw(digestOf(3), 1).
				Attr(provenance.KeyDomain, provenance.String("traffic_data")))
			name := encodeName(rec)
			p, ok := parseName(name)
			if !ok {
				t.Fatalf("sanitized name %q failed to parse", name)
			}
			// The underscore in the value was flattened: information loss.
			if p.fields[provenance.KeyDomain] != "traffic-data" {
				t.Fatalf("parsed domain = %q", p.fields[provenance.KeyDomain])
			}
		}},
		{"ParseRoundTrip", func(t *testing.T) {
			p, ok := parseName(encodeName(volcano(t)))
			if !ok {
				t.Fatal("parse failed")
			}
			if p.fields[provenance.KeyDomain] != "volcano" || p.fields[provenance.KeyZone] != "vesuvius" {
				t.Fatalf("fields = %v", p.fields)
			}
			if !p.hasTime {
				t.Fatal("time not recovered")
			}
			// Day resolution only: the 06:30 start has been truncated.
			if p.start.Hour() != 0 {
				t.Fatalf("parsed time carries sub-day precision: %v", p.start)
			}
			if p.start.Year() != 2004 || p.start.Month() != 10 || p.start.Day() != 11 {
				t.Fatalf("parsed date = %v", p.start)
			}
		}},
		{"ParseRejectsWrongShape", func(t *testing.T) {
			for _, bad := range []string{"", "one", "a_b", "a_b_c_d_e_f_g_h"} {
				if _, ok := parseName(bad); ok {
					t.Errorf("parseName(%q) succeeded", bad)
				}
			}
		}},
		{"ParseMissingMarkers", func(t *testing.T) {
			p, ok := parseName("traffic_x_x_x_x_x")
			if !ok {
				t.Fatal("parse failed")
			}
			if _, present := p.fields[provenance.KeyZone]; present {
				t.Fatal("missing marker parsed as a value")
			}
			if p.hasTime {
				t.Fatal("missing time parsed as a value")
			}
		}},
		{"CanExpress", func(t *testing.T) {
			if !nameCanExpress(provenance.KeyDomain) {
				t.Fatal("domain should be expressible")
			}
			if !nameCanExpress(provenance.KeyStart) {
				t.Fatal("t-start should be expressible via the time component")
			}
			// The paper's examples of inexpressible information.
			for _, key := range []string{provenance.KeySensorID, provenance.KeyUpgrade, provenance.KeySoftware, "~tool"} {
				if nameCanExpress(key) {
					t.Errorf("%s should NOT be expressible in a filename", key)
				}
			}
		}},
		{"MatchName", func(t *testing.T) {
			name := encodeName(volcano(t))
			if !matchName(name, provenance.KeyDomain, "volcano") {
				t.Fatal("domain match failed")
			}
			if matchName(name, provenance.KeyDomain, "traffic") {
				t.Fatal("wrong domain matched")
			}
			// Multi-valued attribute: the filename cannot carry sensor IDs at all.
			if matchName(name, provenance.KeySensorID, "s-1") {
				t.Fatal("sensor-id query matched a name that cannot encode it")
			}
			if matchName("garbage", provenance.KeyDomain, "volcano") {
				t.Fatal("garbage name matched")
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
