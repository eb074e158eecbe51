// Package scenario holds the client-side steps the experiments, the
// conformance laws, the schedule runner, and the cross-check bridge
// share: deterministic records, re-offering a publish until it is
// acknowledged, and scoring recall by lookup or by attribute query. It
// imports neither testing nor any model, so every one of those callers
// can use it.
//
// The steps hold the arch.Model fault contract for their callers: an
// unavailable-class error is a fault to retry or score as a miss, an
// admission refusal is load shedding, and any other error is a model bug
// that is returned, never counted as a miss.
package scenario

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"pass/internal/arch"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/ratelimit"
)

// Raw builds the deterministic raw record numbered seq at origin. The
// digest is {seq, seq>>8, tag, seq>>16}, so scenarios with different
// tags never collide; the record carries an "n" attribute holding seq,
// then attrs, and is created at seq+1. Build fails only on a malformed
// attribute, which the caller wrote, so Raw panics instead.
func Raw(seq int, tag byte, origin netsim.SiteID, attrs ...provenance.Attribute) arch.Pub {
	var digest [32]byte
	digest[0], digest[1], digest[2], digest[3] = byte(seq), byte(seq>>8), tag, byte(seq>>16)
	all := append([]provenance.Attribute{provenance.Attr("n", provenance.Int64(int64(seq)))}, attrs...)
	rec, id, err := provenance.NewRaw(digest, 64).Attrs(all...).CreatedAt(int64(seq) + 1).Build()
	if err != nil {
		panic(err)
	}
	return arch.Pub{ID: id, Rec: rec, Origin: origin}
}

// PubN is Raw under the conformance suite's tag: the n-th test record.
func PubN(n int, origin netsim.SiteID, attrs ...provenance.Attribute) arch.Pub {
	return Raw(n, 0xAB, origin, attrs...)
}

// DerivedN builds the deterministic derived record numbered n.
func DerivedN(n int, tool string, origin netsim.SiteID, parents ...provenance.ID) arch.Pub {
	var digest [32]byte
	digest[0], digest[1], digest[2] = byte(n), byte(n>>8), 0xCD
	rec, id, err := provenance.NewDerived(digest, 64, tool, "1.0", parents...).
		CreatedAt(int64(n) + 1).Build()
	if err != nil {
		panic(err)
	}
	return arch.Pub{ID: id, Rec: rec, Origin: origin}
}

// ZoneAttr returns origin's zone as the standard zone attribute, the
// primary attribute hierarchical partitioning needs.
func ZoneAttr(net *netsim.Network, origin netsim.SiteID) (provenance.Attribute, error) {
	s, err := net.Site(origin)
	if err != nil {
		return provenance.Attribute{}, err
	}
	return provenance.Attr(provenance.KeyZone, provenance.String(s.Zone)), nil
}

// Offered is how one Offer went.
type Offered struct {
	// Acked reports that a try was acknowledged.
	Acked bool
	// Shed reports that admission control refused the last try.
	Shed bool
	// Tries counts the Publish calls made.
	Tries int
	// Total is the latency summed over every try.
	Total time.Duration
}

// Offer publishes p up to tries times (Publish is idempotent by the fault
// contract). It stops at the first acknowledgement or at an admission
// refusal — buckets refill and queues drain only on Tick, so a retry
// within the round cannot help. An unavailable-class failure uses up a
// try; any other error is returned.
func Offer(m arch.Model, p arch.Pub, tries int) (Offered, error) {
	var o Offered
	for o.Tries < tries {
		d, err := m.Publish(p)
		o.Tries++
		o.Total += d
		switch {
		case err == nil:
			o.Acked = true
			return o, nil
		case ratelimit.Shed(err):
			o.Shed = true
			return o, nil
		case !arch.IsUnavailable(err):
			return o, fmt.Errorf("%s publish: %w", m.Name(), err)
		}
	}
	return o, nil
}

// LookupRecall is the mean fraction of acked records each querier can
// resolve by Lookup — one probe per record, so it reaches every record's
// home, which is where churn tears holes. Probes run in sorted ID order:
// under loss the network draws a drop per send, so map order would tie
// the result to Go's map seed instead of the scenario's. With nothing
// acked there is nothing to miss, and recall is 1.
func LookupRecall(m arch.Model, queriers []netsim.SiteID, acked map[provenance.ID]bool) float64 {
	if len(acked) == 0 {
		return 1
	}
	ids := make([]provenance.ID, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return bytes.Compare(ids[i][:], ids[j][:]) < 0 })
	total := 0.0
	for _, q := range queriers {
		hit := 0
		for _, id := range ids {
			if _, _, err := m.Lookup(q, id); err == nil {
				hit++
			}
		}
		total += float64(hit) / float64(len(ids))
	}
	return total / float64(len(queriers))
}

// QueryRecall asks QueryAttr(key, value) from each querier and returns
// the fraction of want (which must be non-empty) each one found, plus the
// latency summed over every query sent. Each querier tries up to tries
// times and keeps its best answer: queries are best-effort, so under loss
// one attempt can miss a component. A querier whose tries all fail
// unavailable scores 0; any other query error is returned.
func QueryRecall(m arch.Model, queriers []netsim.SiteID, key string, value provenance.Value, want map[provenance.ID]bool, tries int) ([]float64, time.Duration, error) {
	out := make([]float64, len(queriers))
	var lat time.Duration
	for qi, q := range queriers {
		for try := 0; try < tries && out[qi] < 1; try++ {
			got, d, err := m.QueryAttr(q, key, value)
			lat += d
			if err != nil {
				if arch.IsUnavailable(err) {
					continue
				}
				return nil, lat, fmt.Errorf("%s query from %d: %w", m.Name(), q, err)
			}
			hit := 0
			for _, id := range got {
				if want[id] {
					hit++
				}
			}
			if r := float64(hit) / float64(len(want)); r > out[qi] {
				out[qi] = r
			}
		}
	}
	return out, lat, nil
}
