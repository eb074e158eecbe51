package main

import (
	"fmt"
	"sort"
	"sync"

	"pass/internal/provenance"
	"pass/internal/workload"
)

// Attribute cardinalities of the generated records: one record in 256
// shares a sensor and one in 64 a zone, so a sensor query over a few tens
// of thousands of records stays far below the 60,000-byte response that
// the wire layer silently drops (see README, known limits).
const (
	sensorCard  = 256
	zoneCard    = 64
	benchDomain = "bench"
)

func sensorName(i int) string { return fmt.Sprintf("s-%03d", i) }
func zoneName(i int) string   { return fmt.Sprintf("z-%02d", i) }

// genRecord builds the n-th raw record of a run from the seeded stream:
// a random data digest and the four attributes n, domain, sensor, zone.
// It returns the record, its ID and its sensor index.
func genRecord(rng *workload.Rand, n int) (*provenance.Record, provenance.ID, int) {
	var digest [32]byte
	for i := 0; i < 32; i += 8 {
		v := rng.Next()
		for j := 0; j < 8; j++ {
			digest[i+j] = byte(v >> (8 * j))
		}
	}
	sensor := rng.Intn(sensorCard)
	rec, id, err := provenance.NewRaw(digest, 64).
		Attrs(
			provenance.Attr("n", provenance.Int64(int64(n))),
			provenance.Attr(provenance.KeyDomain, provenance.String(benchDomain)),
			provenance.Attr("sensor", provenance.String(sensorName(sensor))),
			provenance.Attr(provenance.KeyZone, provenance.String(zoneName(rng.Intn(zoneCard)))),
		).
		CreatedAt(int64(n) + 1).
		Build()
	if err != nil {
		panic(fmt.Sprintf("genRecord: %v", err)) // fixed, valid shape: only a bug gets here
	}
	return rec, id, sensor
}

// oracle is the driver's model of what the system must answer. A record
// is issued when its put is sent and settled once the system has promised
// it is visible to every reader (passnet: the origin's next tick
// returned; dht and the local store: the put returned). A query answer
// is right when it holds every record settled under the key before the
// query was sent, nothing that was never issued under the key, and no
// duplicates — which is exact equality for a key with no put in flight.
type oracle struct {
	mu      sync.Mutex
	recs    map[provenance.ID]*recState
	settled [][]provenance.ID // per key, in settle order
	// unknown are answered IDs the oracle had not heard of when it saw
	// them: the local store names a record only when the put returns, so a
	// concurrent reader can meet it first. They must be issued, under the
	// same key, by the end of the run (unresolved).
	unknown map[provenance.ID]int
}

type recState struct {
	key int
	pos int // index in settled[key]; -1 until settled
}

func newOracle(keys int) *oracle {
	return &oracle{recs: make(map[provenance.ID]*recState), settled: make([][]provenance.ID, keys), unknown: make(map[provenance.ID]int)}
}

// issue records that a put of id under key is about to be sent.
func (o *oracle) issue(id provenance.ID, key int) {
	o.mu.Lock()
	if _, ok := o.recs[id]; !ok {
		o.recs[id] = &recState{key: key, pos: -1}
	}
	o.mu.Unlock()
}

// settle marks issued records visible to every reader.
func (o *oracle) settle(ids ...provenance.ID) {
	o.mu.Lock()
	for _, id := range ids {
		st := o.recs[id]
		if st == nil || st.pos >= 0 {
			continue
		}
		st.pos = len(o.settled[st.key])
		o.settled[st.key] = append(o.settled[st.key], id)
	}
	o.mu.Unlock()
}

// mark returns how many records are settled under key right now; a query
// sent after this call must return at least those.
func (o *oracle) mark(key int) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.settled[key])
}

// allSettled returns every settled record, key by key.
func (o *oracle) allSettled() []provenance.ID {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []provenance.ID
	for _, ids := range o.settled {
		out = append(out, ids...)
	}
	return out
}

// checkQuery judges the answer to a query on key that was sent when mark
// records were settled. keep, when not nil, narrows the expectation to
// the records it accepts (a conjunct the index does not model).
func (o *oracle) checkQuery(key int, got []provenance.ID, mark int, keep func(provenance.ID) bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	want := 0
	if keep == nil {
		want = mark
	} else {
		for _, id := range o.settled[key][:mark] {
			if keep(id) {
				want++
			}
		}
	}
	seen := make(map[provenance.ID]struct{}, len(got))
	have := 0
	for _, id := range got {
		if _, dup := seen[id]; dup {
			return fmt.Errorf("duplicate %s in answer", id.Short())
		}
		seen[id] = struct{}{}
		st := o.recs[id]
		if st == nil {
			o.unknown[id] = key
			continue
		}
		if st.key != key || (keep != nil && !keep(id)) {
			return fmt.Errorf("answer holds %s, never put under this key", id.Short())
		}
		if st.pos >= 0 && st.pos < mark {
			have++
		}
	}
	if have != want {
		return fmt.Errorf("answer holds %d of the %d records settled before the query (%d returned)", have, want, len(got))
	}
	return nil
}

// unresolved lists the answered IDs that were unknown when seen and were
// never issued under the key they were answered for.
func (o *oracle) unresolved() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []string
	for id, key := range o.unknown {
		if st := o.recs[id]; st == nil || st.key != key {
			out = append(out, id.Short())
		}
	}
	return out
}

// sortIDs orders record IDs bytewise.
func sortIDs(ids []provenance.ID) {
	sort.Slice(ids, func(i, j int) bool { return string(ids[i][:]) < string(ids[j][:]) })
}
