// Package siteview models the soft metadata view ONE site holds about its
// peers in the distributed PASS (Section V). The paper's design keeps
// sensor data at its producing site and spreads only gossiped digests, so
// each site's picture of the rest of the federation is inherently partial
// and stale: a site knows exactly what has been DELIVERED to it, nothing
// more. This package makes that delivered-vs-pending distinction a
// first-class object instead of a simulation shortcut.
//
// # The delivered-vs-pending view model
//
// A producing site batches its recent publications into a Delta — the
// id→home location entries plus a Bloom filter of the attribute postings
// the batch carries — and gossips it to every peer. Delivery is per peer:
// a peer that received the delta folds it into its own View immediately;
// a peer whose copy was lost, or that sits behind a partition, simply does
// not have it yet. Two sites therefore answer the same query differently
// exactly when the set of deltas delivered to them differs — which is what
// a partition experiment should observe (split-brain), and what full
// gossip delivery erases again (convergence).
//
// Deltas carry a per-origin monotonically increasing sequence number and
// are applied in order, so a late or duplicated delivery is idempotent:
// View.Apply returns false and changes nothing when it has already seen
// that origin's sequence number.
//
// # Rejoin snapshots
//
// A site that was down for a while owes its peers nothing, but it owes
// itself a catch-up. Rather than waiting for every sender's outbox to
// replay each missed delta, a rejoining site can fetch one peer's whole
// View as a snapshot and Merge it: content is unioned and per-origin
// sequence numbers fast-forward, so deltas the snapshot already covers
// read as stale everywhere — which is what lets the senders prune them
// from their queues. WireSize prices the snapshot with the same model a
// Delta uses, so snapshot-vs-replay byte comparisons (the FastRejoin
// conformance law, experiment E16) are fair.
//
// # Indexed lookups and filter routing
//
// A View answers two query-routing questions: "which site is home to this
// record?" (Locate, one map probe) and "which sites may hold postings for
// this attribute?". For the latter the per-peer Bloom filters are the
// routing AUTHORITY — CandidatesFor probes each known origin's
// accumulated filter, so candidate selection behaves exactly like the
// wire-level digest it models: a false positive really routes the query
// to a site with nothing to say, costing a charged empty round trip,
// never a wrong answer. The exact inverted index behind SitesFor (key →
// origins whose deltas carried it) remains the ground truth the filters
// are rebuilt from and the reference that makes false positives
// measurable: CandidatesFor ⊇ SitesFor always, and the difference is the
// misroute set. Per-query local work is one cheap filter probe per known
// origin; the wire cost stays O(matching sites + false positives), and
// record resolution (Locate) stays one map probe — which is what keeps
// the 10,000-site sweep's per-lookup message budget intact.
package siteview

import (
	"encoding/binary"
	"sort"

	"pass/internal/netsim"
	"pass/internal/provenance"
)

// FilterBitsPerKey sizes the per-delta attribute Bloom filter: bits per
// distinct attribute key carried.
const FilterBitsPerKey = 12

// filterHashes is the number of probe positions per key.
const filterHashes = 4

// Filter is the compact attribute-membership filter a digest delta
// carries on the wire: a Bloom filter over canonical attribute keys. False
// positives cost a query an extra empty round trip, never a wrong answer;
// false negatives cannot happen.
type Filter struct {
	bits []uint64
	set  int // bits set, kept by Add so FillRatio is O(1)
}

// NewFilter sizes a filter for the given expected key count.
func NewFilter(keys int) *Filter {
	if keys < 1 {
		keys = 1
	}
	words := (keys*FilterBitsPerKey + 63) / 64
	return &Filter{bits: make([]uint64, words)}
}

// fnv1a hashes b with a seed (split-hash scheme: two independent hashes
// derive all probe positions).
func fnv1a(b []byte, seed uint64) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (f *Filter) probe(key string, fn func(word, bit uint64) bool) bool {
	n := uint64(len(f.bits) * 64)
	h1 := fnv1a([]byte(key), 0)
	h2 := fnv1a([]byte(key), 0x9E3779B97F4A7C15) | 1
	for i := uint64(0); i < filterHashes; i++ {
		pos := (h1 + i*h2) % n
		if !fn(pos/64, pos%64) {
			return false
		}
	}
	return true
}

// Add inserts a canonical attribute key.
func (f *Filter) Add(key string) {
	f.probe(key, func(word, bit uint64) bool {
		if f.bits[word]&(1<<bit) == 0 {
			f.bits[word] |= 1 << bit
			f.set++
		}
		return true
	})
}

// MayContain reports whether key may have been added (Bloom semantics).
func (f *Filter) MayContain(key string) bool {
	return f.probe(key, func(word, bit uint64) bool {
		return f.bits[word]&(1<<bit) != 0
	})
}

// SizeBytes is the filter's wire size.
func (f *Filter) SizeBytes() int { return len(f.bits) * 8 }

// FillRatio is the fraction of set bits — the measured (not estimated
// from key counts) saturation of the filter. The false-positive rate of
// a Bloom filter is fill^hashes, so a filter whose fill drifts toward 1
// answers MayContain("anything") = true and routes queries everywhere;
// views rebuild an origin's filter when its measured fill crosses
// MaxFillRatio.
func (f *Filter) FillRatio() float64 {
	if len(f.bits) == 0 {
		return 0
	}
	return float64(f.set) / float64(len(f.bits)*64)
}

// MaxFillRatio is the measured-fill threshold past which a view rebuilds
// an origin's accumulated filter at doubled capacity. Sized-to-count
// filters settle near 1-e^(-hashes/bitsPerKey) ≈ 0.28; crossing 0.5
// means the filter has outgrown its allocation (≈6% false-positive rate
// and climbing), so the rebuild restores headroom well before the filter
// degenerates into match-everything.
const MaxFillRatio = 0.5

// filterWireBytes is the wire size of a filter sized for n keys, without
// allocating one.
func filterWireBytes(n int) int {
	if n < 1 {
		n = 1
	}
	return (n*FilterBitsPerKey + 63) / 64 * 8
}

// Delta is one gossiped digest unit: the soft metadata a producing site
// spreads about its own recent publications. Seq is assigned by the
// origin and increases by one per delta, so receivers can recognize
// duplicates and out-of-order deliveries.
type Delta struct {
	// Origin is the producing site; every entry's home site is Origin.
	Origin netsim.SiteID
	// Seq is the origin's delta sequence number, starting at 1.
	Seq uint64
	// IDs are the record ids this delta locates at Origin.
	IDs []provenance.ID
	// AttrKeys are the canonical attribute keys (key\x00value) the
	// records carry, listed exactly so the receiver can maintain its
	// inverted index and its per-origin filter.
	AttrKeys []string
}

// NewDelta builds a delta for the origin's batch. AttrKeys may contain
// duplicates; they are deduplicated here.
func NewDelta(origin netsim.SiteID, seq uint64, ids []provenance.ID, attrKeys []string) *Delta {
	dedup := make([]string, 0, len(attrKeys))
	seen := make(map[string]struct{}, len(attrKeys))
	for _, k := range attrKeys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		dedup = append(dedup, k)
	}
	sort.Strings(dedup)
	return &Delta{Origin: origin, Seq: seq, IDs: append([]provenance.ID(nil), ids...), AttrKeys: dedup}
}

// locEntryWire approximates the wire size of one id→home location entry.
const locEntryWire = 32 + 4

// deltaHeaderWire covers origin, sequence number, and framing.
const deltaHeaderWire = 32

// WireSize is the delta's size on the simulated network: location
// entries plus a Bloom filter sized for its attribute keys plus a small
// header.
func (d *Delta) WireSize() int {
	return deltaHeaderWire + len(d.IDs)*locEntryWire + filterWireBytes(len(d.AttrKeys))
}

// View is the soft metadata ONE site has accumulated from delivered
// deltas. It is not safe for concurrent use; the owning model serializes
// access (all Section IV models already hold a mutex across state
// mutation).
type View struct {
	owner netsim.SiteID
	// seq is the last sequence number applied per origin.
	seq map[netsim.SiteID]uint64
	// loc resolves a record id to its home site.
	loc map[provenance.ID]netsim.SiteID
	// attrSites is the inverted attribute index: canonical attribute key
	// to the set of sites whose delivered deltas carried it.
	attrSites map[string]map[netsim.SiteID]struct{}
	// filters accumulates each origin's delivered attribute keys into one
	// Bloom filter per origin. Bloom bit positions depend on the filter's
	// size, so delivered deltas' differently-sized wire filters cannot be
	// OR-ed together; instead the keys (which every delta lists exactly)
	// are re-added, and the filter is rebuilt at double capacity when the
	// accumulated key count would overload it — preserving the
	// no-false-negatives guarantee at a bounded false-positive rate.
	filters map[netsim.SiteID]*Filter
	// filterKeys counts keys added per origin (rebuild trigger).
	filterKeys map[netsim.SiteID]int
	applied    int64
	ignored    int64
}

// NewView returns the empty view owned by the given site.
func NewView(owner netsim.SiteID) *View {
	return &View{
		owner:      owner,
		seq:        make(map[netsim.SiteID]uint64),
		loc:        make(map[provenance.ID]netsim.SiteID),
		attrSites:  make(map[string]map[netsim.SiteID]struct{}),
		filters:    make(map[netsim.SiteID]*Filter),
		filterKeys: make(map[netsim.SiteID]int),
	}
}

// Owner is the site this view belongs to.
func (v *View) Owner() netsim.SiteID { return v.owner }

// Apply folds a delivered delta into the view and reports whether it
// changed anything. A delta whose sequence number is not exactly the next
// expected one from its origin is ignored (false): a duplicate or stale
// re-delivery has already been applied, and the gossip layer delivers
// in order per peer, so a gap never arrives ahead of its predecessor.
func (v *View) Apply(d *Delta) bool {
	if d.Seq != v.seq[d.Origin]+1 {
		v.ignored++
		return false
	}
	v.seq[d.Origin] = d.Seq
	for _, id := range d.IDs {
		v.loc[id] = d.Origin
	}
	// Only keys this origin has never delivered reach the filter: a key
	// re-delivered by a later delta is already represented, and counting
	// it again would inflate filterKeys past the distinct-key truth —
	// which is what used to trigger premature rebuilds into oversized
	// filters (and bloated snapshot wire sizes to match).
	fresh := d.AttrKeys[:0:0]
	for _, k := range d.AttrKeys {
		set, ok := v.attrSites[k]
		if !ok {
			set = make(map[netsim.SiteID]struct{})
			v.attrSites[k] = set
		}
		if _, has := set[d.Origin]; !has {
			set[d.Origin] = struct{}{}
			fresh = append(fresh, k)
		}
	}
	v.addFilterKeys(d.Origin, fresh)
	v.applied++
	return true
}

// addFilterKeys folds an origin's newly delivered DISTINCT attribute
// keys into its accumulated filter (callers pass only keys the origin
// has not delivered before, so filterKeys tracks the exact distinct
// count). When the filter's measured fill ratio crosses MaxFillRatio —
// saturation observed on the actual bit array, not estimated from
// counts — the filter is rebuilt at double the distinct-key capacity
// from the exact inverted index, so nothing is lost and the
// false-positive rate recovers.
func (v *View) addFilterKeys(origin netsim.SiteID, keys []string) {
	if len(keys) == 0 {
		return
	}
	v.filterKeys[origin] += len(keys)
	f, ok := v.filters[origin]
	if !ok {
		f = NewFilter(v.filterKeys[origin])
		v.filters[origin] = f
	}
	for _, k := range keys {
		f.Add(k)
	}
	if f.FillRatio() > MaxFillRatio {
		v.rebuildFilter(origin)
	}
}

// rebuildFilter resizes origin's filter to double its distinct-key count
// and repopulates it from the inverted index (the exact ground truth),
// restoring the no-false-negatives guarantee at a healthy fill ratio.
func (v *View) rebuildFilter(origin netsim.SiteID) {
	f := NewFilter(2 * v.filterKeys[origin])
	v.filters[origin] = f
	for k, sites := range v.attrSites {
		if _, has := sites[origin]; has {
			f.Add(k)
		}
	}
}

// FilterFill reports the measured fill ratio of origin's accumulated
// filter (0 when no delta from origin has been delivered).
func (v *View) FilterFill(origin netsim.SiteID) float64 {
	f, ok := v.filters[origin]
	if !ok {
		return 0
	}
	return f.FillRatio()
}

// WireSize approximates the view's size as a state-transfer snapshot on
// the wire: every location entry, plus each origin's accumulated
// attribute Bloom filter with its sequence number, plus a header — the
// same sizing model a Delta uses, so snapshot-vs-replay byte comparisons
// are apples-to-apples. A rejoining site that fetches one snapshot pays
// this once, instead of one delta header and filter per queued delta per
// sender.
func (v *View) WireSize() int {
	size := deltaHeaderWire + len(v.loc)*locEntryWire
	for _, f := range v.filters {
		size += 16 + f.SizeBytes() // origin tag + seqno + filter bits
	}
	return size
}

// Merge folds a snapshot of another site's view into this one: location
// entries and inverted-index postings are unioned, per-origin filters
// absorb the newly learned keys, and per-origin sequence numbers
// fast-forward to the donor's — so a delta the donor had already applied
// is recognized as stale here too, and the senders still queuing it can
// prune. Merging is add-only and idempotent (metadata never retracts);
// it returns how many location entries were new. The donor view is read
// only.
func (v *View) Merge(snap *View) int {
	added := 0
	for id, home := range snap.loc {
		if _, known := v.loc[id]; !known {
			added++
		}
		v.loc[id] = home
	}
	newKeys := make(map[netsim.SiteID][]string)
	for k, origins := range snap.attrSites {
		set, ok := v.attrSites[k]
		if !ok {
			set = make(map[netsim.SiteID]struct{})
			v.attrSites[k] = set
		}
		for origin := range origins {
			if _, has := set[origin]; has {
				continue
			}
			set[origin] = struct{}{}
			newKeys[origin] = append(newKeys[origin], k)
		}
	}
	v.addNewKeys(newKeys)
	for origin, seq := range snap.seq {
		if seq > v.seq[origin] {
			v.seq[origin] = seq
		}
	}
	return added
}

// addNewKeys folds each origin's newly learned keys into its filter, in
// a deterministic order (map iteration scrambles it; filter contents are
// order-independent but key counts must add up identically run to run).
func (v *View) addNewKeys(newKeys map[netsim.SiteID][]string) {
	origins := make([]netsim.SiteID, 0, len(newKeys))
	for origin := range newKeys {
		origins = append(origins, origin)
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i] < origins[j] })
	for _, origin := range origins {
		keys := newKeys[origin]
		sort.Strings(keys)
		v.addFilterKeys(origin, keys)
	}
}

// Locate resolves a record's home site from delivered deltas.
func (v *View) Locate(id provenance.ID) (netsim.SiteID, bool) {
	s, ok := v.loc[id]
	return s, ok
}

// SitesFor returns, in ascending order, the sites whose delivered deltas
// carried the canonical attribute key. Work is O(matching sites): the
// inverted index goes straight to the candidate set without probing every
// peer's filter.
func (v *View) SitesFor(attrKey string) []netsim.SiteID {
	set := v.attrSites[attrKey]
	if len(set) == 0 {
		return nil
	}
	out := make([]netsim.SiteID, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MayHold reports whether the peer's delivered Bloom filters may contain
// the attribute key. Every site SitesFor lists satisfies MayHold; the
// converse can fail (Bloom false positive).
func (v *View) MayHold(peer netsim.SiteID, attrKey string) bool {
	f, ok := v.filters[peer]
	return ok && f.MayContain(attrKey)
}

// CandidatesFor returns, in ascending order, every origin whose
// accumulated Bloom filter may hold the attribute key — the wire-digest
// routing set. It is a superset of SitesFor (filters have no false
// negatives); the difference is exactly the false positives, each of
// which costs the querier a charged empty round trip. Work is O(origins
// with delivered filters): one filter probe per known peer, no network.
func (v *View) CandidatesFor(attrKey string) []netsim.SiteID {
	var out []netsim.SiteID
	for s, f := range v.filters {
		if f.MayContain(attrKey) {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Seq returns the last delta sequence number applied from the origin.
func (v *View) Seq(origin netsim.SiteID) uint64 { return v.seq[origin] }

// Applied reports how many deltas changed the view; Ignored how many
// arrived late or duplicated and were dropped.
func (v *View) Applied() int64 { return v.applied }

// Ignored reports deltas rejected as duplicates or stale re-deliveries.
func (v *View) Ignored() int64 { return v.ignored }

// Locations reports how many record ids the view can resolve.
func (v *View) Locations() int { return len(v.loc) }

// Fingerprint is a deterministic hash of the view's CONTENT — location
// entries and the inverted attribute index, not the owner and not
// bookkeeping counters. Two sites whose fingerprints match answer every
// digest-routed query identically; after full gossip delivery with no
// faults every site's fingerprint must match (the convergence law the
// conformance suite asserts). Re-delivering already-known metadata leaves
// the fingerprint unchanged (idempotence).
func (v *View) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(b []byte) {
		for _, c := range b {
			h ^= uint64(c)
			h *= 1099511628211
		}
	}
	var buf [8]byte

	ids := make([]provenance.ID, 0, len(v.loc))
	for id := range v.loc {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return lessID(ids[i], ids[j]) })
	for _, id := range ids {
		mix(id[:])
		binary.LittleEndian.PutUint64(buf[:], uint64(v.loc[id]))
		mix(buf[:])
	}

	keys := make([]string, 0, len(v.attrSites))
	for k := range v.attrSites {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		mix([]byte(k))
		for _, s := range v.SitesFor(k) {
			binary.LittleEndian.PutUint64(buf[:], uint64(s))
			mix(buf[:])
		}
	}
	return h
}

func lessID(a, b provenance.ID) bool {
	for i := 0; i < len(a); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// seqEntryWire is the wire size of one (origin, seq) vector entry in an
// anti-entropy pull request.
const seqEntryWire = 12

// CoalescedWireSize prices ONE envelope carrying several deltas from the
// same origin to the same peer: one header, each distinct location entry
// once (a record re-listed by a later delta ships once), one filter
// sized for the distinct attribute keys of the whole batch, plus 8 bytes
// of per-constituent sequence framing so the receiver can fast-forward
// its per-origin counter delta by delta. For a single delta this is
// exactly Delta.WireSize — coalescing only ever removes redundancy.
func CoalescedWireSize(deltas []*Delta) int {
	if len(deltas) == 0 {
		return 0
	}
	if len(deltas) == 1 {
		return deltas[0].WireSize()
	}
	ids := make(map[provenance.ID]struct{})
	keys := make(map[string]struct{})
	for _, d := range deltas {
		for _, id := range d.IDs {
			ids[id] = struct{}{}
		}
		for _, k := range d.AttrKeys {
			keys[k] = struct{}{}
		}
	}
	return deltaHeaderWire + len(ids)*locEntryWire + filterWireBytes(len(keys)) + (len(deltas)-1)*8
}

// SeqVectorWireSize prices the pull-request body a site sends to
// advertise how much of each origin's delta stream it has applied: one
// (origin, seq) entry per known origin plus the usual header. The donor
// answers with exactly the content the vector proves missing, priced by
// DiffWireSize — together they are the lazy-push/periodic-pull hybrid's
// catch-up exchange.
func (v *View) SeqVectorWireSize() int {
	return deltaHeaderWire + len(v.seq)*seqEntryWire
}

// DiffWireSize prices the targeted catch-up transfer that brings have up
// to donor: only the location entries have is missing (or has stale
// homes for) and, per origin, a filter sized for just the attribute keys
// have has not seen from that origin. This is what an efficient rejoin
// or anti-entropy pull ships instead of the donor's whole snapshot
// (View.WireSize) — for a site that missed a few deltas the diff is a
// small fraction of the full view. The merge that follows is the
// ordinary Merge; DiffWireSize only prices its wire form.
func DiffWireSize(donor, have *View) int {
	size := deltaHeaderWire
	for id, home := range donor.loc {
		if h, ok := have.loc[id]; !ok || h != home {
			size += locEntryWire
		}
	}
	newKeys := make(map[netsim.SiteID]int)
	for k, origins := range donor.attrSites {
		haveSet := have.attrSites[k]
		for origin := range origins {
			if haveSet != nil {
				if _, has := haveSet[origin]; has {
					continue
				}
			}
			newKeys[origin]++
		}
	}
	for _, n := range newKeys {
		size += 16 + filterWireBytes(n) // origin tag + seqno + key filter
	}
	return size
}

// Exposer is implemented by architecture models that maintain a real
// per-site view (today: passnet and softstate.Viewful, whose plain sites
// answer with their designated index node's view). The conformance suite
// and E15 use it to assert
// the convergence law and to observe split-brain divergence directly at
// the view level rather than only through query results.
type Exposer interface {
	// SiteView returns the given site's view. The caller must not mutate
	// it and must not retain it across model operations (views are
	// guarded by the model's lock).
	SiteView(s netsim.SiteID) *View
}
