// Package arch defines the common contract for the storage/indexing
// architecture models of Section IV — centralized warehouse, distributed
// database, federated database, soft-state metadata service, hierarchical
// namespace, DHT, and the paper's proposed distributed PASS — plus the
// in-memory site store they all build on.
//
// Every model runs over a netsim.Network, which accounts every byte and
// message; model methods return the *simulated* latency along the
// operation's critical path. The experiment harness compares models on
// exactly the paper's criteria: scalability (throughput vs sites),
// speed (latency), resource consumption (WAN bytes), query result
// quality (recall under staleness), and locality.
package arch

import (
	"sort"
	"sync"
	"time"

	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/ratelimit"
	"pass/internal/xrand"
)

// Pub is one published unit of provenance metadata: a tuple set's record,
// produced at Origin. Models index metadata only — payloads stay at the
// producing site in every architecture (Section IV-A: "the warehouse
// would not store actual sensor data").
type Pub struct {
	ID     provenance.ID
	Rec    *provenance.Record
	Origin netsim.SiteID
}

// WireSize returns the record's metadata size on the wire.
func (p Pub) WireSize() int { return len(p.Rec.Encode()) }

// Network is the send/deliver surface every architecture model runs
// over: the subset of the simulator's API a model actually touches on
// its message paths. One backend implements it: *netsim.Network, the
// deterministic in-process simulator every experiment and conformance
// law drives. Model constructors take the interface rather than the
// concrete simulator, so a second backend can be slotted in without
// touching the models.
//
// Contract notes carried over from netsim: Send/Call return the
// injected-fault sentinels netsim exports (ErrSiteDown, ErrMsgLost,
// ErrPartitioned — IsUnavailable matches all three) so model retry
// logic does not depend on the backend; Send returns the one-way
// delivery latency; Latency estimates without sending.
type Network interface {
	// Send delivers a one-way message of the given size and returns its
	// delivery latency.
	Send(from, to netsim.SiteID, bytes int) (time.Duration, error)
	// Call performs a request/response exchange and returns the summed
	// round-trip latency; on failure the duration preserves time already
	// spent.
	Call(from, to netsim.SiteID, reqBytes, respBytes int) (time.Duration, error)
	// Latency estimates the one-way latency for a message of the given
	// size without transmitting anything.
	Latency(from, to netsim.SiteID, bytes int) (time.Duration, error)
	// Site returns the site with the given ID.
	Site(id netsim.SiteID) (netsim.Site, error)
	// NumSites returns the number of registered sites.
	NumSites() int
	// IsDown reports whether the site is failed.
	IsDown(id netsim.SiteID) bool
	// Partitioned reports whether a partition separates a and b.
	Partitioned(a, b netsim.SiteID) bool
}

// Model is the contract every Section IV architecture implements.
//
// Fault contract: every implementation must survive send errors from the
// underlying network (IsUnavailable errors: down sites, lost messages,
// partitions) without corrupting internal state.
//
//   - Publish either delivers (possibly after bounded internal retries)
//     or returns an error; a failed publish must leave the model
//     consistent and the same Pub re-publishable later (idempotence).
//   - QueryAttr and QueryAncestors are best-effort: unreachable sites
//     degrade recall — results omit what those sites hold — rather than
//     aborting the whole query. An error is returned only when the query
//     cannot be answered at all (e.g. the sole index site is down).
//   - Lookup returns an error when the record's holder is unreachable
//     after bounded retries; it never fabricates a record.
//   - Tick must tolerate unavailable peers: work that cannot be pushed
//     this round is retried on a later round (or dropped, for
//     architectures whose semantics are fire-and-forget), and Tick keeps
//     servicing the remaining peers.
//
// Models with recovery mechanisms beyond this baseline declare them via
// the optional capability interfaces Stabilizer (membership repair and
// key re-homing), Rejoiner (snapshot state transfer for recovered
// sites), Joiner (a new node entering an existing membership with a
// charged key handoff), and Leaver (voluntary departure with a pre-exit
// key handoff); the conformance suite and the churn/membership
// experiments type-assert for them.
type Model interface {
	// Name identifies the model in result tables.
	Name() string
	// Publish registers metadata produced at p.Origin and returns the
	// simulated latency until the publish is acknowledged.
	Publish(p Pub) (time.Duration, error)
	// Lookup retrieves a record by exact ID on behalf of a querier site.
	Lookup(from netsim.SiteID, id provenance.ID) (*provenance.Record, time.Duration, error)
	// QueryAttr returns the IDs of records carrying exactly (key, value).
	QueryAttr(from netsim.SiteID, key string, value provenance.Value) ([]provenance.ID, time.Duration, error)
	// QueryAncestors returns the transitive ancestors of id.
	QueryAncestors(from netsim.SiteID, id provenance.ID) ([]provenance.ID, time.Duration, error)
	// Tick advances one maintenance round (soft-state refresh, digest
	// gossip, DHT republish). Models without periodic work return nil.
	Tick() error
}

// Builder constructs one model over a network and its participant sites.
// Experiments, the schedule runner, and the conformance suite take
// builders so each run gets a fresh instance; package roster names the
// comparison entrants.
type Builder func(*netsim.Network, []netsim.SiteID) Model

// Stabilizer is the optional capability interface for models that run
// explicit membership repair (today: dht). A stabilize round detects
// crashed members, repairs successor/finger structures around them, and
// re-homes the keys the dead members owned onto their successors — all
// charged on the simulated network, so churn recovery has a measurable
// bandwidth and latency price. Callers (the churn experiment E16, the
// KeyRehoming conformance law) type-assert for it; models without
// membership state simply do not implement it.
//
// Stabilize returns the simulated time the round spent on probes and
// transfers. Like Tick, it must tolerate unavailable peers: an
// unreachable node is work for a later round, never an error.
type Stabilizer interface {
	Stabilize() (time.Duration, error)
}

// Joiner is the optional capability interface for models whose
// membership can GROW at runtime (today: dht). Stabilizer covers
// departures — crashed members removed, their keys re-homed — and Join
// covers arrivals: a cold node contacts any live member, is spliced into
// the membership, and receives a charged key handoff from its successor
// (the keys whose placements it now owns, plus its share of replica
// buckets), so the very next lookup can route to it. Replication around
// the new member is restored by the next Stabilize round's anti-entropy
// pass. The JoinHandoff conformance law and the membership experiment
// (E17) type-assert for it.
//
// Join returns the simulated critical-path latency of the contact,
// splice, and handoff. It fails with an unavailable error when the new
// node, the contact member, or the handoff transfer is unreachable; a
// failed join changes no membership and is retryable.
type Joiner interface {
	Join(newSite, via netsim.SiteID) (time.Duration, error)
}

// Rejoiner is the optional capability interface for models where a
// recovered site can actively resynchronize from one live neighbour
// (today: passnet) instead of waiting for every sender's per-delta
// retries. Rejoin transfers a state snapshot whose bytes are charged on
// the network; senders observing the snapshot's coverage prune their
// retry queues. The FastRejoin conformance law asserts the snapshot path
// converges in bounded rounds and costs fewer bytes than replaying every
// queued delta.
//
// Rejoin returns the simulated critical-path latency of the transfer. It
// fails with an unavailable error when the site is still down or no live
// donor is reachable; a failed rejoin leaves the model consistent and
// retryable (the site just keeps catching up via ordinary anti-entropy).
type Rejoiner interface {
	Rejoin(site netsim.SiteID) (time.Duration, error)
}

// Leaver is the optional capability interface for models whose members
// can depart VOLUNTARILY (today: dht). Where Stabilizer handles crashes
// after the fact — detect the silence, promote replicas, re-replicate —
// a leaving member announces its departure and pushes its keys to its
// successor before disconnecting, so the membership never routes through
// a hole. The transfer ships only what the successor is missing (it
// usually already replicates most of the leaver's primaries), which is
// why a voluntary leave is strictly cheaper than the crash-then-stabilize
// path the LeaveHandoff conformance law compares it against. The
// membership schedule (E17's OpLeave verb) type-asserts for it; models
// without membership state run the leave-as-crash convention instead.
//
// Leave returns the simulated critical-path latency of the announcement
// and handoff. It fails with an unavailable error when the leaver or its
// successor is unreachable; a failed leave changes no membership and is
// retryable.
type Leaver interface {
	Leave(site netsim.SiteID) (time.Duration, error)
}

// GossipStats is the gossip-path accounting a digest-gossiping model
// exposes through GossipMeter: the wire bytes its dissemination layer
// charged, how many redundant re-offers its duplicate suppression
// swallowed, and how many anti-entropy pull exchanges ran. E15/E17
// surface these as columns; the DuplicateSuppression law asserts on them.
type GossipStats struct {
	// Bytes is every byte the gossip layer charged: digest pushes
	// (delivered, lost in transit, or retried), anti-entropy pull
	// exchanges, and catch-up state transfers.
	Bytes int64
	// DupSuppressed counts re-offers the sender suppressed instead of
	// re-sending: duplicate publications dropped before a delta was cut,
	// and per-peer re-pushes muted by the dupemap while a pull was armed.
	DupSuppressed int64
	// PullRounds counts anti-entropy pull exchanges (fingerprint/seq
	// compare plus targeted diff transfer).
	PullRounds int64
}

// Admitter is the optional capability interface for models whose serving
// side can run under admission control (today: central, dht, passnet).
// SetAdmission installs a ratelimit.Admission controller — nil removes it
// — and the model consults it inside Publish: work the controller sheds
// returns a ratelimit error (test with ratelimit.Shed) WITHOUT touching
// the network, so a shed is cheap by construction; admitted work has the
// controller's queueing delay added to its reported critical-path
// latency, modeling time spent behind the backlog. The model's Tick
// drives the controller's Tick (budget drain + bucket refill). E18
// type-asserts for it; models without an ingest bottleneck to protect
// simply do not implement it.
type Admitter interface {
	SetAdmission(a *ratelimit.Admission)
}

// AdmissionSlot is the embeddable Admitter implementation the capable
// models share: a mutex-guarded slot holding the installed controller.
// Its zero value (no controller) is ready to use.
type AdmissionSlot struct {
	admMu sync.Mutex
	adm   *ratelimit.Admission
}

// SetAdmission implements Admitter.
func (s *AdmissionSlot) SetAdmission(a *ratelimit.Admission) {
	s.admMu.Lock()
	s.adm = a
	s.admMu.Unlock()
}

// Admission returns the installed controller, or nil when none is
// installed.
func (s *AdmissionSlot) Admission() *ratelimit.Admission {
	s.admMu.Lock()
	defer s.admMu.Unlock()
	return s.adm
}

// GossipMeter is the optional capability interface for models that meter
// their dissemination layer (today: passnet and softstate.Viewful's
// index-tier anti-entropy). The harness and the
// conformance suite type-assert for it; models without a gossip path
// simply do not implement it.
type GossipMeter interface {
	GossipStats() GossipStats
}

// Request/response wire-size model, shared across architectures so byte
// comparisons are apples-to-apples.
const (
	// ReqOverhead covers a request header (op, key material).
	ReqOverhead = 64
	// RespOverhead covers a response header.
	RespOverhead = 32
	// IDWire is the wire size of one record ID.
	IDWire = 32
	// AckWire is a small acknowledgement.
	AckWire = 16
)

// SendRetries is the bounded retry budget models apply to messages whose
// delivery they must confirm (publish acks, index round trips). Three
// retransmissions push the residual failure probability of a p-lossy
// link to p^4 — under 1% even at 30% loss — while keeping the wasted
// bandwidth measurable in E14.
const SendRetries = 3

// IsUnavailable reports whether err is an injected network fault (down
// site, lost message, partition) rather than a logical failure such as a
// missing record. Models retry or degrade on these; everything else
// propagates.
func IsUnavailable(err error) bool { return netsim.Unavailable(err) }

// Retransmission-timeout model. A real sender does not learn of a lost
// message from the network; it learns by WAITING — the retransmission
// timer must expire before the next attempt goes out. Every architecture
// model therefore charges, on top of the link latency its failed attempt
// accumulated, an RTO penalty that doubles per consecutive failure
// (exponential backoff, TCP-style) with deterministic ±25% jitter drawn
// from a seeded xrand generator, so lossy-run latencies stay exactly
// reproducible.
const (
	// RTOBase is the initial retransmission timeout. It deliberately
	// dwarfs the simulator's per-message latencies (µs–ms): a retry is
	// supposed to hurt the critical path, which is what E14's latency
	// columns measure.
	RTOBase = 200 * time.Millisecond
	// RTOMax caps the exponential growth.
	RTOMax = 3 * time.Second
)

// RTO is a deterministic retransmission-timeout clock. Each model owns
// one, seeded at construction, and threads it through every Retry so
// timeout penalties are reproducible run to run. A nil *RTO charges no
// penalty (pure link-latency accounting, the pre-RTO behavior — used by
// code that models fire-and-forget traffic). Penalty serializes its
// jitter draws internally: Retry runs OUTSIDE the owning model's lock
// (only the op closures take it), so the clock cannot lean on that lock
// the way the models' other state does.
type RTO struct {
	mu  sync.Mutex
	rng *xrand.Rand
}

// NewRTO returns a timeout clock seeded for deterministic jitter.
func NewRTO(seed uint64) *RTO { return &RTO{rng: xrand.New(seed)} }

// Penalty returns the timeout charged before retransmission number
// attempt+1 (attempt counts consecutive failures so far, starting at 0):
// RTOBase doubled per failure, jittered ±25%, capped at RTOMax. The cap
// applies AFTER jitter: a long-unreachable peer's timer settles at
// exactly RTOMax instead of drifting up to 1.25× past it, so the ceiling
// is a true ceiling (shift counts past the word size collapse to the cap
// as well, closing the duration-overflow hole at high attempt numbers).
func (r *RTO) Penalty(attempt int) time.Duration {
	if r == nil {
		return 0
	}
	timeout := RTOBase
	if attempt >= 63 {
		timeout = RTOMax
	} else if timeout <<= uint(attempt); timeout > RTOMax || timeout <= 0 {
		timeout = RTOMax
	}
	r.mu.Lock()
	jitter := 0.75 + 0.5*r.rng.Float64()
	r.mu.Unlock()
	p := time.Duration(float64(timeout) * jitter)
	if p > RTOMax {
		p = RTOMax
	}
	return p
}

// Retry runs op up to 1+retries times, stopping on success or on the
// first error that is not an injected fault. The returned latency
// accumulates every attempt — time wasted on lost messages is real time
// on the operation's critical path — plus, for every failed attempt, the
// rto's backoff penalty: the sender only discovers a loss when its
// retransmission timer expires, so each failure costs a timeout whether
// or not another attempt follows.
func Retry(rto *RTO, retries int, op func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	var err error
	for attempt := 0; attempt <= retries; attempt++ {
		var d time.Duration
		d, err = op()
		total += d
		if err == nil || !IsUnavailable(err) {
			return total, err
		}
		total += rto.Penalty(attempt)
	}
	return total, err
}

// AttrReqSize sizes an attribute-query request.
func AttrReqSize(key string, value provenance.Value) int {
	return ReqOverhead + len(key) + len(value.Canonical())
}

// IDListRespSize sizes a response carrying n record IDs.
func IDListRespSize(n int) int { return RespOverhead + n*IDWire }

// SiteStore is the in-memory metadata store one site (or server, or DHT
// node, or warehouse) runs. It mirrors the local PASS index structures —
// inverted attribute postings and bidirectional ancestry — without the
// on-disk substrate, which the architecture experiments do not measure.
type SiteStore struct {
	recs     map[provenance.ID]*provenance.Record
	attr     map[string][]provenance.ID // AttrKey -> postings
	children map[provenance.ID][]provenance.ID
}

// NewSiteStore returns an empty site store.
func NewSiteStore() *SiteStore {
	return &SiteStore{
		recs:     make(map[provenance.ID]*provenance.Record),
		attr:     make(map[string][]provenance.ID),
		children: make(map[provenance.ID][]provenance.ID),
	}
}

// AttrKey builds the composite postings key for (key, value): key \x00
// canonical value. Real nodes send it on the wire as a query.
func AttrKey(key string, value provenance.Value) string {
	return key + "\x00" + string(value.Canonical())
}

// QueriableAttrs returns every attribute a model must index and publish
// for the record: the record's own attributes plus the synthetic type and
// tool attributes, mirroring the local PASS index (package index). All
// models use this list so their per-attribute publication costs are
// comparable.
func QueriableAttrs(rec *provenance.Record) []provenance.Attribute {
	out := make([]provenance.Attribute, 0, len(rec.Attributes)+2)
	out = append(out, rec.Attributes...)
	out = append(out, provenance.Attr("~type", provenance.String(rec.Type.String())))
	if rec.Tool != "" {
		out = append(out, provenance.Attr("~tool", provenance.String(rec.Tool)))
	}
	return out
}

// Add indexes a record. Re-adding the same ID is a no-op.
func (st *SiteStore) Add(id provenance.ID, rec *provenance.Record) {
	if _, ok := st.recs[id]; ok {
		return
	}
	st.recs[id] = rec
	for _, a := range QueriableAttrs(rec) {
		k := AttrKey(a.Key, a.Value)
		st.attr[k] = append(st.attr[k], id)
	}
	for _, p := range rec.Parents {
		st.children[p] = append(st.children[p], id)
	}
}

// Get returns the record for id.
func (st *SiteStore) Get(id provenance.ID) (*provenance.Record, bool) {
	r, ok := st.recs[id]
	return r, ok
}

// Len returns the number of records held.
func (st *SiteStore) Len() int { return len(st.recs) }

// LookupAttr returns the postings for (key, value).
func (st *SiteStore) LookupAttr(key string, value provenance.Value) []provenance.ID {
	return st.attr[AttrKey(key, value)]
}

// LookupKey returns the postings for a composite key AttrKey built.
func (st *SiteStore) LookupKey(mk string) []provenance.ID {
	return st.attr[mk]
}

// Parents returns the direct parents of id (empty if unknown).
func (st *SiteStore) Parents(id provenance.ID) []provenance.ID {
	if r, ok := st.recs[id]; ok {
		return r.Parents
	}
	return nil
}

// Children returns the direct children of id.
func (st *SiteStore) Children(id provenance.ID) []provenance.ID {
	return st.children[id]
}

// LocalAncestors walks ancestry as far as this store's records reach,
// starting from the given frontier. It returns every ancestor found
// locally plus the unresolved parent IDs whose records live elsewhere.
// This server-side traversal is what lets distributed PASS resolve long
// same-site lineage chains in a single round trip (experiment E11).
func (st *SiteStore) LocalAncestors(frontier []provenance.ID) (found, unresolved []provenance.ID) {
	visited := make(map[provenance.ID]struct{})
	var stack []provenance.ID
	for _, id := range frontier {
		if rec, ok := st.recs[id]; ok {
			stack = append(stack, rec.Parents...)
		}
	}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if _, seen := visited[cur]; seen {
			continue
		}
		visited[cur] = struct{}{}
		rec, ok := st.recs[cur]
		if !ok {
			unresolved = append(unresolved, cur)
			continue
		}
		found = append(found, cur)
		stack = append(stack, rec.Parents...)
	}
	return found, unresolved
}

// IDs returns all record IDs in deterministic order (tests).
func (st *SiteStore) IDs() []provenance.ID {
	out := make([]provenance.ID, 0, len(st.recs))
	for id := range st.recs {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		for b := 0; b < len(out[i]); b++ {
			if out[i][b] != out[j][b] {
				return out[i][b] < out[j][b]
			}
		}
		return false
	})
	return out
}

// Rand is the shared deterministic PRNG (xorshift*, package xrand) models
// use for reproducible placement or corruption decisions.
type Rand = xrand.Rand

// NewRand seeds a generator (0 seed is fixed up internally).
func NewRand(seed uint64) *Rand { return xrand.New(seed) }

// MaxDuration returns the larger duration.
func MaxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
