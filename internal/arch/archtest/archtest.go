// Package archtest provides the shared conformance suite every Section IV
// architecture model must pass: publish → lookup, attribute query, and
// transitive ancestry, all from arbitrary querier sites, plus the fault,
// view, and churn-recovery laws (faults.go, views.go, churn.go). Models
// with soft state declare NeedsTick so the suite flushes before
// asserting recall; capability-gated laws (per-site views, stabilization,
// rejoin) skip models that cannot express the mechanism.
package archtest

import (
	"fmt"
	"testing"

	"pass/internal/arch"
	"pass/internal/geo"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Config describes the model under test.
type Config struct {
	// Make builds the model over the given network and participant sites.
	Make arch.Builder
	// MakeReplay optionally builds the model with proactive snapshot
	// recovery disabled (passnet's ManualRejoin), for laws that need a
	// replay-only recovery path to compare against — today FastRejoin's
	// replay leg. Models whose default already is replay-only leave it
	// nil and Make is used.
	MakeReplay arch.Builder
	// MakeEfficient optionally builds the model with its byte-efficient
	// gossip mode on (passnet's EfficientGossip), for the
	// DuplicateSuppression law's baseline-vs-efficient comparison. The
	// efficient build must expose per-site views (siteview.Exposer) and
	// meter its gossip (arch.GossipMeter). Leave nil — skipping the law —
	// when Make already is the efficient build or the model has no such
	// mode.
	MakeEfficient arch.Builder
	// NeedsTick indicates queries only see state after a Tick (soft
	// state, digest gossip).
	NeedsTick bool
}

// NewNetwork builds a 4-site test network spanning two zones.
func NewNetwork() (*netsim.Network, []netsim.SiteID) {
	net := netsim.New(netsim.Config{})
	sites := []netsim.SiteID{
		net.AddSite("boston-0", geo.Point{X: 0, Y: 0}, "boston"),
		net.AddSite("boston-1", geo.Point{X: 10, Y: 0}, "boston"),
		net.AddSite("london-0", geo.Point{X: 5000, Y: 0}, "london"),
		net.AddSite("london-1", geo.Point{X: 5010, Y: 0}, "london"),
	}
	return net, sites
}

func digestOf(b byte) (d [32]byte) {
	for i := range d {
		d[i] = b
	}
	return
}

// MakeRaw builds a deterministic raw record.
func MakeRaw(seed byte, attrs ...provenance.Attribute) (provenance.ID, *provenance.Record) {
	rec, id, err := provenance.NewRaw(digestOf(seed), int64(seed)).
		Attrs(attrs...).CreatedAt(int64(seed)).Build()
	if err != nil {
		panic(err)
	}
	return id, rec
}

// MakeDerived builds a deterministic derived record.
func MakeDerived(seed byte, tool string, parents ...provenance.ID) (provenance.ID, *provenance.Record) {
	rec, id, err := provenance.NewDerived(digestOf(seed), int64(seed), tool, "1.0", parents...).
		CreatedAt(int64(seed)).Build()
	if err != nil {
		panic(err)
	}
	return id, rec
}

// Run executes the conformance suite: the quick correctness checks on
// the 4-site unit network, then the heavyweight scenarios (faults.go) —
// a 1,000-site scale sweep plus loss, churn, and partition injection —
// the per-site view laws (views.go): convergence after full digest
// delivery and split-brain under partitions for view-exposing models,
// the churn-recovery laws (churn.go): KeyRehoming for arch.Stabilizer
// models and FastRejoin for arch.Rejoiner models, the membership laws
// (membership.go): JoinHandoff for arch.Joiner models, ProactiveRejoin
// for self-recovering rejoiners, and the randomized-schedule oracle
// (package schedule) for everyone, the gossip-efficiency laws
// (gossip.go): DuplicateSuppression for models with a MakeEfficient
// build and LeaveHandoff for arch.Leaver models, and a 10,000-site sweep
// that pins indexed per-lookup cost. `go test -short` shrinks the scale
// sweep, runs one schedule seed instead of three, and skips the 10k
// sweep.
func Run(t *testing.T, cfg Config) {
	t.Helper()
	t.Run("PublishLookup", func(t *testing.T) { testPublishLookup(t, cfg) })
	t.Run("AttrQueryFromEverySite", func(t *testing.T) { testAttrQuery(t, cfg) })
	t.Run("AncestryAcrossSites", func(t *testing.T) { testAncestry(t, cfg) })
	t.Run("UnknownID", func(t *testing.T) { testUnknown(t, cfg) })
	t.Run("TrafficAccounted", func(t *testing.T) { testTraffic(t, cfg) })
	t.Run("ScaleSweep", func(t *testing.T) { testScaleSweep(t, cfg) })
	t.Run("RecallUnderLoss", func(t *testing.T) { testRecallUnderLoss(t, cfg) })
	t.Run("RecallUnderChurn", func(t *testing.T) { testRecallUnderChurn(t, cfg) })
	t.Run("PartitionHeal", func(t *testing.T) { testPartitionHeal(t, cfg) })
	t.Run("ViewConvergence", func(t *testing.T) { testViewConvergence(t, cfg) })
	t.Run("SplitBrainViews", func(t *testing.T) { testSplitBrainViews(t, cfg) })
	t.Run("KeyRehoming", func(t *testing.T) { testKeyRehoming(t, cfg) })
	t.Run("FastRejoin", func(t *testing.T) { testFastRejoin(t, cfg) })
	t.Run("JoinHandoff", func(t *testing.T) { testJoinHandoff(t, cfg) })
	t.Run("ProactiveRejoin", func(t *testing.T) { testProactiveRejoin(t, cfg) })
	t.Run("MembershipSchedule", func(t *testing.T) { testMembershipSchedule(t, cfg) })
	t.Run("RecallSoak", func(t *testing.T) { testRecallSoak(t, cfg) })
	t.Run("DuplicateSuppression", func(t *testing.T) { testDuplicateSuppression(t, cfg) })
	t.Run("LeaveHandoff", func(t *testing.T) { testLeaveHandoff(t, cfg) })
	t.Run("Sweep10k", func(t *testing.T) { testSweep10k(t, cfg) })
}

func flush(t *testing.T, cfg Config, m arch.Model) {
	t.Helper()
	if cfg.NeedsTick {
		if err := m.Tick(); err != nil {
			t.Fatal(err)
		}
	}
}

func testPublishLookup(t *testing.T, cfg Config) {
	net, sites := NewNetwork()
	m := cfg.Make(net, sites)
	id, rec := MakeRaw(1, provenance.Attr("zone", provenance.String("boston")))
	if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: sites[0]}); err != nil {
		t.Fatal(err)
	}
	flush(t, cfg, m)
	for _, from := range sites {
		got, d, err := m.Lookup(from, id)
		if err != nil {
			t.Fatalf("lookup from %d: %v", from, err)
		}
		if got.ComputeID() != id {
			t.Fatalf("lookup from %d returned wrong record", from)
		}
		if d < 0 {
			t.Fatalf("negative latency %v", d)
		}
	}
}

func testAttrQuery(t *testing.T, cfg Config) {
	net, sites := NewNetwork()
	m := cfg.Make(net, sites)
	want := make(map[provenance.ID]bool)
	// Two matching records at different sites, one non-matching.
	for i, origin := range []netsim.SiteID{sites[0], sites[2]} {
		id, rec := MakeRaw(byte(10+i), provenance.Attr("domain", provenance.String("traffic")))
		if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: origin}); err != nil {
			t.Fatal(err)
		}
		want[id] = true
	}
	idOther, recOther := MakeRaw(30, provenance.Attr("domain", provenance.String("weather")))
	if _, err := m.Publish(arch.Pub{ID: idOther, Rec: recOther, Origin: sites[1]}); err != nil {
		t.Fatal(err)
	}
	flush(t, cfg, m)
	for _, from := range sites {
		got, _, err := m.QueryAttr(from, "domain", provenance.String("traffic"))
		if err != nil {
			t.Fatalf("query from %d: %v", from, err)
		}
		if len(got) != len(want) {
			t.Fatalf("query from %d: got %d ids, want %d", from, len(got), len(want))
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("query from %d returned wrong id %s", from, id.Short())
			}
		}
	}
	// Missing value yields empty, not error.
	got, _, err := m.QueryAttr(sites[0], "domain", provenance.String("volcano"))
	if err != nil || len(got) != 0 {
		t.Fatalf("missing value: %v, %v", got, err)
	}
}

func testAncestry(t *testing.T, cfg Config) {
	net, sites := NewNetwork()
	m := cfg.Make(net, sites)
	// Chain spanning sites: raw@boston-0 <- mid@boston-1 <- leaf@london-0,
	// plus a second raw parent for the mid node (DAG, not just a chain).
	rawA, recA := MakeRaw(1)
	rawB, recB := MakeRaw(2)
	mid, recMid := MakeDerived(3, "merge", rawA, rawB)
	leaf, recLeaf := MakeDerived(4, "render", mid)

	pubs := []struct {
		id     provenance.ID
		rec    *provenance.Record
		origin netsim.SiteID
	}{
		{rawA, recA, sites[0]},
		{rawB, recB, sites[1]},
		{mid, recMid, sites[1]},
		{leaf, recLeaf, sites[2]},
	}
	for _, p := range pubs {
		if _, err := m.Publish(arch.Pub{ID: p.id, Rec: p.rec, Origin: p.origin}); err != nil {
			t.Fatal(err)
		}
	}
	flush(t, cfg, m)

	got, d, err := m.QueryAncestors(sites[3], leaf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[provenance.ID]bool{rawA: true, rawB: true, mid: true}
	if len(got) != len(want) {
		t.Fatalf("ancestors = %d ids (%v), want 3", len(got), d)
	}
	for _, id := range got {
		if !want[id] {
			t.Fatalf("wrong ancestor %s", id.Short())
		}
	}
	// A raw record has no ancestors.
	got, _, err = m.QueryAncestors(sites[0], rawA)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("raw record has %d ancestors", len(got))
	}
}

func testUnknown(t *testing.T, cfg Config) {
	net, sites := NewNetwork()
	m := cfg.Make(net, sites)
	// Publish one record so internal tables exist.
	id, rec := MakeRaw(1)
	if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: sites[0]}); err != nil {
		t.Fatal(err)
	}
	flush(t, cfg, m)
	var ghost provenance.ID
	ghost[0] = 0xEE
	if _, _, err := m.Lookup(sites[0], ghost); err == nil {
		t.Fatal("lookup of unknown id succeeded")
	}
}

func testTraffic(t *testing.T, cfg Config) {
	net, sites := NewNetwork()
	m := cfg.Make(net, sites)
	id, rec := MakeRaw(1, provenance.Attr("k", provenance.String("v")))
	if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: sites[0]}); err != nil {
		t.Fatal(err)
	}
	flush(t, cfg, m)
	if _, _, err := m.QueryAttr(sites[3], "k", provenance.String("v")); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Messages == 0 || st.Bytes == 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
}

// PubAt is a convenience for model-specific tests.
func PubAt(seed byte, origin netsim.SiteID, attrs ...provenance.Attribute) arch.Pub {
	id, rec := MakeRaw(seed, attrs...)
	return arch.Pub{ID: id, Rec: rec, Origin: origin}
}

// ChainAt publishes a linear derivation chain of the given length rooted
// at origins[i%len(origins)] and returns the IDs root-first.
func ChainAt(t *testing.T, m arch.Model, origins []netsim.SiteID, length int, seedBase byte) []provenance.ID {
	t.Helper()
	ids := make([]provenance.ID, 0, length)
	rootID, rootRec := MakeRaw(seedBase)
	if _, err := m.Publish(arch.Pub{ID: rootID, Rec: rootRec, Origin: origins[0]}); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, rootID)
	for i := 1; i < length; i++ {
		id, rec := MakeDerived(byte(int(seedBase)+i), fmt.Sprintf("step-%d", i), ids[i-1])
		if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: origins[i%len(origins)]}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}
