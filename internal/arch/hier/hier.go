// Package hier implements Section IV-B's fourth model: "organize the
// material into a hierarchical namespace and then use the hierarchy to
// partition the data across a distributed network of servers."
//
// A significance ordering of attribute keys defines the hierarchy; the
// first (most significant) attribute's value decides which server owns a
// record. The paper's objection — "hierarchical naming systems are
// fundamentally limited by the need to choose a significance ordering
// ... choosing either one as most significant will make querying on the
// other difficult" — becomes measurable: queries on the primary attribute
// touch one server, queries on any other attribute must fan out to every
// server (experiment E8).
package hier

import (
	"fmt"
	"sync"
	"time"

	"pass/internal/arch"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// Model is the hierarchical-namespace architecture.
type Model struct {
	mu      sync.Mutex
	net     arch.Network
	servers []netsim.SiteID
	// order is the significance ordering; order[0] partitions the tree.
	order  []string
	stores map[netsim.SiteID]*arch.SiteStore
	// valueHome pins each observed primary value to a server.
	valueHome map[string]netsim.SiteID
	nextHome  int
	// nameHome resolves a record id to the server owning its subtree.
	// Provenance IDs double as hierarchical names here (§II-A): the name
	// encodes the record's path, whose first component is its primary
	// value, so resolving id→server is a local name parse plus the
	// valueHome delegation table — not a federation-wide probe. The seed
	// implementation probed every server per lookup (O(n) calls), which
	// made 10k-server sweeps intractable.
	nameHome map[provenance.ID]netsim.SiteID
	// lastFanout is the number of servers the most recent QueryAttr hit.
	lastFanout int
	rto        *arch.RTO
}

// New builds a hierarchy over servers with the given attribute
// significance ordering (must be non-empty).
func New(net arch.Network, servers []netsim.SiteID, order []string) (*Model, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("hier: significance ordering must name at least one attribute")
	}
	if len(servers) == 0 {
		return nil, fmt.Errorf("hier: need at least one server")
	}
	m := &Model{
		net:       net,
		servers:   append([]netsim.SiteID(nil), servers...),
		order:     append([]string(nil), order...),
		stores:    make(map[netsim.SiteID]*arch.SiteStore),
		valueHome: make(map[string]netsim.SiteID),
		nameHome:  make(map[provenance.ID]netsim.SiteID),
		rto:       arch.NewRTO(0x41E221),
	}
	for _, s := range servers {
		m.stores[s] = arch.NewSiteStore()
	}
	return m, nil
}

// Name implements arch.Model.
func (m *Model) Name() string { return "hier" }

// homeFor assigns (and remembers) the server owning a primary value:
// values are spread round-robin over servers, mimicking subtree
// delegation.
func (m *Model) homeFor(primaryValue string) netsim.SiteID {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s, ok := m.valueHome[primaryValue]; ok {
		return s
	}
	s := m.servers[m.nextHome%len(m.servers)]
	m.nextHome++
	m.valueHome[primaryValue] = s
	return s
}

// primaryOf extracts the record's primary attribute value; records
// without it land in a catch-all subtree.
func (m *Model) primaryOf(rec *provenance.Record) string {
	if v, ok := rec.Get(m.order[0]); ok {
		return v.AsString()
	}
	return "\x00unfiled"
}

// Publish routes the record to the server owning its primary value's
// subtree, retransmitting on lost messages (missing ack).
func (m *Model) Publish(p arch.Pub) (time.Duration, error) {
	home := m.homeFor(m.primaryOf(p.Rec))
	return arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		d1, err := m.net.Send(p.Origin, home, p.WireSize())
		if err != nil {
			return d1, err
		}
		m.mu.Lock()
		m.stores[home].Add(p.ID, p.Rec)
		m.nameHome[p.ID] = home
		m.mu.Unlock()
		d2, err := m.net.Send(home, p.Origin, arch.AckWire)
		return d1 + d2, err
	})
}

// Lookup parses the record's name into its hierarchy path and contacts
// the server the path delegates to (nameHome): one round trip, O(1) in
// the server count. An unreachable owning server yields an error after
// retransmission; an unknown name is not found anywhere.
func (m *Model) Lookup(from netsim.SiteID, id provenance.ID) (*provenance.Record, time.Duration, error) {
	m.mu.Lock()
	home, known := m.nameHome[id]
	m.mu.Unlock()
	if !known {
		return nil, 0, fmt.Errorf("hier: %s not in the namespace", id.Short())
	}
	m.mu.Lock()
	rec, ok := m.stores[home].Get(id)
	m.mu.Unlock()
	respSize := arch.RespOverhead
	if ok {
		respSize += len(rec.Encode())
	}
	d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
		return m.net.Call(from, home, arch.ReqOverhead+arch.IDWire, respSize)
	})
	if err != nil {
		return nil, d, err
	}
	if !ok {
		return nil, d, fmt.Errorf("hier: namespace points at %d but %s is gone", home, id.Short())
	}
	return rec, d, nil
}

// QueryAttr on the primary attribute touches exactly the owning server;
// on any other attribute it must contact every server (the significance-
// ordering penalty). ServersContacted reports the fan-out of the last
// query for the E8 table.
func (m *Model) QueryAttr(from netsim.SiteID, key string, value provenance.Value) ([]provenance.ID, time.Duration, error) {
	if key == m.order[0] && value.Kind == provenance.KindString {
		home := m.homeFor(value.Str)
		m.mu.Lock()
		ids := append([]provenance.ID(nil), m.stores[home].LookupAttr(key, value)...)
		m.mu.Unlock()
		d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
			return m.net.Call(from, home, arch.AttrReqSize(key, value), arch.IDListRespSize(len(ids)))
		})
		if err != nil {
			return nil, d, err
		}
		m.mu.Lock()
		m.lastFanout = 1
		m.mu.Unlock()
		return ids, d, nil
	}
	// Secondary attribute: full fan-out; unreachable servers are skipped
	// (best-effort recall), reachable ones still answer.
	var slowest time.Duration
	var out []provenance.ID
	contacted := 0
	for _, s := range m.servers {
		m.mu.Lock()
		ids := append([]provenance.ID(nil), m.stores[s].LookupAttr(key, value)...)
		m.mu.Unlock()
		d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
			return m.net.Call(from, s, arch.AttrReqSize(key, value), arch.IDListRespSize(len(ids)))
		})
		if err != nil {
			if arch.IsUnavailable(err) {
				continue
			}
			return nil, slowest, err
		}
		contacted++
		slowest = arch.MaxDuration(slowest, d)
		out = append(out, ids...)
	}
	m.mu.Lock()
	m.lastFanout = contacted
	m.mu.Unlock()
	return out, slowest, nil
}

// QueryAncestors chases lineage with server-side traversal per subtree;
// cross-subtree edges hop between servers by resolving each border
// record's name path to its owning server.
func (m *Model) QueryAncestors(from netsim.SiteID, id provenance.ID) ([]provenance.ID, time.Duration, error) {
	var total time.Duration
	found := make(map[provenance.ID]struct{})
	var out []provenance.ID
	frontier := []provenance.ID{id}
	guard := 0
	for len(frontier) > 0 {
		guard++
		if guard > 1<<16 {
			return out, total, fmt.Errorf("hier: ancestry traversal did not converge")
		}
		cur := frontier[0]
		frontier = frontier[1:]
		// Resolve cur's server from its name path (nameHome); an unknown
		// name drops out of this best-effort answer, and an unreachable
		// server below drops its sub-DAG the same way.
		m.mu.Lock()
		home, known := m.nameHome[cur]
		m.mu.Unlock()
		if !known {
			continue // unknown record
		}
		m.mu.Lock()
		local, unresolved := m.stores[home].LocalAncestors([]provenance.ID{cur})
		m.mu.Unlock()
		d, err := arch.Retry(m.rto, arch.SendRetries, func() (time.Duration, error) {
			return m.net.Call(from, home, arch.ReqOverhead+arch.IDWire, arch.IDListRespSize(len(local)+len(unresolved)))
		})
		total += d
		if err != nil {
			if arch.IsUnavailable(err) {
				continue
			}
			return nil, total, err
		}
		if cur != id {
			if _, seen := found[cur]; !seen {
				found[cur] = struct{}{}
				out = append(out, cur)
			}
		}
		for _, a := range local {
			if _, seen := found[a]; !seen {
				found[a] = struct{}{}
				out = append(out, a)
			}
		}
		for _, u := range unresolved {
			if _, seen := found[u]; !seen {
				frontier = append(frontier, u)
			}
		}
	}
	return out, total, nil
}

// Tick implements arch.Model.
func (m *Model) Tick() error { return nil }

// LastFanout reports the number of servers the most recent QueryAttr
// contacted (1 for primary-attribute queries, all servers otherwise).
func (m *Model) LastFanout() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastFanout
}
