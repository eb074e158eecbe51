// Package roster names the Section IV comparison entrants: one table of
// model configurations, each with its options bound, so the experiments,
// the cross-check bridge, and the passd daemon build the same entrant
// from the same name. It sits outside package arch because it imports
// the models.
//
// A sweep over one model's parameters (E6's relocated warehouse, E7's
// refresh periods, E15's option-carrying passnet runs) calls the model's
// constructor directly; the roster holds only the configurations the
// comparisons share.
package roster

import (
	"pass/internal/arch"
	"pass/internal/arch/central"
	"pass/internal/arch/dht"
	"pass/internal/arch/distdb"
	"pass/internal/arch/feddb"
	"pass/internal/arch/hier"
	"pass/internal/arch/passnet"
	"pass/internal/arch/softstate"
	"pass/internal/netsim"
	"pass/internal/provenance"
)

// entrants is the roster in presentation order: the seven architectures
// in their standard configuration (warehouse at sites[0], two distdb
// replicas, soft-state index on sites[:2] refreshed every round, a
// zone-then-sensor-class hierarchy, batched passnet digests), then the
// passnet variants the experiments contrast against it.
var entrants = []struct {
	name  string
	build arch.Builder
}{
	{"central", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return central.New(net, sites[0])
	}},
	{"distdb", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return distdb.New(net, sites, 2)
	}},
	{"feddb", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return feddb.New(net, sites, 0)
	}},
	{"softstate", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return softstate.New(net, sites, sites[:2], 1)
	}},
	{"hier", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		h, err := hier.New(net, sites, []string{provenance.KeyZone, provenance.KeySensorClass})
		if err != nil {
			panic(err) // the ordering is a constant; only an empty site list fails
		}
		return h
	}},
	{"dht", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return dht.New(net, sites)
	}},
	{"passnet", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return passnet.New(net, sites, passnet.Options{})
	}},
	// Digests gossip at publish time, so queries never see stale views.
	{"passnet-immediate", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return passnet.New(net, sites, passnet.Options{ImmediateDigest: true})
	}},
	// Efficient dissemination: dupemap suppression, coalesced envelopes,
	// and anti-entropy pulls armed every round.
	{"passnet-eff", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return passnet.New(net, sites, passnet.Options{EfficientGossip: true, PullEvery: 1})
	}},
	// Recovery by outbox replay alone: ManualRejoin switches off the
	// proactive snapshot a recovered site would otherwise take in Tick.
	{"passnet-replay", func(net *netsim.Network, sites []netsim.SiteID) arch.Model {
		return passnet.New(net, sites, passnet.Options{ManualRejoin: true})
	}},
}

// Lookup returns the named entrant's builder.
func Lookup(name string) (arch.Builder, bool) {
	for _, e := range entrants {
		if e.name == name {
			return e.build, true
		}
	}
	return nil, false
}

// Names lists the roster in presentation order.
func Names() []string {
	out := make([]string, len(entrants))
	for i, e := range entrants {
		out[i] = e.name
	}
	return out
}
