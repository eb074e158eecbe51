// Federation: Section V's second goal — "allow merging collections of
// local PASS installations into single globally searchable data archives"
// — on the world-city topology.
//
// Six cities each run a local PASS site holding their own sensor data
// (volcano monitoring in tokyo, traffic in london and boston, weather in
// seattle). Sites gossip compact digests; a consumer in boston then runs
// global attribute queries that touch only the sites that can answer,
// and a distributed transitive-closure query that chases a derivation
// chain across three continents in a handful of round trips.
//
// The same workload is also pushed through the centralized-warehouse and
// DHT models so the locality and traffic numbers can be compared side by
// side (the Section IV design-space argument, live).
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"pass/internal/arch"
	"pass/internal/arch/central"
	"pass/internal/arch/dht"
	"pass/internal/arch/passnet"
	"pass/internal/geo"
	"pass/internal/netsim"
	"pass/internal/provenance"
	"pass/internal/workload"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run builds the federation, runs its queries and prints the answers
// and the side-by-side comparison to w.
func run(w io.Writer) error {
	// --- Topology: one PASS site per world city.
	net := netsim.New(netsim.Config{})
	cities := geo.WorldCities().Zones()
	var sites []netsim.SiteID
	siteOf := map[string]netsim.SiteID{}
	for _, z := range cities {
		id := net.AddSite(z.Name, z.Center, z.Name)
		sites = append(sites, id)
		siteOf[z.Name] = id
	}
	fmt.Fprintf(w, "federation of %d local PASS sites: ", len(sites))
	for _, z := range cities {
		fmt.Fprintf(w, "%s ", z.Name)
	}
	fmt.Fprintln(w)

	model := passnet.New(net, sites, passnet.Options{ImmediateDigest: true})

	// --- Each site publishes its own domain's data (locale-specific!).
	clockVal := int64(0)
	clock := func() int64 { clockVal++; return clockVal }
	domains := map[string]workload.Domain{
		"tokyo":     workload.DomainVolcano,
		"london":    workload.DomainTraffic,
		"boston":    workload.DomainTraffic,
		"seattle":   workload.DomainWeather,
		"new-york":  workload.DomainMedical,
		"singapore": workload.DomainWeather,
	}
	pubCount := 0
	publishSet := func(g workload.GenSet, origin netsim.SiteID) (provenance.ID, error) {
		rec, id, err := provenance.NewRaw(g.Set.Digest(), int64(g.Set.EncodedSize())).
			Attrs(g.Attrs...).CreatedAt(clock()).Build()
		if err != nil {
			return id, err
		}
		if _, err := model.Publish(arch.Pub{ID: id, Rec: rec, Origin: origin}); err != nil {
			return id, err
		}
		pubCount++
		return id, nil
	}
	for city, dom := range domains {
		sets := workload.Generate(workload.Config{
			Domain: dom, Zones: []string{city},
			Windows: 4, SensorsPerZone: 3, ReadingsPerSensor: 6,
			WindowDur: time.Hour, Seed: uint64(len(city)),
		})
		for _, g := range sets {
			if _, err := publishSet(g, siteOf[city]); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(w, "published %d tuple sets, each stored at its producing site\n\n", pubCount)

	boston := siteOf["boston"]

	// --- Global attribute query from boston: find all volcano data.
	got, lat, err := model.QueryAttr(boston, provenance.KeyDomain, provenance.String("volcano"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "boston queries domain=volcano: %d records in %v (digest routing contacted %d remote site(s))\n",
		len(got), lat.Round(time.Microsecond), model.LastContacted())

	// --- Local query stays local: boston's own traffic.
	got, lat, err = model.QueryAttr(boston, provenance.KeyZone, provenance.String("boston"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "boston queries zone=boston:    %d records in %v (no WAN hop needed)\n",
		len(got), lat.Round(time.Microsecond))

	// --- A derivation chain spanning three sites: tokyo raw → london
	// correlation → boston synthesis.
	tokyoSets := workload.Generate(workload.Config{
		Domain: workload.DomainVolcano, Zones: []string{"tokyo"},
		Windows: 1, SensorsPerZone: 2, ReadingsPerSensor: 4, WindowDur: time.Hour, Seed: 99,
	})
	tokyoRaw, err := publishSet(tokyoSets[0], siteOf["tokyo"])
	if err != nil {
		return err
	}

	mkDerived := func(seed byte, tool string, origin netsim.SiteID, parents ...provenance.ID) (provenance.ID, error) {
		var digest [32]byte
		digest[0], digest[1] = seed, 0xFE
		rec, id, err := provenance.NewDerived(digest, 128, tool, "1.0", parents...).
			Attr(provenance.KeyDomain, provenance.String("cross-domain")).
			CreatedAt(clock()).Build()
		if err != nil {
			return id, err
		}
		_, err = model.Publish(arch.Pub{ID: id, Rec: rec, Origin: origin})
		return id, err
	}
	correlated, err := mkDerived(1, "quake-traffic-correlate", siteOf["london"], tokyoRaw)
	if err != nil {
		return err
	}
	synthesis, err := mkDerived(2, "global-synthesis", boston, correlated)
	if err != nil {
		return err
	}

	net.ResetStats()
	anc, lat, err := model.QueryAncestors(boston, synthesis)
	if err != nil {
		return err
	}
	st := net.Stats()
	fmt.Fprintf(w, "\ndistributed closure from boston over a tokyo→london→boston chain:\n")
	fmt.Fprintf(w, "  %d ancestors, %v, %d messages (server-side traversal per site)\n",
		len(anc), lat.Round(time.Microsecond), st.Messages)

	// --- Side-by-side with the Section IV alternatives.
	fmt.Fprintln(w, "\nsame workload under the design-space alternatives:")
	for _, alt := range []string{"central (warehouse in singapore)", "dht (random placement)"} {
		altNet := netsim.New(netsim.Config{})
		var altSites []netsim.SiteID
		for _, z := range cities {
			altSites = append(altSites, altNet.AddSite(z.Name, z.Center, z.Name))
		}
		var m arch.Model
		switch alt {
		case "central (warehouse in singapore)":
			m = central.New(altNet, siteOfIn(altNet, "singapore"))
		default:
			m = dht.New(altNet, altSites)
		}
		// Publish boston's traffic data only, then query it from boston.
		sets := workload.Generate(workload.Config{
			Domain: workload.DomainTraffic, Zones: []string{"boston"},
			Windows: 4, SensorsPerZone: 3, ReadingsPerSensor: 6,
			WindowDur: time.Hour, Seed: 6,
		})
		bostonAlt := altSites[0]
		for i, z := range cities {
			if z.Name == "boston" {
				bostonAlt = altSites[i]
			}
		}
		c2 := int64(0)
		for _, g := range sets {
			rec, id, err := provenance.NewRaw(g.Set.Digest(), int64(g.Set.EncodedSize())).
				Attrs(g.Attrs...).CreatedAt(func() int64 { c2++; return c2 }()).Build()
			if err != nil {
				return err
			}
			if _, err := m.Publish(arch.Pub{ID: id, Rec: rec, Origin: bostonAlt}); err != nil {
				return err
			}
		}
		if err := m.Tick(); err != nil {
			return err
		}
		altNet.ResetStats()
		_, lat, err := m.QueryAttr(bostonAlt, provenance.KeyZone, provenance.String("boston"))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-34s boston-local query: %8v, %6d WAN bytes\n",
			alt+":", lat.Round(time.Microsecond), altNet.Stats().WANBytes)
	}
	net.ResetStats()
	_, localLat, err := model.QueryAttr(boston, provenance.KeyZone, provenance.String("boston"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  %-34s boston-local query: %8v, %6d WAN bytes\n",
		"passnet (this example):", localLat.Round(time.Microsecond), net.Stats().WANBytes)
	fmt.Fprintln(w, "\nBoston traffic data belongs in Boston — and under PASS, it stays there.")
	return nil
}

// siteOfIn finds a named site in a network (it was registered above).
func siteOfIn(n *netsim.Network, name string) netsim.SiteID {
	if id := n.SiteByName(name); id != netsim.InvalidSite {
		return id
	}
	return 0
}
