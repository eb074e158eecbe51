package roster

import (
	"testing"

	"pass/internal/arch/archtest"
	"pass/internal/arch/scenario"
	"pass/internal/provenance"
)

// Every entrant builds on the 4-site test network, acknowledges a publish,
// and resolves it from every site once maintenance has run.
func TestEveryEntrantPublishesAndLooksUp(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			build, ok := Lookup(name)
			if !ok {
				t.Fatalf("Names lists %q but Lookup misses it", name)
			}
			net, sites := archtest.NewNetwork()
			m := build(net, sites)
			p := scenario.PubN(1, sites[0], provenance.Attr(provenance.KeyZone, provenance.String("boston")))
			if _, err := m.Publish(p); err != nil {
				t.Fatal(err)
			}
			if err := m.Tick(); err != nil {
				t.Fatal(err)
			}
			for _, from := range sites {
				rec, _, err := m.Lookup(from, p.ID)
				if err != nil {
					t.Fatalf("lookup from %d: %v", from, err)
				}
				if rec.ComputeID() != p.ID {
					t.Fatalf("lookup from %d returned the wrong record", from)
				}
			}
		})
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}
