// Package harness runs the reproduction's experiment suite, E1–E18. The
// paper (a position paper) contains no numbered tables or figures; each
// experiment instead makes one of its quantitative or comparative claims
// measurable — see the README experiment map for the claim-to-experiment
// mapping and ARCHITECTURE.md for how an experiment flows through the
// registry, the drivers, and the benchmark gates.
//
// Every experiment returns a Result holding a printable table plus named
// scalar findings that the test suite asserts on (the "shape" checks:
// who wins, what grows, where the crossover falls).
package harness

import (
	"fmt"
	"os"
	"sort"

	"pass/internal/metrics"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier ("E1" … "E18").
	ID string
	// Title summarizes the claim under test.
	Title string
	// Table is the printable result table.
	Table *metrics.Table
	// Findings holds named scalar observations for programmatic checks.
	Findings map[string]float64
	// Notes carries free-form commentary rows (assumptions, pointers).
	Notes []string
}

// String renders the result for terminal output.
func (r *Result) String() string {
	out := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Table.String())
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// Finding fetches a named finding (0 when absent).
func (r *Result) Finding(name string) float64 { return r.Findings[name] }

// Scale trades experiment size for runtime: 1.0 is the recorded full
// configuration; tests use smaller values.
type Scale float64

// n scales a count, with a floor of 1.
func (s Scale) n(base int) int {
	v := int(float64(base) * float64(s))
	if v < 1 {
		return 1
	}
	return v
}

// Runner executes experiments into temp directories it cleans up.
type Runner struct {
	scale  Scale
	serial bool
}

// NewRunner returns a runner at the given scale (0 = full scale 1.0).
// Sweep experiments run their cells in parallel by default; SetParallel
// switches the serial path on for debugging and for the
// serial-vs-parallel equivalence tests.
func NewRunner(scale Scale) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{scale: scale}
}

// SetParallel switches the parallel cell runner on or off and returns the
// runner for chaining. Both modes produce byte-identical tables and
// findings: every cell owns its network, model, clock, and RNG seeds.
func (r *Runner) SetParallel(on bool) *Runner {
	r.serial = !on
	return r
}

// Parallel reports whether sweep cells run on the worker pool.
func (r *Runner) Parallel() bool { return !r.serial }

// tempDir makes a scratch directory; the caller removes it.
func tempDir(pattern string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "pass-"+pattern+"-*")
	if err != nil {
		return "", nil, err
	}
	return dir, func() { os.RemoveAll(dir) }, nil
}

// Experiment is a registry entry.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner) (*Result, error)
}

// All returns the registry in ID order.
func All() []Experiment {
	exps := []Experiment{
		{"E1", "Indexing granularity: tuples vs tuple sets (§II)", (*Runner).E1Granularity},
		{"E2", "Provenance-as-name vs conventional filenames (§II-A)", (*Runner).E2Naming},
		{"E3", "Flat name-value scan vs augmented index structures (§II-B)", (*Runner).E3IndexStructures},
		{"E4", "Transitive closure: naive walk vs memoized closure (§III-B/D)", (*Runner).E4TransitiveClosure},
		{"E5", "Publish scalability across architectures (§IV)", (*Runner).E5UpdateScalability},
		{"E6", "Locality: Boston data belongs in Boston (§III-D, §IV-C)", (*Runner).E6Locality},
		{"E7", "Soft-state staleness vs refresh period (§IV-B)", (*Runner).E7SoftStateStaleness},
		{"E8", "Hierarchical significance-ordering penalty (§IV-B)", (*Runner).E8HierarchyOrdering},
		{"E9", "DHT update load and recursive-query cost (§IV-C)", (*Runner).E9DHTUpdates},
		{"E10", "Crash recovery: provenance consistent with data (§IV Reliability)", (*Runner).E10Recovery},
		{"E11", "Distributed transitive closure across sites (§V)", (*Runner).E11DistributedClosure},
		{"E12", "The four PASS properties P1–P4 (§V)", (*Runner).E12PASSProperties},
		{"E13", "Resource consumption: central vs distributed crossover (§IV)", (*Runner).E13ResourceCrossover},
		{"E14", "Survivability: recall and WAN cost under loss at scale (§IV Reliability)", (*Runner).E14Survivability},
		{"E15", "Split-brain: divergent per-site views under partition, convergence after heal (§IV Consistency)", (*Runner).E15SplitBrain},
		{"E16", "Churn: crash, stabilize, rejoin — recall and recovery cost vs crash rate (§IV Reliability)", (*Runner).E16Churn},
		{"E17", "Membership: randomized join/crash/partition schedules — recall, handoff cost, convergence (§IV Reliability)", (*Runner).E17Membership},
		{"E18", "Overload: open-loop bursty load at 1x-100x nominal — graceful shedding vs collapse (§IV Performance)", (*Runner).E18Overload},
	}
	sort.Slice(exps, func(i, j int) bool {
		// E1 < E2 < ... < E13 numerically.
		return expNum(exps[i].ID) < expNum(exps[j].ID)
	})
	return exps
}

func expNum(id string) int {
	n := 0
	for _, c := range id[1:] {
		n = n*10 + int(c-'0')
	}
	return n
}

// Lookup finds one experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
