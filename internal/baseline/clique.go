package baseline

import (
	"fmt"
	"sort"
	"strings"

	"charles/internal/engine"
)

// CliqueConfig parameterizes the miniature CLIQUE implementation.
type CliqueConfig struct {
	// Xi is the number of equal-width bins per numeric dimension
	// (the ξ grid resolution of the original paper). Nominal
	// dimensions use one bin per value capped at Xi by frequency.
	Xi int
	// Tau is the density threshold as a fraction of the row count: a
	// unit is dense when it holds at least Tau·N rows.
	Tau float64
	// MaxDims bounds the subspace dimensionality explored.
	MaxDims int
}

// DefaultCliqueConfig mirrors common CLIQUE settings: a 10-bin grid
// with a 1% density threshold up to 3-dimensional subspaces.
func DefaultCliqueConfig() CliqueConfig {
	return CliqueConfig{Xi: 10, Tau: 0.01, MaxDims: 3}
}

// CliqueUnit is one dense grid cell: a bin index per dimension of
// its subspace.
type CliqueUnit struct {
	// Bins maps attribute name to bin index.
	Bins map[string]int
	// Count is the number of rows inside the unit.
	Count int
}

// CliqueCluster is a maximal set of connected dense units in one
// subspace, reported with its total coverage. Expressed in DNF it is
// the union of its units' hyper-rectangles — the output format
// Section 6.4 compares with SDL partitions.
type CliqueCluster struct {
	// Subspace lists the dimensions, sorted.
	Subspace []string
	// Units are the connected dense cells.
	Units []CliqueUnit
	// Coverage is the number of rows in the cluster.
	Coverage int
}

// DNF renders the cluster as the disjunction of per-unit
// conjunctions over bin ranges, e.g.
// ((30<=age<50) ∧ (5<=salary<8)) ∨ (...).
func (c *CliqueCluster) DNF(g *cliqueGrid) string {
	terms := make([]string, 0, len(c.Units))
	for _, u := range c.Units {
		conj := make([]string, 0, len(c.Subspace))
		for _, dim := range c.Subspace {
			conj = append(conj, g.binPredicate(dim, u.Bins[dim]))
		}
		terms = append(terms, "("+strings.Join(conj, " ∧ ")+")")
	}
	return strings.Join(terms, " ∨ ")
}

// CliqueResult bundles the clusters with the grid used to express
// them.
type CliqueResult struct {
	Clusters []CliqueCluster
	grid     *cliqueGrid
	// DenseUnitCount is the total number of dense units found across
	// all subspaces (the search-space size driver).
	DenseUnitCount int
}

// DNF renders one cluster of the result.
func (r *CliqueResult) DNF(i int) string { return r.Clusters[i].DNF(r.grid) }

// cliqueGrid precomputes each row's bin per dimension.
type cliqueGrid struct {
	attrs   []string
	kind    map[string]engine.Kind
	bins    map[string][]int // per attr: bin id per selected row position
	numBins map[string]int   // per attr: bin count
	binLo   map[string][]float64
	binHi   map[string][]float64
	binName map[string][]string // nominal bin labels
	n       int
}

func (g *cliqueGrid) binPredicate(attr string, bin int) string {
	if names, ok := g.binName[attr]; ok && names != nil {
		return fmt.Sprintf("%s=%s", attr, names[bin])
	}
	return fmt.Sprintf("%.4g<=%s<%.4g", g.binLo[attr][bin], attr, g.binHi[attr][bin])
}

// Clique runs the bottom-up grid-density subspace clustering of
// Agrawal et al. (SIGMOD 1998) on the selected rows of the table,
// restricted to attrs: find dense 1-dimensional units, join dense
// (k−1)-dimensional units Apriori-style into k-dimensional
// candidates, keep the dense ones, and report connected components
// per subspace as clusters.
func Clique(tab *engine.Table, sel engine.Selection, attrs []string, cfg CliqueConfig) (*CliqueResult, error) {
	if cfg.Xi < 2 {
		cfg.Xi = 10
	}
	if cfg.Tau <= 0 {
		cfg.Tau = 0.01
	}
	if cfg.MaxDims < 1 {
		cfg.MaxDims = 3
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("baseline: clique on empty selection")
	}
	g, err := buildGrid(tab, sel, attrs, cfg.Xi)
	if err != nil {
		return nil, err
	}
	minCount := int(cfg.Tau * float64(len(sel)))
	if minCount < 1 {
		minCount = 1
	}
	// Level 1: dense 1-dim units.
	level := map[string]*CliqueUnit{}
	for _, attr := range g.attrs {
		counts := make([]int, g.numBins[attr])
		for _, b := range g.bins[attr] {
			counts[b]++
		}
		for b, c := range counts {
			if c >= minCount {
				u := &CliqueUnit{Bins: map[string]int{attr: b}, Count: c}
				level[unitID(u)] = u
			}
		}
	}
	result := &CliqueResult{grid: g}
	allDense := map[int][]*CliqueUnit{1: unitList(level)}
	result.DenseUnitCount = len(level)
	// Levels 2..MaxDims: Apriori joins.
	for k := 2; k <= cfg.MaxDims && len(level) > 1; k++ {
		candidates := map[string]*CliqueUnit{}
		units := unitList(level)
		for i := 0; i < len(units); i++ {
			for j := i + 1; j < len(units); j++ {
				joined, ok := joinUnits(units[i], units[j])
				if !ok {
					continue
				}
				candidates[unitID(joined)] = joined
			}
		}
		next := map[string]*CliqueUnit{}
		for key, u := range candidates {
			c := g.countUnit(u)
			if c >= minCount {
				u.Count = c
				next[key] = u
			}
		}
		if len(next) == 0 {
			break
		}
		level = next
		allDense[k] = unitList(level)
		result.DenseUnitCount += len(level)
	}
	// Clusters: connected components per subspace, deepest first.
	for k := cfg.MaxDims; k >= 1; k-- {
		units := allDense[k]
		if len(units) == 0 {
			continue
		}
		bySubspace := map[string][]*CliqueUnit{}
		for _, u := range units {
			bySubspace[subspaceID(u)] = append(bySubspace[subspaceID(u)], u)
		}
		subspaces := make([]string, 0, len(bySubspace))
		for s := range bySubspace {
			subspaces = append(subspaces, s)
		}
		sort.Strings(subspaces)
		for _, s := range subspaces {
			result.Clusters = append(result.Clusters, connectedComponents(g, bySubspace[s])...)
		}
	}
	return result, nil
}

func buildGrid(tab *engine.Table, sel engine.Selection, attrs []string, xi int) (*cliqueGrid, error) {
	g := &cliqueGrid{
		kind:    map[string]engine.Kind{},
		bins:    map[string][]int{},
		numBins: map[string]int{},
		binLo:   map[string][]float64{},
		binHi:   map[string][]float64{},
		binName: map[string][]string{},
		n:       len(sel),
	}
	for _, attr := range attrs {
		col, ok := tab.ColumnByName(attr)
		if !ok {
			return nil, fmt.Errorf("baseline: no column %q", attr)
		}
		g.attrs = append(g.attrs, attr)
		g.kind[attr] = col.Kind()
		switch col := col.(type) {
		case *engine.StringColumn:
			binOf := map[string]int{}
			vcs := engine.StringValueCountsChunked(col, engine.ChunkSelection(sel, tab.NumRows(), tab.ChunkRows()))
			sort.Slice(vcs, func(i, j int) bool {
				if vcs[i].Count != vcs[j].Count {
					return vcs[i].Count > vcs[j].Count
				}
				return vcs[i].Value < vcs[j].Value
			})
			var names []string
			for i, vc := range vcs {
				if i < xi-1 || len(vcs) <= xi {
					binOf[vc.Value] = len(names)
					names = append(names, vc.Value)
				}
			}
			other := -1
			if len(vcs) > xi {
				other = len(names)
				names = append(names, "<other>")
			}
			bins := make([]int, len(sel))
			for i, row := range sel {
				if b, ok := binOf[col.Str(int(row))]; ok {
					bins[i] = b
				} else {
					bins[i] = other
				}
			}
			g.bins[attr] = bins
			g.numBins[attr] = len(names)
			g.binName[attr] = names
		case *engine.BoolColumn:
			bins := make([]int, len(sel))
			for i, row := range sel {
				if col.Bool(int(row)) {
					bins[i] = 1
				}
			}
			g.bins[attr] = bins
			g.numBins[attr] = 2
			g.binName[attr] = []string{"false", "true"}
		default:
			vals := make([]float64, len(sel))
			switch col := col.(type) {
			case *engine.FloatColumn:
				for i, row := range sel {
					vals[i] = col.Float64(int(row))
				}
			case engine.IntValued:
				for i, row := range sel {
					vals[i] = float64(col.Int64(int(row)))
				}
			default:
				return nil, fmt.Errorf("baseline: cannot grid column %q", attr)
			}
			min, max := vals[0], vals[0]
			for _, v := range vals {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			w := (max - min) / float64(xi)
			if w == 0 {
				w = 1
			}
			bins := make([]int, len(sel))
			lo := make([]float64, xi)
			hi := make([]float64, xi)
			for b := 0; b < xi; b++ {
				lo[b] = min + float64(b)*w
				hi[b] = min + float64(b+1)*w
			}
			for i, v := range vals {
				b := int((v - min) / w)
				if b >= xi {
					b = xi - 1
				}
				bins[i] = b
			}
			g.bins[attr] = bins
			g.numBins[attr] = xi
			g.binLo[attr] = lo
			g.binHi[attr] = hi
		}
	}
	return g, nil
}

func (g *cliqueGrid) countUnit(u *CliqueUnit) int {
	count := 0
	for i := 0; i < g.n; i++ {
		match := true
		for attr, b := range u.Bins {
			if g.bins[attr][i] != b {
				match = false
				break
			}
		}
		if match {
			count++
		}
	}
	return count
}

func unitID(u *CliqueUnit) string {
	keys := make([]string, 0, len(u.Bins))
	for k := range u.Bins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d;", k, u.Bins[k])
	}
	return b.String()
}

func subspaceID(u *CliqueUnit) string {
	keys := make([]string, 0, len(u.Bins))
	for k := range u.Bins {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}

func unitList(m map[string]*CliqueUnit) []*CliqueUnit {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*CliqueUnit, 0, len(m))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// joinUnits merges two (k−1)-dim units sharing k−2 dimensions with
// equal bins into one k-dim candidate (the Apriori join).
func joinUnits(a, b *CliqueUnit) (*CliqueUnit, bool) {
	if len(a.Bins) != len(b.Bins) {
		return nil, false
	}
	diff := 0
	merged := make(map[string]int, len(a.Bins)+1)
	for k, v := range a.Bins {
		merged[k] = v
	}
	for k, v := range b.Bins {
		if av, ok := a.Bins[k]; ok {
			if av != v {
				return nil, false // same dim, different bin
			}
			continue
		}
		diff++
		merged[k] = v
	}
	for k := range a.Bins {
		if _, ok := b.Bins[k]; !ok {
			diff++ // a-only dims count toward the reverse diff
		}
	}
	if diff != 2 { // exactly one new dim from each side
		return nil, false
	}
	return &CliqueUnit{Bins: merged}, true
}

// connectedComponents groups units of one subspace into clusters:
// two units are adjacent when they differ by exactly one bin step in
// exactly one numeric dimension (nominal bins must match).
func connectedComponents(g *cliqueGrid, units []*CliqueUnit) []CliqueCluster {
	n := len(units)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if adjacentUnits(g, units[i], units[j]) {
				union(i, j)
			}
		}
	}
	groups := map[int][]*CliqueUnit{}
	for i, u := range units {
		groups[find(i)] = append(groups[find(i)], u)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	var out []CliqueCluster
	for _, r := range roots {
		us := groups[r]
		var subspace []string
		for k := range us[0].Bins {
			subspace = append(subspace, k)
		}
		sort.Strings(subspace)
		cluster := CliqueCluster{Subspace: subspace}
		for _, u := range us {
			cluster.Units = append(cluster.Units, *u)
			cluster.Coverage += u.Count
		}
		out = append(out, cluster)
	}
	return out
}

func adjacentUnits(g *cliqueGrid, a, b *CliqueUnit) bool {
	diffs := 0
	for attr, av := range a.Bins {
		bv := b.Bins[attr]
		if av == bv {
			continue
		}
		// Nominal bins have no order: never adjacent.
		if g.binName[attr] != nil {
			return false
		}
		if av-bv == 1 || bv-av == 1 {
			diffs++
			if diffs > 1 {
				return false
			}
			continue
		}
		return false
	}
	return diffs == 1
}
