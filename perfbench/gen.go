package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"charles"
	"charles/internal/engine"
)

// tableRows is the size of every workload's generated VOC table.
const tableRows = 1_000_000

// batchRows is the size of one append_mix batch.
const batchRows = 1000

// vocAttrs is the VOC schema (internal/dataset.VOC), the attribute
// universe contexts are drawn from.
var vocAttrs = []string{
	"type_of_boat", "tonnage", "built", "yard", "departure_date",
	"departure_harbour", "cape_arrival", "trip", "master",
}

// Streams derived from the workload seed. Each consumer draws from
// its own stream, so adding draws to one never shifts another.
const (
	streamTable = iota + 1
	streamColdContexts
	streamRoots
	streamWalk0
	streamWalk1
	streamDashboard
	streamBatches
	streamChecks
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// tableSeed is the generator seed of the workload's table.
func tableSeed(seed int64) int64 { return newRand(seed, streamTable).Int63() }

// design is one class of a cyclic block design over the nine VOC
// attributes: context i (0 ≤ i < count) holds attributes
// (i + offset) mod 9 for each offset, so with count 9 every attribute
// appears equally often within the class. Contexts with
// i%3 == constrain constrain their first attribute. The designs are
// fixed; the seed picks the constraint literals, the order and
// (through the table seed) the rows. A fixed design keeps a run's
// latency mix, and so its medians, steady from seed to seed, where
// contexts drawn at random spread run medians by ±15%.
type design struct {
	offsets   []int
	count     int
	constrain int
}

// contextsFor renders every context of the classes, each class
// shuffled, then interleaved class by class so that any prefix of
// the list mixes the classes evenly.
func contextsFor(rng *rand.Rand, tab *charles.Table, classes ...design) []string {
	rendered := make([][]string, len(classes))
	longest := 0
	for c, d := range classes {
		for i := 0; i < d.count; i++ {
			attrs := make([]string, len(d.offsets))
			for j, o := range d.offsets {
				attrs[j] = vocAttrs[(i+o)%len(vocAttrs)]
			}
			rendered[c] = append(rendered[c], renderContext(rng, tab, attrs, i%3 == d.constrain))
		}
		rng.Shuffle(d.count, func(a, b int) { rendered[c][a], rendered[c][b] = rendered[c][b], rendered[c][a] })
		longest = max(longest, d.count)
	}
	var out []string
	for i := 0; i < longest; i++ {
		for c := range rendered {
			if i < len(rendered[c]) {
				out = append(out, rendered[c][i])
			}
		}
	}
	return out
}

// renderContext prints attrs as an SDL context, constraining the
// first one when constrain is set.
func renderContext(rng *rand.Rand, tab *charles.Table, attrs []string, constrain bool) string {
	s := "("
	for i, a := range attrs {
		if i > 0 {
			s += ", "
		}
		s += a + ":"
		if i == 0 && constrain {
			s += " " + constraintFor(rng, tab, a)
		}
	}
	return s + ")"
}

// constraintShare is the share of rows a constraint keeps.
const constraintShare = 0.25

// constraintFor draws a constraint on attr that keeps about a quarter
// of tab's rows, so extents, and with them latencies, are alike from
// seed to seed: a window between two quantiles at a seeded position
// for numbers and dates, and for strings the values taken in seeded
// order until they cover a quarter of the rows. Ranges on built and
// the dates that follow it meet the .chc clustering, so zone maps
// prune them; the other constraints leave every chunk to scan.
func constraintFor(rng *rand.Rand, tab *charles.Table, attr string) string {
	col := tab.MustColumn(attr)
	step := max(1, col.Len()/10007)
	var sample []charles.Value
	for r := 0; r < col.Len(); r += step {
		sample = append(sample, col.Value(r))
	}
	if col.Kind() == engine.KindString {
		freq := map[string]int{}
		for _, v := range sample {
			freq[v.AsString()]++
		}
		vals := make([]string, 0, len(freq))
		for v := range freq {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		var set []string
		covered := 0
		for _, v := range vals {
			set = append(set, "'"+strings.ReplaceAll(v, "'", "''")+"'")
			if covered += freq[v]; float64(covered) >= constraintShare*float64(len(sample)) {
				break
			}
		}
		return "{" + strings.Join(set, ", ") + "}"
	}
	sort.Slice(sample, func(i, j int) bool { return sample[i].Compare(sample[j]) < 0 })
	lo := rng.Intn(int(float64(len(sample)) * (1 - constraintShare)))
	hi := lo + int(float64(len(sample))*constraintShare)
	return fmt.Sprintf("[%s, %s)", literal(sample[lo]), literal(sample[hi]))
}

// literal prints a number or date as SDL.
func literal(v charles.Value) string {
	if v.Kind() == engine.KindDate {
		return engine.FormatDays(v.AsInt())
	}
	return fmt.Sprint(v.AsInt())
}

// coldContexts is cold_scan's pool: 27 contexts, nine each of 3, 4
// and 5 attributes. Constraints fall on every attribute once; those
// on built, departure_date and cape_arrival meet the .chc clustering,
// so zone maps prune for them and not for the others.
func coldContexts(seed int64, tab *charles.Table) []string {
	return contextsFor(newRand(seed, streamColdContexts), tab,
		design{offsets: []int{0, 1, 3}, count: 9, constrain: 1},
		design{offsets: []int{0, 2, 3, 7}, count: 9, constrain: 2},
		design{offsets: []int{0, 1, 2, 4, 6}, count: 9, constrain: 0})
}

// threeAttrContexts is a 12-context pool of 3-attribute contexts:
// the nine {i, i+1, i+3} plus the three disjoint {i, i+3, i+6}, so
// every attribute appears four times. Four are constrained.
func threeAttrContexts(rng *rand.Rand, tab *charles.Table) []string {
	return contextsFor(rng, tab,
		design{offsets: []int{0, 1, 3}, count: 9, constrain: 2},
		design{offsets: []int{0, 3, 6}, count: 3, constrain: 0})
}

// rootPools gives each explore session its own six roots; the pools
// are disjoint, so first visits and revisits depend on the seed only.
func rootPools(seed int64, tab *charles.Table) [2][]string {
	var pools [2][]string
	for i, c := range threeAttrContexts(newRand(seed, streamRoots), tab) {
		pools[i%2] = append(pools[i%2], c)
	}
	return pools
}

// walk is one explore session step plan: a root and the raw draws
// that pick a segment at each zoom level (taken modulo the segment
// count the page offers).
type walk struct {
	root  int
	picks []uint32
}

// walker draws one session's walks in order.
type walker struct {
	rng   *rand.Rand
	roots int
}

func newWalker(seed int64, session, roots int) *walker {
	return &walker{rng: newRand(seed, streamWalk0+session), roots: roots}
}

func (w *walker) next() walk {
	wk := walk{root: w.rng.Intn(w.roots)}
	depth := 1 + w.rng.Intn(3)
	for i := 0; i < depth; i++ {
		wk.picks = append(wk.picks, w.rng.Uint32())
	}
	return wk
}

// dashboardContexts are append_mix's twelve reader contexts of two
// attributes each: the nine {i, i+1} plus {i, i+3} for i < 3, four of
// them constrained. Two attributes keep the reader's re-advise burst
// after each append well inside the 500 ms batch interval; with three,
// a slow second pushed the burst into the next append, whose latency
// then jumped by a whole re-advise and spread run medians by ±20%.
func dashboardContexts(seed int64, tab *charles.Table) []string {
	return contextsFor(newRand(seed, streamDashboard), tab,
		design{offsets: []int{0, 1}, count: 9, constrain: 2},
		design{offsets: []int{0, 3}, count: 3, constrain: 0})
}

// batch is one append_mix batch, in both the JSON body POST /append
// takes and the engine rows the reference table appends.
type batch struct {
	json []map[string]any
	rows [][]charles.Value
}

// makeBatch generates batch k: batchRows fresh VOC rows from a seed
// derived from (seed, k).
func makeBatch(seed int64, k int) batch {
	t := charles.GenerateVOC(batchRows, newRand(seed*100_003+int64(k), streamBatches).Int63())
	b := batch{json: make([]map[string]any, batchRows), rows: make([][]charles.Value, batchRows)}
	for r := 0; r < batchRows; r++ {
		obj := make(map[string]any, t.NumCols())
		row := make([]charles.Value, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			col := t.Column(c)
			v := col.Value(r)
			row[c] = v
			obj[col.Name()] = jsonValue(v)
		}
		b.json[r] = obj
		b.rows[r] = row
	}
	return b
}

// jsonValue renders v the way POST /append coerces it back: numbers
// for int columns, "YYYY-MM-DD" for dates.
func jsonValue(v charles.Value) any {
	switch v.Kind() {
	case engine.KindInt:
		return v.AsInt()
	case engine.KindFloat:
		return v.AsFloat()
	case engine.KindDate:
		return engine.FormatDays(v.AsInt())
	case engine.KindBool:
		return v.AsBool()
	}
	return v.AsString()
}
