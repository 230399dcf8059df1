// Package core implements the paper's primary contribution: the
// HB-cuts heuristic of Section 4 (Figure 4 pseudo-code), which
// generates segmentations by recursive binary cuts composed along
// the most dependent attributes, plus the ranking of results and the
// Section 5.2 future-work extensions — lazy generation, arbitrary
// quantiles, sampled medians, chi-squared stopping, and adaptive
// per-piece cuts.
package core

import (
	"cmp"
	"slices"
	"strings"

	"charles/internal/par"
	"charles/internal/seg"
)

// PairPolicy selects how HB-cuts picks the candidate pair to
// compose at each iteration.
type PairPolicy uint8

// Pair selection policies.
const (
	// PairMostDependent is the paper's rule: the pair with the
	// smallest INDEP quotient.
	PairMostDependent PairPolicy = iota
	// PairRandom composes a uniformly random pair — the ablation of
	// dependence-driven composition used in experiment E9.
	PairRandom
)

// Config parameterizes HB-cuts. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// MaxIndep is the INDEP threshold of Figure 4: composition stops
	// when the most dependent pair's quotient reaches it. The paper:
	// "a threshold of 0.99 gave satisfying results with most data
	// sets".
	MaxIndep float64
	// MaxDepth bounds the number of queries in a composed
	// segmentation ("a pie chart with more than a dozen slices is
	// hard to read").
	MaxDepth int
	// Cut configures the CUT primitive (arity, nominal ordering,
	// sampling).
	Cut seg.CutOptions
	// UseChiSquare replaces the fixed MaxIndep threshold with the
	// statistical hypothesis test Section 4.2 suggests: composition
	// stops when the pair is consistent with independence at
	// significance ChiAlpha.
	UseChiSquare bool
	// ChiAlpha is the significance level for UseChiSquare (default
	// 0.05).
	ChiAlpha float64
	// Pairing selects the composition pair policy.
	Pairing PairPolicy
	// Seed drives PairRandom (ignored otherwise).
	Seed int64
	// Score ranks the output; nil means EntropyScore (the paper
	// returns results "by order of entropy").
	Score ScoreFunc
	// Workers bounds the fan-out of the advisor core: initial cuts,
	// per-step INDEP pair evaluations, the pairwise contingency cell
	// loops behind them, and adaptive attribute search run on at most
	// this many goroutines. Values below 1 mean one worker per
	// available CPU (runtime.GOMAXPROCS). The ranked output is
	// identical for every worker count.
	Workers int
	// ChunkRows fixes the storage layer's row-range chunk width —
	// the shard the table, its selections and its bitmaps split into
	// for parallel scanning and zone-map skipping. 0 (the default)
	// means the automatic width (engine.DefaultChunkRows, 64K rows);
	// other values are rounded up to a power of two. Like Workers
	// it never changes ranked output — the k-th
	// smallest of a multiset does not depend on how the multiset is
	// sharded — only where the wall-clock and memory go.
	ChunkRows int
}

// DefaultConfig returns the paper's configuration: maxIndep 0.99,
// maxDepth 12, binary median cuts, entropy ranking.
func DefaultConfig() Config {
	return Config{
		MaxIndep: 0.99,
		MaxDepth: 12,
		Cut:      seg.DefaultCutOptions(),
		ChiAlpha: 0.05,
	}
}

func (c Config) normalize() Config {
	if c.MaxIndep <= 0 {
		c.MaxIndep = 0.99
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.ChiAlpha <= 0 {
		c.ChiAlpha = 0.05
	}
	if c.Score == nil {
		c.Score = EntropyScore
	}
	c.Workers = par.Workers(c.Workers)
	return c
}

// ScoreFunc maps a segmentation's metrics to a ranking score;
// higher is better.
type ScoreFunc func(seg.Metrics) float64

// EntropyScore is the paper's ranking: by entropy (Definition 4).
func EntropyScore(m seg.Metrics) float64 { return m.Entropy }

// WeightedScore combines the three criteria of Section 3 into one
// score: we·entropy + wb·breadth − ws·simplicity. The principles
// "act as safeguards against one another", so exposing the weights
// lets users move through the 3-dimensional criteria space.
func WeightedScore(we, wb, ws float64) ScoreFunc {
	return func(m seg.Metrics) float64 {
		return we*m.Entropy + wb*float64(m.Breadth) - ws*float64(m.Simplicity)
	}
}

// BalanceScore ranks by entropy relative to the maximum for the
// segmentation's depth, preferring balanced splits over merely deep
// ones.
func BalanceScore(m seg.Metrics) float64 { return m.Balance }

// Scored pairs a segmentation with its computed metrics and ranking
// score.
type Scored struct {
	Seg     *seg.Segmentation
	Metrics seg.Metrics
	Score   float64
}

func newScored(s *seg.Segmentation, score ScoreFunc) Scored {
	m := s.ComputeMetrics()
	return Scored{Seg: s, Metrics: m, Score: score(m)}
}

// sortScored orders by score descending with deterministic
// tie-breaks: breadth descending, simplicity ascending, depth
// descending, then canonical key.
func sortScored(out []Scored) {
	slices.SortStableFunc(out, func(a, b Scored) int {
		if a.Score != b.Score {
			// Negative exactly when a.Score > b.Score, NaN included,
			// as the reflection sort's less function had it.
			if a.Score > b.Score {
				return -1
			}
			return 1
		}
		return cmp.Or(
			cmp.Compare(b.Metrics.Breadth, a.Metrics.Breadth),
			cmp.Compare(a.Metrics.Simplicity, b.Metrics.Simplicity),
			cmp.Compare(b.Metrics.Depth, a.Metrics.Depth),
			strings.Compare(a.Seg.Key(), b.Seg.Key()),
		)
	})
}
