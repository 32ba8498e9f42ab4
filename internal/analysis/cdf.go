// Package analysis computes the statistics behind every figure and
// headline number of the paper from a crawl survey: TCB size
// distributions (Figure 2), per-TLD averages (Figures 3 and 4),
// vulnerability poisoning (Figures 5 and 6), bottleneck min-cuts
// (Figure 7), and nameserver control rankings (Figures 8 and 9).
package analysis

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// CDF is an empirical cumulative distribution over integer observations,
// kept as a canonical run list: each distinct value once, ascending, with
// the number of observations at or below it. Two CDFs of the same
// multiset are identical values, however they were built.
type CDF struct {
	xs  []int // distinct observations, ascending
	cum []int // cum[i]: observations <= xs[i]
}

// NewCDF builds a CDF from unsorted observations (the slice is not
// modified).
func NewCDF(xs []int) *CDF {
	if len(xs) == 0 {
		return &CDF{}
	}
	cp := slices.Clone(xs)
	slices.Sort(cp)
	c := &CDF{}
	for i, x := range cp {
		if i+1 < len(cp) && cp[i+1] == x {
			continue
		}
		c.xs = append(c.xs, x)
		c.cum = append(c.cum, i+1)
	}
	return c
}

// hist counts non-negative observations by value — hist[x] is how many
// equal x — so a distribution can gain and lose observations one at a
// time and still render its CDF in O(largest value).
type hist []int

// add records d more (or, negative, fewer) observations of x.
func (h *hist) add(x, d int) {
	if x >= len(*h) {
		*h = append(*h, make([]int, x+1-len(*h))...)
	}
	(*h)[x] += d
}

// cdf renders the counted observations as a CDF.
func (h hist) cdf() *CDF {
	c := &CDF{}
	n := 0
	for x, k := range h {
		if k != 0 {
			n += k
			c.xs = append(c.xs, x)
			c.cum = append(c.cum, n)
		}
	}
	return c
}

// N returns the number of observations.
func (c *CDF) N() int {
	if len(c.cum) == 0 {
		return 0
	}
	return c.cum[len(c.cum)-1]
}

// Mean returns the arithmetic mean (0 for empty).
func (c *CDF) Mean() float64 {
	if len(c.xs) == 0 {
		return 0
	}
	sum, below := 0, 0
	for i, x := range c.xs {
		sum += x * (c.cum[i] - below)
		below = c.cum[i]
	}
	return float64(sum) / float64(c.N())
}

// Median returns the 50th percentile.
func (c *CDF) Median() int { return c.Quantile(0.5) }

// Quantile returns the q-th quantile (0 <= q <= 1) by nearest rank.
func (c *CDF) Quantile(q float64) int {
	if len(c.xs) == 0 {
		return 0
	}
	if q <= 0 {
		return c.xs[0]
	}
	if q >= 1 {
		return c.xs[len(c.xs)-1]
	}
	rank := max(int(math.Ceil(q*float64(c.N()))), 1)
	return c.xs[sort.SearchInts(c.cum, rank)]
}

// Max returns the largest observation (0 for empty).
func (c *CDF) Max() int {
	if len(c.xs) == 0 {
		return 0
	}
	return c.xs[len(c.xs)-1]
}

// atMost returns how many observations are <= x.
func (c *CDF) atMost(x int) int {
	if i := sort.SearchInts(c.xs, x+1); i > 0 {
		return c.cum[i-1]
	}
	return 0
}

// FracAbove returns the fraction of observations strictly greater than x.
func (c *CDF) FracAbove(x int) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	return float64(c.N()-c.atMost(x)) / float64(c.N())
}

// FracAtMost returns the fraction of observations <= x (the CDF value).
func (c *CDF) FracAtMost(x int) float64 {
	if len(c.xs) == 0 {
		return 0
	}
	return float64(c.atMost(x)) / float64(c.N())
}

// Point is one (x, cumulative %) sample of a rendered CDF curve.
type Point struct {
	X   int
	Pct float64
}

// Curve samples the CDF at every distinct value, producing the series a
// figure plots. For large supports it subsamples to at most maxPoints.
func (c *CDF) Curve(maxPoints int) []Point {
	if len(c.xs) == 0 {
		return nil
	}
	pts := make([]Point, len(c.xs))
	n := float64(c.N())
	for i, x := range c.xs {
		pts[i] = Point{X: x, Pct: 100 * float64(c.cum[i]) / n}
	}
	if maxPoints > 0 && len(pts) > maxPoints {
		sampled := make([]Point, 0, maxPoints)
		step := float64(len(pts)-1) / float64(maxPoints-1)
		for k := 0; k < maxPoints; k++ {
			sampled = append(sampled, pts[int(math.Round(float64(k)*step))])
		}
		pts = sampled
	}
	return pts
}

func (c *CDF) String() string {
	return fmt.Sprintf("CDF{n=%d median=%d mean=%.1f max=%d}", c.N(), c.Median(), c.Mean(), c.Max())
}
