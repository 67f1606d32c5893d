// Package dataset generates the synthetic workloads used throughout the lix
// benchmark suite. The generators stand in for the SOSD traces (books, fb,
// osm_cellids, wiki) and the spatial datasets (OSM points, Tiger) used by
// the surveyed learned-index papers: what matters for learned-index
// behaviour is the shape of the key CDF — smoothness, local density
// variance, skew, duplicates — and each generator below reproduces one such
// regime. All generators are deterministic given a seed.
package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/lix-go/lix/internal/core"
)

// Kind names a one-dimensional key distribution.
type Kind string

// The supported 1-D distributions.
const (
	// Uniform keys over the full uint64 range scaled down to 2^60: the
	// easiest case for learned indexes (near-linear CDF).
	Uniform Kind = "uniform"
	// Normal is a single Gaussian: smooth but curved CDF.
	Normal Kind = "normal"
	// Lognormal reproduces the heavy skew of the SOSD "books" trace.
	Lognormal Kind = "lognormal"
	// Clustered is a mixture of tight Gaussian clusters with empty gaps,
	// similar to osm_cellids: high local density variance.
	Clustered Kind = "clustered"
	// Sequential is an append-like pattern: mostly consecutive with
	// occasional jumps (timestamps, auto-increment ids).
	Sequential Kind = "sequential"
	// Adversarial interleaves near-duplicate bursts with exponential
	// jumps, the poisoning-style worst case for CDF models (paper §6.7).
	Adversarial Kind = "adversarial"
)

// Kinds lists all supported 1-D distributions.
func Kinds() []Kind {
	return []Kind{Uniform, Normal, Lognormal, Clustered, Sequential, Adversarial}
}

// Keys generates n sorted, distinct keys of the given distribution.
func Keys(kind Kind, n int, seed int64) ([]core.Key, error) {
	if n < 0 {
		return nil, fmt.Errorf("dataset: negative n %d", n)
	}
	r := rand.New(rand.NewSource(seed))
	keys := make([]core.Key, 0, n)
	switch kind {
	case Uniform:
		for len(keys) < n {
			keys = append(keys, core.Key(r.Uint64()>>4))
		}
	case Normal:
		const mean, sd = float64(1) * (1 << 60), float64(1) * (1 << 55)
		for len(keys) < n {
			v := mean + r.NormFloat64()*sd
			if v < 1 {
				continue
			}
			keys = append(keys, core.Key(v))
		}
	case Lognormal:
		for len(keys) < n {
			v := math.Exp(r.NormFloat64()*2 + 20)
			if v >= float64(math.MaxUint64)/2 {
				continue
			}
			keys = append(keys, core.Key(v))
		}
	case Clustered:
		nClusters := 1 + n/2048
		centers := make([]float64, nClusters)
		for i := range centers {
			centers[i] = r.Float64() * float64(uint64(1)<<60)
		}
		for len(keys) < n {
			c := centers[r.Intn(nClusters)]
			v := c + r.NormFloat64()*1e6
			if v < 1 {
				continue
			}
			keys = append(keys, core.Key(v))
		}
	case Sequential:
		cur := uint64(1) << 20
		for len(keys) < n {
			if r.Float64() < 0.001 {
				cur += uint64(r.Intn(1 << 30)) // rare large jump
			}
			cur += 1 + uint64(r.Intn(4))
			keys = append(keys, core.Key(cur))
		}
	case Adversarial:
		// Exponentially spaced anchors, each followed by a burst of keys
		// packed at minimal spacing: maximizes CDF curvature everywhere.
		cur := uint64(1) << 8
		for len(keys) < n {
			burst := 16 + r.Intn(64)
			for b := 0; b < burst && len(keys) < n; b++ {
				cur += 1
				keys = append(keys, core.Key(cur))
			}
			// Exponential gap, capped so cumulative keys stay far below
			// 2^53 at benchmark sizes (learned models take float64 inputs).
			gap := uint64(1) << (7 + uint(r.Intn(20)))
			cur += gap
		}
	default:
		return nil, fmt.Errorf("dataset: unknown kind %q", kind)
	}
	sortDedup(&keys)
	for len(keys) > n {
		keys = keys[:n]
	}
	return keys, nil
}

// sortDedup sorts keys and nudges duplicates up by one to make the set
// strictly increasing.
func sortDedup(keys *[]core.Key) {
	ks := *keys
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			ks[i] = ks[i-1] + 1
		}
	}
	*keys = ks
}

// KV pairs each key with a payload derived from it so tests can verify that
// lookups return the right record.
func KV(keys []core.Key) []core.KV {
	recs := make([]core.KV, len(keys))
	for i, k := range keys {
		recs[i] = core.KV{Key: k, Value: PayloadFor(k)}
	}
	return recs
}

// PayloadFor derives the test payload for key k.
func PayloadFor(k core.Key) core.Value { return core.Value(k*2654435761 + 1) }

// Floats converts keys to float64 model inputs.
func Floats(keys []core.Key) []float64 {
	xs := make([]float64, len(keys))
	for i, k := range keys {
		xs[i] = float64(k)
	}
	return xs
}

// ---------------------------------------------------------------------------
// Query workloads
// ---------------------------------------------------------------------------

// LookupMix generates nq lookup keys: a hitFrac fraction samples existing
// keys uniformly, the rest are fresh keys drawn between existing ones
// (misses). Deterministic given seed.
func LookupMix(keys []core.Key, nq int, hitFrac float64, seed int64) []core.Key {
	r := rand.New(rand.NewSource(seed))
	out := make([]core.Key, nq)
	n := len(keys)
	for i := range out {
		if n > 0 && r.Float64() < hitFrac {
			out[i] = keys[r.Intn(n)]
		} else if n > 1 {
			j := r.Intn(n - 1)
			lo, hi := keys[j], keys[j+1]
			if hi > lo+1 {
				out[i] = lo + 1 + core.Key(r.Int63n(int64(hi-lo-1)%math.MaxInt64))
			} else {
				out[i] = lo
			}
		} else {
			out[i] = core.Key(r.Uint64())
		}
	}
	return out
}

// ShardRuns splits keys (sorted) into parts equal partitions, as a sharded
// index's shards, and returns each partition's preload, every other key,
// and 1<<16 ops on the partition: gets of preloaded keys, or with mixed a
// 50/40/10 get/put/delete mix over all of its keys, the absent ones too.
// Deterministic given seed.
func ShardRuns(keys []core.Key, parts int, mixed bool, seed int64) (preload [][]core.KV, ops [][]core.Op) {
	r := rand.New(rand.NewSource(seed))
	per := len(keys) / parts
	preload, ops = make([][]core.KV, parts), make([][]core.Op, parts)
	for t := range ops {
		part := keys[t*per : (t+1)*per]
		for i := 0; i < len(part); i += 2 {
			preload[t] = append(preload[t], core.KV{Key: part[i], Value: PayloadFor(part[i])})
		}
		ops[t] = make([]core.Op, 1<<16)
		for i := range ops[t] {
			k := part[r.Intn(per)]
			switch p := r.Intn(10); {
			case !mixed:
				ops[t][i] = core.Op{Kind: core.OpGet, Key: part[r.Intn(per/2)*2]}
			case p < 5:
				ops[t][i] = core.Op{Kind: core.OpGet, Key: k}
			case p < 9:
				ops[t][i] = core.Op{Kind: core.OpPut, Key: k, Val: core.Value(i)}
			default:
				ops[t][i] = core.Op{Kind: core.OpDel, Key: k}
			}
		}
	}
	return preload, ops
}

// ZipfKeys generates nq lookup keys sampled from the existing key set with
// Zipfian popularity (s=1.2), modelling a skewed read workload.
func ZipfKeys(keys []core.Key, nq int, seed int64) []core.Key {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, 1.2, 1, uint64(len(keys)-1))
	out := make([]core.Key, nq)
	for i := range out {
		out[i] = keys[z.Uint64()]
	}
	return out
}

// RangeQuery is a 1-D range [Lo, Hi].
type RangeQuery struct {
	Lo, Hi core.Key
}

// Ranges generates nq range queries whose expected selectivity is sel
// (fraction of n records), anchored at random existing keys.
func Ranges(keys []core.Key, nq int, sel float64, seed int64) []RangeQuery {
	r := rand.New(rand.NewSource(seed))
	n := len(keys)
	span := int(sel * float64(n))
	if span < 1 {
		span = 1
	}
	out := make([]RangeQuery, nq)
	for i := range out {
		j := r.Intn(n)
		k := j + span
		if k >= n {
			k = n - 1
		}
		out[i] = RangeQuery{Lo: keys[j], Hi: keys[k]}
	}
	return out
}

// ---------------------------------------------------------------------------
// Spatial datasets
// ---------------------------------------------------------------------------

// SpatialKind names a point distribution over the unit hypercube scaled to
// [0, Extent)^d.
type SpatialKind string

// The supported spatial distributions.
const (
	// SUniform scatters points uniformly: the R-tree-friendly case.
	SUniform SpatialKind = "s-uniform"
	// SOSMLike is a mixture of dense Gaussian "cities" over a sparse
	// background, reproducing OpenStreetMap-style skew.
	SOSMLike SpatialKind = "s-osm"
	// SSkewed concentrates mass near the origin with power-law tails per
	// dimension: strong inter-dimension correlation.
	SSkewed SpatialKind = "s-skewed"
	// SDiagonal places points near the main diagonal: maximal correlation,
	// the motivating case for Flood/Tsunami-style layouts.
	SDiagonal SpatialKind = "s-diagonal"
)

// SpatialKinds lists all supported spatial distributions.
func SpatialKinds() []SpatialKind {
	return []SpatialKind{SUniform, SOSMLike, SSkewed, SDiagonal}
}

// Extent is the coordinate range of generated spatial data: [0, Extent) in
// every dimension.
const Extent = 1 << 20

// Points generates n points of dim dimensions with the given distribution.
func Points(kind SpatialKind, n, dim int, seed int64) ([]core.Point, error) {
	if n < 0 || dim < 1 {
		return nil, fmt.Errorf("dataset: bad shape n=%d dim=%d", n, dim)
	}
	r := rand.New(rand.NewSource(seed))
	pts := make([]core.Point, n)
	switch kind {
	case SUniform:
		for i := range pts {
			p := make(core.Point, dim)
			for d := range p {
				p[d] = r.Float64() * Extent
			}
			pts[i] = p
		}
	case SOSMLike:
		nCities := 1 + n/4096
		centers := make([]core.Point, nCities)
		radii := make([]float64, nCities)
		for i := range centers {
			c := make(core.Point, dim)
			for d := range c {
				c[d] = r.Float64() * Extent
			}
			centers[i] = c
			radii[i] = Extent * (0.002 + 0.01*r.Float64())
		}
		for i := range pts {
			p := make(core.Point, dim)
			if r.Float64() < 0.85 { // city point
				c := r.Intn(nCities)
				for d := range p {
					p[d] = clampf(centers[c][d]+r.NormFloat64()*radii[c], 0, Extent-1)
				}
			} else { // rural background
				for d := range p {
					p[d] = r.Float64() * Extent
				}
			}
			pts[i] = p
		}
	case SSkewed:
		for i := range pts {
			p := make(core.Point, dim)
			for d := range p {
				u := r.Float64()
				p[d] = u * u * u * Extent
			}
			pts[i] = p
		}
	case SDiagonal:
		for i := range pts {
			p := make(core.Point, dim)
			base := r.Float64() * Extent
			for d := range p {
				p[d] = clampf(base+r.NormFloat64()*Extent*0.01, 0, Extent-1)
			}
			pts[i] = p
		}
	default:
		return nil, fmt.Errorf("dataset: unknown spatial kind %q", kind)
	}
	return pts, nil
}

func clampf(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// PV pairs points with payloads derived from their index.
func PV(pts []core.Point) []core.PV {
	out := make([]core.PV, len(pts))
	for i, p := range pts {
		out[i] = core.PV{Point: p, Value: core.Value(i)}
	}
	return out
}

// RectQueries generates nq axis-aligned query rectangles whose side length
// is a sel^(1/dim) fraction of the extent (so a uniform dataset yields
// roughly sel selectivity), centered at data points to follow the data
// distribution, as in the Flood evaluation.
func RectQueries(pts []core.Point, nq int, sel float64, seed int64) []core.Rect {
	if len(pts) == 0 || nq <= 0 {
		return nil
	}
	dim := len(pts[0])
	r := rand.New(rand.NewSource(seed))
	side := math.Pow(sel, 1/float64(dim)) * Extent
	out := make([]core.Rect, nq)
	for i := range out {
		c := pts[r.Intn(len(pts))]
		min := make(core.Point, dim)
		max := make(core.Point, dim)
		for d := 0; d < dim; d++ {
			min[d] = clampf(c[d]-side/2, 0, Extent)
			max[d] = clampf(c[d]+side/2, 0, Extent)
		}
		out[i] = core.Rect{Min: min, Max: max}
	}
	return out
}

// KNNQueries generates nq query points following the data distribution
// (sampled data points perturbed slightly).
func KNNQueries(pts []core.Point, nq int, seed int64) []core.Point {
	if len(pts) == 0 || nq <= 0 {
		return nil
	}
	dim := len(pts[0])
	r := rand.New(rand.NewSource(seed))
	out := make([]core.Point, nq)
	for i := range out {
		c := pts[r.Intn(len(pts))]
		q := make(core.Point, dim)
		for d := range q {
			q[d] = clampf(c[d]+r.NormFloat64()*Extent*0.001, 0, Extent-1)
		}
		out[i] = q
	}
	return out
}
