package lix

import (
	"github.com/lix-go/lix/internal/bloom"
	"github.com/lix-go/lix/internal/lbf"
)

// MembershipFilter is a no-false-negative approximate membership
// structure: Contains never returns false for an added/trained key.
type MembershipFilter interface {
	// Contains reports whether k may be in the set.
	Contains(k Key) bool
}

// Filter re-exports for direct access to diagnostics.
type (
	// BloomFilter is the standard Bloom filter baseline.
	BloomFilter = bloom.Filter
	// LearnedBloomFilter is the classifier+backup learned Bloom filter.
	LearnedBloomFilter = lbf.Filter
	// SandwichedBloomFilter adds an initial filter before the classifier.
	SandwichedBloomFilter = lbf.Sandwich
	// PartitionedBloomFilter uses per-score-region backup filters.
	PartitionedBloomFilter = lbf.Partitioned
)

// NewBloomFilterBits returns a standard Bloom filter with a fixed bit
// budget.
func NewBloomFilterBits(bits uint64, n int) *BloomFilter { return bloom.NewBits(bits, n) }

// TrainLearnedBF trains a learned Bloom filter over keys with negative
// samples negs and a total space budget in bits.
func TrainLearnedBF(keys, negs []Key, totalBits uint64) (*LearnedBloomFilter, error) {
	return lbf.Train(keys, negs, totalBits, 0)
}

// TrainSandwichedBF trains a sandwiched learned Bloom filter.
func TrainSandwichedBF(keys, negs []Key, totalBits uint64) (*SandwichedBloomFilter, error) {
	return lbf.TrainSandwich(keys, negs, totalBits, 0)
}

// TrainPartitionedBF trains a partitioned learned Bloom filter with the
// given number of score regions (0 selects the default).
func TrainPartitionedBF(keys, negs []Key, totalBits uint64, regions int) (*PartitionedBloomFilter, error) {
	return lbf.TrainPartitioned(keys, negs, totalBits, regions)
}

// MeasureFPR returns the observed false-positive rate of f over probes
// that contain no true members.
func MeasureFPR(f MembershipFilter, probes []Key) float64 {
	return lbf.MeasureFPR(f, probes)
}
