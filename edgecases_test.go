package lix_test

import (
	"math/rand"
	"testing"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/pgm"
)

// hostile key patterns that have historically broken learned indexes:
// float64-colliding keys, extreme magnitudes, constant runs, and single
// outliers that wreck global models.
//
// The registry-driven conformance suite (internal/conform) applies these
// same shapes — plus differential op streams against a trivially-correct
// oracle — to every registered index; see internal/conform/corpus.go. The
// ad-hoc hostile-pattern and cross-index differential tests that used to
// live here were subsumed by it. Only the checks with no conform
// counterpart remain in this file.
func hostilePatterns() map[string][]lix.Key {
	out := map[string][]lix.Key{}

	// Keys above 2^53 spaced by 1: collide at float64 resolution.
	var floatCollide []lix.Key
	base := lix.Key(1) << 60
	for i := 0; i < 3000; i++ {
		floatCollide = append(floatCollide, base+lix.Key(i))
	}
	out["float-collide"] = floatCollide

	// Tiny then huge: one outlier dominates any linear fit.
	var outlier []lix.Key
	for i := 0; i < 3000; i++ {
		outlier = append(outlier, lix.Key(i))
	}
	outlier = append(outlier, lix.Key(1)<<62)
	out["outlier"] = outlier

	// Two dense clusters at opposite ends of the key space.
	var bimodal []lix.Key
	for i := 0; i < 1500; i++ {
		bimodal = append(bimodal, lix.Key(i)*3)
	}
	for i := 0; i < 1500; i++ {
		bimodal = append(bimodal, lix.Key(1)<<61+lix.Key(i)*3)
	}
	out["bimodal"] = bimodal

	// Exponentially growing gaps.
	var exponential []lix.Key
	k := lix.Key(1)
	for i := 0; i < 60; i++ {
		exponential = append(exponential, k)
		k *= 2
	}
	out["exponential"] = exponential

	// Min and max boundary keys present.
	out["boundaries"] = []lix.Key{0, 1, 2, ^lix.Key(0) - 2, ^lix.Key(0) - 1, ^lix.Key(0)}

	return out
}

// TestUnsortedRejected verifies every validating builder rejects unsorted
// input instead of silently building a broken index.
func TestUnsortedRejected(t *testing.T) {
	bad := []lix.KV{{Key: 5}, {Key: 3}, {Key: 9}}
	for _, kind := range lix.Static1DKinds() {
		if kind == "binary" {
			continue // documented: the plain array trusts its input
		}
		if _, err := lix.Build1D(kind, bad); err == nil {
			t.Fatalf("%s accepted unsorted input", kind)
		}
	}
}

// TestLowerBoundersAgree checks the three indexes that expose LowerBound
// directly against core.LowerBound on adversarial probes.
func TestLowerBoundersAgree(t *testing.T) {
	keys := hostilePatterns()["bimodal"]
	recs := make([]lix.KV, len(keys))
	rawKeys := make([]core.Key, len(keys))
	for i, k := range keys {
		recs[i] = lix.KV{Key: k, Value: lix.Value(i)}
		rawKeys[i] = k
	}
	pg, err := lix.NewPGM(recs, 16)
	if err != nil {
		t.Fatal(err)
	}
	pgc := pg.(*pgm.Index)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		probe := core.Key(r.Uint64())
		if got, want := pgc.LowerBound(probe), core.LowerBound(rawKeys, probe); got != want {
			t.Fatalf("PGM LowerBound(%d) = %d, want %d", probe, got, want)
		}
	}
}
