package lix_test

import (
	"fmt"

	lix "github.com/lix-go/lix"
)

// Build a static learned index over sorted records and look up a key.
func ExampleNewPGM() {
	recs := make([]lix.KV, 100000)
	for i := range recs {
		recs[i] = lix.KV{Key: lix.Key(i) * 17, Value: lix.Value(i)}
	}
	ix, err := lix.NewPGM(recs, 32)
	if err != nil {
		panic(err)
	}
	v, ok := ix.Get(17 * 41)
	fmt.Println(v, ok)
	// Output: 41 true
}

// An updatable learned index (ALEX) with in-place, model-predicted
// inserts.
func ExampleBuildMutable1D() {
	ix, err := lix.BuildMutable1D("alex")
	if err != nil {
		panic(err)
	}
	for i := 0; i < 1000; i++ {
		ix.Insert(lix.Key(i*3), lix.Value(i))
	}
	ix.Delete(3)
	_, ok := ix.Get(3)
	v, _ := ix.Get(6)
	fmt.Println(ok, v, ix.Len())
	// Output: false 2 999
}

// Range scans visit records in key order.
func ExampleIndex_range() {
	recs := []lix.KV{{Key: 1, Value: 10}, {Key: 5, Value: 50}, {Key: 9, Value: 90}, {Key: 12, Value: 120}}
	ix, _ := lix.NewRMI(recs, lix.RMIConfig{Stage2: 4})
	ix.Range(2, 10, func(k lix.Key, v lix.Value) bool {
		fmt.Println(k, v)
		return true
	})
	// Output:
	// 5 50
	// 9 90
}

// Index 2-D points with a space-filling-curve learned index (the ZM-index)
// and run a window query.
func ExampleBuildSpatial() {
	var pvs []lix.PV
	for i := 0; i < 100; i++ {
		pvs = append(pvs, lix.PV{Point: lix.Point{float64(i), float64(i % 10)}, Value: lix.Value(i)})
	}
	ix, err := lix.BuildSpatial("zm", pvs)
	if err != nil {
		panic(err)
	}
	rect, _ := lix.NewRect(lix.Point{10, 0}, lix.Point{12, 9})
	n, _ := ix.Search(rect, func(pv lix.PV) bool { return true })
	fmt.Println(n)
	// Output: 3
}

// Learned Bloom filters guarantee zero false negatives.
func ExampleTrainLearnedBF() {
	var keys, negs []lix.Key
	for i := 0; i < 2000; i++ {
		keys = append(keys, lix.Key(1000000+i)) // dense band
		negs = append(negs, lix.Key(i*7))       // outside the band
	}
	f, err := lix.TrainLearnedBF(keys, negs, uint64(10*len(keys)))
	if err != nil {
		panic(err)
	}
	fmt.Println(f.Contains(keys[123]))
	// Output: true
}

// Watch a learned index's correction cost and decide when to retrain.
func ExampleNewDriftEWMA() {
	det, err := lix.NewDriftEWMA(8 /* baseline cost */, 2.0, 0.05)
	if err != nil {
		panic(err)
	}
	fired := false
	for i := 0; i < 500 && !fired; i++ {
		cost := 8.0
		if i > 100 {
			cost = 40 // the data distribution shifted
		}
		fired = det.Observe(cost)
	}
	fmt.Println(fired)
	// Output: true
}
