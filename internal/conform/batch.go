package conform

import (
	"fmt"
	"reflect"

	"github.com/lix-go/lix/internal/core"
)

// altSpan hands one goroutine's batches a live span on every second
// call, the way a sampling tracer would.
type altSpan struct {
	live  core.Span
	calls int
}

func (a *altSpan) next(ops int) *core.Span {
	if a.calls++; a.calls%2 == 0 {
		a.live.Reset(ops)
		return &a.live
	}
	return nil
}

// CheckBatchEquivalence replays w against a fresh instance of f, driving
// maximal same-kind runs of operations through the batched dispatch
// helpers (core.LookupBatch / InsertBatch / DeleteBatch, capped at
// batchSize records per batch) while the sorted-slice oracle replays the
// same operations strictly sequentially. Any state or result divergence
// is an error: batching must be semantically invisible. Range operations
// go through core.CollectRange, which pins the RangeSearcher capability
// to the sequential scan. The duplicate-key contract inside one batch is
// sequential-loop semantics — later-wins for inserts, first-wins for
// delete liveness — which TestBatchLaterWinsPin asserts explicitly.
//
// The replay is shaped like a serving loop: one set of caller-owned
// buffers is reused for every batch (result buffers are poisoned before
// each call, so an entry a layer fails to write shows up as a wrong
// answer), and every second call carries a live span. Spans must be
// semantically invisible too: mutations alternate span-on and span-off
// against the same oracle, and every lookup batch is answered both ways
// and the two answers compared.
func CheckBatchEquivalence(f Factory, w Workload1D, batchSize int) error {
	if batchSize <= 0 {
		batchSize = 64
	}
	ix, err := f.Build1D(w.Init)
	if err != nil {
		return fmt.Errorf("%s/%s: build failed: %v", f.Name, w.Name, err)
	}
	defer closeIndex(ix)
	o := newOracle1D(w.Init)
	var mix MutableIndex
	if f.Caps.Mutable {
		m, ok := ix.(MutableIndex)
		if !ok {
			return fmt.Errorf("%s: factory declares Mutable but index lacks Insert/Delete", f.Name)
		}
		mix = m
	}

	fail := func(i int, format string, args ...any) error {
		return fmt.Errorf("%s/%s: op[%d]: %s", f.Name, w.Name, i, fmt.Sprintf(format, args...))
	}

	var (
		keys  []core.Key
		recs  []core.KV
		vals  []core.Value
		oks   []bool
		vals2 []core.Value
		oks2  []bool
		want  []bool
		sp    altSpan
	)
	// poisoned returns vals and oks resized to n and filled with answers
	// no key in a workload has.
	poisoned := func(vals []core.Value, oks []bool, n int) ([]core.Value, []bool) {
		vals, oks = append(vals[:0], make([]core.Value, n)...), append(oks[:0], make([]bool, n)...)
		for i := range oks {
			vals[i], oks[i] = ^core.Value(0), true
		}
		return vals, oks
	}

	ops := w.Ops
	for i := 0; i < len(ops); {
		kind := ops[i].Kind
		// A maximal run of same-kind ops, capped at batchSize.
		j := i + 1
		for j < len(ops) && ops[j].Kind == kind && j-i < batchSize {
			j++
		}
		run := ops[i:j]
		switch kind {
		case OpInsert:
			recs = recs[:0]
			for _, op := range run {
				recs = append(recs, core.KV{Key: op.Key, Value: op.Val})
				o.Insert(op.Key, op.Val)
			}
			if err := core.InsertBatch(mix, recs, sp.next(len(recs))); err != nil {
				return fail(i, "InsertBatch(%d recs): %v", len(recs), err)
			}
		case OpDelete:
			keys, want = keys[:0], want[:0]
			for _, op := range run {
				keys = append(keys, op.Key)
				want = append(want, o.Delete(op.Key))
			}
			vals, oks = poisoned(vals, oks, len(keys))
			if err := core.DeleteBatch(mix, keys, oks, sp.next(len(keys))); err != nil {
				return fail(i, "DeleteBatch(%d keys): %v", len(keys), err)
			}
			if !reflect.DeepEqual(oks, want) {
				return fail(i, "DeleteBatch(%d keys) = %v, oracle %v", len(keys), oks, want)
			}
		case OpGet:
			keys = keys[:0]
			for _, op := range run {
				keys = append(keys, op.Key)
			}
			vals, oks = poisoned(vals, oks, len(keys))
			vals2, oks2 = poisoned(vals2, oks2, len(keys))
			core.LookupBatch(ix, keys, vals, oks, nil)
			sp.live.Reset(len(keys))
			core.LookupBatch(ix, keys, vals2, oks2, &sp.live)
			for n, k := range keys {
				wv, wok := o.Get(k)
				if oks[n] != wok || (wok && vals[n] != wv) {
					return fail(i+n, "LookupBatch key %d = (%d, %v), oracle (%d, %v)",
						k, vals[n], oks[n], wv, wok)
				}
				if oks2[n] != wok || (wok && vals2[n] != wv) {
					return fail(i+n, "LookupBatch key %d with a span = (%d, %v), without (%d, %v)",
						k, vals2[n], oks2[n], vals[n], oks[n])
				}
			}
		case OpRange:
			// Ranges are checked one per op (there is no multi-interval
			// batch surface), exercising the RangeSearcher capability.
			for n, op := range run {
				got := core.CollectRange(ix, op.Key, op.Hi)
				want := []core.KV{}
				o.Range(op.Key, op.Hi, func(k core.Key, v core.Value) bool {
					want = append(want, core.KV{Key: k, Value: v})
					return true
				})
				if !reflect.DeepEqual(got, want) {
					return fail(i+n, "CollectRange(%d, %d) returned %d records, oracle %d",
						op.Key, op.Hi, len(got), len(want))
				}
			}
		case OpLen:
			if got, want := ix.Len(), o.Len(); got != want {
				return fail(i, "Len() = %d, oracle %d", got, want)
			}
		}
		i = j
	}

	// Final state sweep: the whole key space, then cardinality.
	got := core.CollectRange(ix, 0, ^core.Key(0))
	if !reflect.DeepEqual(got, append([]core.KV{}, o.recs...)) {
		return fmt.Errorf("%s/%s: final sweep diverged: %d records vs oracle %d",
			f.Name, w.Name, len(got), o.Len())
	}
	if ix.Len() != o.Len() {
		return fmt.Errorf("%s/%s: final Len() = %d, oracle %d", f.Name, w.Name, ix.Len(), o.Len())
	}
	if err := CheckInvariants(ix); err != nil {
		return fmt.Errorf("%s/%s: invariants after batched replay: %v", f.Name, w.Name, err)
	}
	return nil
}
