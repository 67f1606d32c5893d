package conform

import (
	"fmt"
	"reflect"

	lix "github.com/lix-go/lix"
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
// maximal same-kind runs of gets, inserts and deletes (capped at batchSize
// ops per batch) through core.Apply — a run of writes then through
// core.Commit, as an acknowledged write would — while the sorted-slice
// oracle replays the same operations strictly sequentially. Any state or
// result divergence is an error: batching must be semantically invisible.
// A static index has no batch surface, and its gets are answered one by
// one. Range operations go through core.CollectRange, which pins the
// RangeSearcher capability to the sequential scan. The duplicate-key
// contract inside one batch is sequential-loop semantics — later-wins for
// inserts, first-wins for delete liveness — which TestBatchLaterWinsPin
// asserts explicitly.
//
// The replay is shaped like a serving loop: one set of caller-owned
// buffers is reused for every batch (result buffers are poisoned before
// each call, so an entry a layer fails to write shows up as a wrong
// answer), and every second call carries a live span. Spans must be
// semantically invisible too: mutations alternate span-on and span-off
// against the same oracle, and every batch of gets is answered both ways
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
		batch []core.Op
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
	// apply does batch into vals and oks, and commits what it wrote.
	apply := func(vals []core.Value, oks []bool, sp *core.Span) error {
		if mix == nil {
			for n, op := range batch {
				vals[n], oks[n] = ix.Get(op.Key)
			}
			return nil
		}
		if err := core.Apply(mix, batch, vals, oks, sp); err != nil {
			return err
		}
		return core.Commit(mix, sp)
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
		batch, want = batch[:0], want[:0]
		switch kind {
		case OpInsert:
			for _, op := range run {
				batch = append(batch, core.Op{Kind: core.OpPut, Key: op.Key, Val: op.Val})
				o.Insert(op.Key, op.Val)
			}
			vals, oks = poisoned(vals, oks, len(batch))
			if err := apply(vals, oks, sp.next(len(batch))); err != nil {
				return fail(i, "Apply(%d puts): %v", len(batch), err)
			}
		case OpDelete:
			for _, op := range run {
				batch = append(batch, core.Op{Kind: core.OpDel, Key: op.Key})
				want = append(want, o.Delete(op.Key))
			}
			vals, oks = poisoned(vals, oks, len(batch))
			if err := apply(vals, oks, sp.next(len(batch))); err != nil {
				return fail(i, "Apply(%d deletes): %v", len(batch), err)
			}
			if !reflect.DeepEqual(oks, want) {
				return fail(i, "Apply(%d deletes) = %v, oracle %v", len(batch), oks, want)
			}
		case OpGet:
			for _, op := range run {
				batch = append(batch, core.Op{Kind: core.OpGet, Key: op.Key})
			}
			vals, oks = poisoned(vals, oks, len(batch))
			vals2, oks2 = poisoned(vals2, oks2, len(batch))
			if err := apply(vals, oks, nil); err != nil {
				return fail(i, "Apply(%d gets): %v", len(batch), err)
			}
			sp.live.Reset(len(batch))
			if err := apply(vals2, oks2, &sp.live); err != nil {
				return fail(i, "Apply(%d gets) with a span: %v", len(batch), err)
			}
			for n, op := range batch {
				wv, wok := o.Get(op.Key)
				if oks[n] != wok || (wok && vals[n] != wv) {
					return fail(i+n, "batch get %d = (%d, %v), oracle (%d, %v)",
						op.Key, vals[n], oks[n], wv, wok)
				}
				if oks2[n] != wok || (wok && vals2[n] != wv) {
					return fail(i+n, "batch get %d with a span = (%d, %v), without (%d, %v)",
						op.Key, vals2[n], oks2[n], vals[n], oks[n])
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
	if err := lix.CheckInvariants(ix); err != nil {
		return fmt.Errorf("%s/%s: invariants after batched replay: %v", f.Name, w.Name, err)
	}
	return nil
}
