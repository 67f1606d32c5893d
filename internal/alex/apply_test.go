package alex

import (
	"math/rand"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// TestApplyMatchesPointOps drives two indexes through the same random
// batches, one through Apply and one op by op: every answer, the contents
// and the invariants must agree. Most puts are new keys packed into a
// narrow range, so the nodes there expand and then split while chunks are
// in flight; the gets and deletes fall on the same range.
func TestApplyMatchesPointOps(t *testing.T) {
	var init []core.KV
	for k := 0; k < 4000; k++ {
		init = append(init, core.KV{Key: core.Key(k) << 20, Value: core.Value(k)})
	}
	batched, _ := Bulk(init)
	point, _ := Bulk(init)
	rng := rand.New(rand.NewSource(9))
	for b := 0; b < 500; b++ {
		ops := make([]core.Op, 1+rng.Intn(160))
		for i := range ops {
			k := core.Key(1000+rng.Intn(500))<<20 | core.Key(rng.Intn(64))
			switch p := rng.Intn(10); {
			case p < 3:
				ops[i] = core.Op{Kind: core.OpGet, Key: k}
			case p < 8:
				ops[i] = core.Op{Kind: core.OpPut, Key: k, Val: core.Value(b<<16 | i)}
			default:
				ops[i] = core.Op{Kind: core.OpDel, Key: k}
			}
		}
		vals, oks := make([]core.Value, len(ops)), make([]bool, len(ops))
		batched.Apply(ops, vals, oks, nil)
		for i, op := range ops {
			switch op.Kind {
			case core.OpGet:
				if v, ok := point.Get(op.Key); v != vals[i] || ok != oks[i] {
					t.Fatalf("batch %d op %d: get %d = (%d, %v), point (%d, %v)", b, i, op.Key, vals[i], oks[i], v, ok)
				}
			case core.OpPut:
				point.Insert(op.Key, op.Val)
			case core.OpDel:
				if ok := point.Delete(op.Key); ok != oks[i] {
					t.Fatalf("batch %d op %d: del %d = %v, point %v", b, i, op.Key, oks[i], ok)
				}
			}
		}
		if batched.Len() != point.Len() {
			t.Fatalf("batch %d: Len %d, point %d", b, batched.Len(), point.Len())
		}
		if b%25 == 0 {
			if err := batched.CheckInvariants(); err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
		}
	}
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if batched.Expands == 0 || batched.Splits == 0 {
		t.Fatalf("%d expands and %d splits: the batches never restructured a node", batched.Expands, batched.Splits)
	}
	var got, want []core.KV
	batched.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool { got = append(got, core.KV{Key: k, Value: v}); return true })
	point.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool { want = append(want, core.KV{Key: k, Value: v}); return true })
	if len(got) != len(want) {
		t.Fatalf("%d records, point %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %v, point %v", i, got[i], want[i])
		}
	}
}
