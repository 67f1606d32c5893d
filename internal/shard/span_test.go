package shard

import (
	"testing"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/obs"
	"github.com/lix-go/lix/internal/trace"
)

// TestShardedSpanAttribution pins the span argument of Apply on the shard
// layer, for batches of puts, gets and deletes: the whole cross-shard
// batch lands in the shard stage, nil spans skip the timing, and results
// are identical either way.
func TestShardedSpanAttribution(t *testing.T) {
	s, err := New(nil, Config{Shards: 4}, testBuilders())
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Config{SampleRate: 1, Metrics: obs.NewMetrics("shard-span")})

	recs := make([]core.KV, 64)
	keys := make([]core.Key, 64)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i * 3), Value: core.Value(i)}
		keys[i] = core.Key(i * 3)
	}

	sp := tr.Start(len(recs))
	apply(s, putOps(recs), sp)
	if sp.Stage(core.StageShard) <= 0 {
		t.Errorf("insert shard stage = %v, want > 0", sp.Stage(core.StageShard))
	}
	if got := sp.Stage(core.StageWAL); got != 0 {
		t.Errorf("insert wal stage = %v, want 0 (no durable layer)", got)
	}
	tr.Finish(sp)

	sp = tr.Start(len(keys))
	vals, oks := apply(s, getOps(keys), sp)
	for i := range keys {
		if !oks[i] || vals[i] != core.Value(i) {
			t.Fatalf("lookup %d = (%d,%v)", i, vals[i], oks[i])
		}
	}
	if sp.Stage(core.StageShard) <= 0 {
		t.Errorf("lookup shard stage = %v, want > 0", sp.Stage(core.StageShard))
	}
	tr.Finish(sp)

	sp = tr.Start(len(keys))
	_, delOks := apply(s, delOps(keys), sp)
	for i, ok := range delOks {
		if !ok {
			t.Fatalf("delete %d missed", i)
		}
	}
	if sp.Stage(core.StageShard) <= 0 {
		t.Errorf("delete shard stage = %v, want > 0", sp.Stage(core.StageShard))
	}
	tr.Finish(sp)
	if s.Len() != 0 {
		t.Fatalf("Len after span deletes = %d, want 0", s.Len())
	}

	// Nil spans: plain passthrough on all three.
	apply(s, putOps(recs[:4]), nil)
	if vals, oks := apply(s, getOps(keys[:4]), nil); !oks[0] || vals[0] != 0 {
		t.Error("nil-span lookup broken")
	}
	if _, oks := apply(s, delOps(keys[:4]), nil); !oks[3] {
		t.Error("nil-span delete broken")
	}
}
