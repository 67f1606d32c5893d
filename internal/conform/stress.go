package conform

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// This file is the concurrent differential stress tier. CheckConcurrent
// (concurrency.go) proves per-read linearizability-lite bounds for one
// upsert-only schedule; CheckStress generates randomized concurrent
// histories of Insert/Delete (plus batched variants), runs them against
// the index under concurrent readers, and then compares the quiesced final
// state against a sequential oracle replay. Writers own disjoint key sets,
// so every concurrent interleaving must quiesce to the same final state —
// any divergence is a real atomicity or lost-update bug. Failing histories
// are greedily shrunk (re-running each candidate a few times, since
// concurrent failures are probabilistic) before being reported.

// StressConfig sizes a CheckStress run.
type StressConfig struct {
	Writers       int   // concurrent writer goroutines (disjoint key sets)
	Readers       int   // concurrent point/batch readers
	RangeReaders  int   // concurrent range scanners
	KeysPerWriter int   // keys owned by each writer
	OpsPerWriter  int   // mutation ops generated per writer
	Batch         bool  // also drive runs of inserts and reads through core.Apply
	Seed          int64 // history generation seed
	ShrinkRetries int   // reruns per shrink candidate (failures are probabilistic)
	ShrinkBudget  int   // max candidate evaluations during shrinking
}

// DefaultStressConfig returns a configuration sized so a -race run
// finishes in a few seconds while still forcing delta merges and splits
// in the structures under test.
func DefaultStressConfig() StressConfig {
	return StressConfig{
		Writers:       4,
		Readers:       3,
		RangeReaders:  2,
		KeysPerWriter: 128,
		OpsPerWriter:  400,
		Batch:         true,
		Seed:          1,
		ShrinkRetries: 3,
		ShrinkBudget:  80,
	}
}

// stressHistory is one generated concurrent history: the records the
// index is built over plus each writer's private mutation sequence.
type stressHistory struct {
	init    []core.KV
	writers [][]Op // OpInsert/OpDelete only; writer w touches only its own keys
}

func (h stressHistory) ops() int {
	n := 0
	for _, w := range h.writers {
		n += len(w)
	}
	return n
}

// Key/value scheme shared with CheckConcurrent: keys are scattered but
// monotone in their global index, values encode (index, seq) so a read can
// prove which key a value was written to.
func stressKey(idx int) core.Key            { return core.Key(idx+1) * 7919 }
func stressEnc(idx, seq int) core.Value     { return core.Value(idx)<<32 | core.Value(seq) }
func stressDec(v core.Value) (idx, seq int) { return int(v >> 32), int(v & 0xffffffff) }

// genStressHistory builds a deterministic history: half the keys are
// preloaded through the builder, then each writer gets a randomized
// Insert/Delete sequence over its own keys with values carrying their
// generation order.
func genStressHistory(cfg StressConfig) stressHistory {
	r := rand.New(rand.NewSource(cfg.Seed))
	total := cfg.Writers * cfg.KeysPerWriter
	var init []core.KV
	for idx := 0; idx < total; idx += 2 {
		init = append(init, core.KV{Key: stressKey(idx), Value: stressEnc(idx, 0)})
	}
	writers := make([][]Op, cfg.Writers)
	for w := range writers {
		base := w * cfg.KeysPerWriter
		ops := make([]Op, 0, cfg.OpsPerWriter)
		for seq := 1; len(ops) < cfg.OpsPerWriter; seq++ {
			idx := base + r.Intn(cfg.KeysPerWriter)
			if r.Intn(10) < 7 {
				ops = append(ops, Op{Kind: OpInsert, Key: stressKey(idx), Val: stressEnc(idx, seq)})
			} else {
				ops = append(ops, Op{Kind: OpDelete, Key: stressKey(idx)})
			}
		}
		writers[w] = ops
	}
	return stressHistory{init: init, writers: writers}
}

// stressOracle replays the history sequentially. Writers own disjoint
// keys, so any concurrent interleaving must quiesce to this state.
func stressOracle(h stressHistory) map[core.Key]core.Value {
	m := make(map[core.Key]core.Value, len(h.init))
	for _, r := range h.init {
		m[r.Key] = r.Value
	}
	for _, ops := range h.writers {
		for _, op := range ops {
			switch op.Kind {
			case OpInsert:
				m[op.Key] = op.Val
			case OpDelete:
				delete(m, op.Key)
			}
		}
	}
	return m
}

// runStress executes one concurrent run of h and verifies the quiesced
// final state differentially. seed varies reader scheduling between
// retries of the same history.
func runStress(build func(init []core.KV) (MutableIndex, error), h stressHistory, cfg StressConfig, seed int64) error {
	ix, err := build(h.init)
	if err != nil {
		return fmt.Errorf("conform: stress build failed: %v", err)
	}
	defer closeIndex(ix)
	total := cfg.Writers * cfg.KeysPerWriter

	var mu sync.Mutex
	var firstErr error
	var done atomic.Bool
	var writersLeft atomic.Int64
	fail := func(format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
		done.Store(true)
	}

	var wg sync.WaitGroup
	writersLeft.Store(int64(len(h.writers)))
	for w, ops := range h.writers {
		wg.Add(1)
		go func(w int, ops []Op) {
			defer wg.Done()
			defer func() {
				if writersLeft.Add(-1) == 0 {
					done.Store(true)
				}
			}()
			// Writers run to completion even after a reader failed so the
			// quiesced state stays the oracle state. Like a serving
			// connection, each goroutine reuses one set of buffers and
			// carries its own span on every second batch.
			var (
				batch []core.Op
				vals  = make([]core.Value, 16)
				oks   = make([]bool, 16)
				sp    altSpan
			)
			for i := 0; i < len(ops); {
				// Group a run of consecutive inserts (when the run length
				// exceeds 1) into one batch of puts through the index's
				// capability or the loop fallback, and commit it, to drive
				// the batched write path under contention.
				if cfg.Batch && ops[i].Kind == OpInsert {
					j := i
					for j < len(ops) && ops[j].Kind == OpInsert && j-i < 16 {
						j++
					}
					if j-i > 1 {
						batch = batch[:0]
						for _, op := range ops[i:j] {
							batch = append(batch, core.Op{Kind: core.OpPut, Key: op.Key, Val: op.Val})
						}
						s := sp.next(len(batch))
						err := core.Apply(ix, batch, vals[:len(batch)], oks[:len(batch)], s)
						if err == nil {
							err = core.Commit(ix, s)
						}
						if err != nil {
							fail("conform: stress Apply(%d puts): %v", len(batch), err)
						}
						i = j
						continue
					}
				}
				switch ops[i].Kind {
				case OpInsert:
					ix.Insert(ops[i].Key, ops[i].Val)
				case OpDelete:
					ix.Delete(ops[i].Key)
				}
				i++
			}
		}(w, ops)
	}

	checkVal := func(op string, k core.Key, v core.Value) bool {
		idx, seq := stressDec(v)
		if stressKey(idx) != k {
			fail("conform: stress %s(%d) observed a value written to key %d", op, k, stressKey(idx))
			return false
		}
		if seq < 0 || seq > cfg.OpsPerWriter {
			fail("conform: stress %s(%d) observed out-of-range seq %d", op, k, seq)
			return false
		}
		return true
	}

	for rd := 0; rd < cfg.Readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 100 + int64(rd)))
			var (
				batch = make([]core.Op, 32)
				vals  = make([]core.Value, 32)
				oks   = make([]bool, 32)
				sp    altSpan
			)
			for !done.Load() {
				if cfg.Batch && r.Intn(4) == 0 {
					n := 1 + r.Intn(32)
					batch, vals, oks := batch[:n], vals[:n], oks[:n]
					for i := range batch {
						batch[i] = core.Op{Kind: core.OpGet, Key: stressKey(r.Intn(total))}
					}
					if err := core.Apply(ix, batch, vals, oks, sp.next(n)); err != nil {
						fail("conform: stress Apply(%d gets): %v", n, err)
						return
					}
					for i, op := range batch {
						if oks[i] && !checkVal("batch get", op.Key, vals[i]) {
							return
						}
					}
					continue
				}
				k := stressKey(r.Intn(total))
				if v, ok := ix.Get(k); ok && !checkVal("Get", k, v) {
					return
				}
			}
		}(rd)
	}

	for rr := 0; rr < cfg.RangeReaders; rr++ {
		wg.Add(1)
		go func(rr int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed + 200 + int64(rr)))
			for !done.Load() {
				loIdx := r.Intn(total)
				hiIdx := loIdx + 1 + r.Intn(96)
				if hiIdx >= total {
					hiIdx = total - 1
				}
				prev, seen := core.Key(0), false
				bad := ""
				ix.Range(stressKey(loIdx), stressKey(hiIdx), func(k core.Key, v core.Value) bool {
					if seen && k <= prev {
						bad = fmt.Sprintf("conform: stress Range keys not ascending: %d after %d", k, prev)
						return false
					}
					seen, prev = true, k
					idx, seq := stressDec(v)
					if stressKey(idx) != k || seq < 0 || seq > cfg.OpsPerWriter {
						bad = fmt.Sprintf("conform: stress Range saw key %d with foreign value (idx %d, seq %d)", k, idx, seq)
						return false
					}
					return true
				})
				if bad != "" {
					fail("%s", bad)
					return
				}
			}
		}(rr)
	}

	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Quiesced differential comparison against the sequential oracle.
	want := stressOracle(h)
	if got := ix.Len(); got != len(want) {
		return fmt.Errorf("conform: stress quiesced Len() = %d, oracle %d", got, len(want))
	}
	for idx := 0; idx < total; idx++ {
		k := stressKey(idx)
		gv, gok := ix.Get(k)
		wv, wok := want[k]
		if gok != wok || (gok && gv != wv) {
			return fmt.Errorf("conform: stress quiesced Get(%d) = (%d, %v), oracle (%d, %v)", k, gv, gok, wv, wok)
		}
	}
	n, prev, seen := 0, core.Key(0), false
	var rangeErr error
	ix.Range(0, ^core.Key(0), func(k core.Key, v core.Value) bool {
		if seen && k <= prev {
			rangeErr = fmt.Errorf("conform: stress quiesced Range not ascending: %d after %d", k, prev)
			return false
		}
		seen, prev = true, k
		if wv, ok := want[k]; !ok || wv != v {
			rangeErr = fmt.Errorf("conform: stress quiesced Range saw (%d, %d), oracle (%d, %v)", k, v, wv, ok)
			return false
		}
		n++
		return true
	})
	if rangeErr != nil {
		return rangeErr
	}
	if n != len(want) {
		return fmt.Errorf("conform: stress quiesced Range visited %d records, oracle %d", n, len(want))
	}
	return lix.CheckInvariants(ix)
}

// CheckStress generates a randomized concurrent history, runs it against a
// fresh index from build, and differentially verifies the quiesced state.
// On failure the history is greedily shrunk — each candidate re-run
// ShrinkRetries times, since concurrent failures reproduce probabilistically
// — and the minimized history is included in the returned error. nil means
// the run was clean. Run under -race to also catch data races.
func CheckStress(build func(init []core.KV) (MutableIndex, error), cfg StressConfig) error {
	if cfg.Writers <= 0 || cfg.KeysPerWriter <= 0 || cfg.OpsPerWriter <= 0 {
		return fmt.Errorf("conform: invalid stress config %+v", cfg)
	}
	if cfg.ShrinkRetries <= 0 {
		cfg.ShrinkRetries = 3
	}
	if cfg.ShrinkBudget <= 0 {
		cfg.ShrinkBudget = 80
	}
	h := genStressHistory(cfg)
	err := runStress(build, h, cfg, cfg.Seed)
	if err == nil {
		return nil
	}
	h, err = shrinkStress(build, h, cfg, err)
	return &StressFailure{Err: err, History: h}
}

// shrinkStress greedily minimizes a failing history: first each writer's
// op sequence (ddmin-style chunk removal), then the initial record set. A
// candidate is kept only if it fails at least once across ShrinkRetries
// runs; the budget bounds total concurrent executions.
func shrinkStress(build func(init []core.KV) (MutableIndex, error), h stressHistory, cfg StressConfig, firstErr error) (stressHistory, error) {
	budget := cfg.ShrinkBudget
	lastErr := firstErr
	failsOnce := func(cand stressHistory) bool {
		if budget <= 0 {
			return false
		}
		for r := 0; r < cfg.ShrinkRetries && budget > 0; r++ {
			budget--
			if err := runStress(build, cand, cfg, cfg.Seed+int64(1000*r)); err != nil {
				lastErr = err
				return true
			}
		}
		return false
	}
	for w := range h.writers {
		h.writers[w] = shrinkSlice(h.writers[w], func(ops []Op) bool {
			cand := h
			cand.writers = append([][]Op(nil), h.writers...)
			cand.writers[w] = ops
			return failsOnce(cand)
		})
	}
	h.init = shrinkSlice(h.init, func(init []core.KV) bool {
		cand := h
		cand.init = init
		return failsOnce(cand)
	})
	return h, lastErr
}

// StressFailure is a stress-tier failure with its minimized history.
type StressFailure struct {
	Err     error
	History stressHistory
}

func (f *StressFailure) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v\nminimized history: %d initial records, %d writers, %d ops",
		f.Err, len(f.History.init), len(f.History.writers), f.History.ops())
	if f.History.ops() <= 48 {
		for w, ops := range f.History.writers {
			for i, op := range ops {
				fmt.Fprintf(&b, "\n  writer[%d] op[%d] = %s", w, i, op)
			}
		}
	}
	return b.String()
}

func (f *StressFailure) Unwrap() error { return f.Err }
