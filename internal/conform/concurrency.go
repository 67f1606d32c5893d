package conform

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/core"
)

// ConcurrencyConfig sizes a CheckConcurrent run.
type ConcurrencyConfig struct {
	Writers       int   // concurrent writer goroutines (each owns a disjoint key set)
	Readers       int   // concurrent point-read goroutines
	RangeReaders  int   // concurrent range-scan goroutines
	KeysPerWriter int   // keys owned by each writer
	Iters         int   // upsert rounds per writer over its key set
	Seed          int64 // deterministic scheduling of reader key picks
}

// DefaultConcurrencyConfig returns a configuration sized so that a -race
// run finishes in a few seconds while still forcing group compactions and
// splits in XIndex-style structures.
func DefaultConcurrencyConfig() ConcurrencyConfig {
	return ConcurrencyConfig{
		Writers:       4,
		Readers:       4,
		RangeReaders:  2,
		KeysPerWriter: 256,
		Iters:         40,
		Seed:          1,
	}
}

// CheckConcurrent is a linearizability-lite checker for concurrent mutable
// indexes (XIndex). Each key has exactly one writer, which upserts
// monotonically increasing sequence numbers and publishes a happens-before
// window around every write:
//
//	started[k] = seq   (before Insert)
//	Insert(k, enc(k, seq))
//	completed[k] = seq (after Insert)
//
// A reader samples lo = completed[k] before Get and hi = started[k] after
// Get; linearizability of Get requires the observed sequence to lie in
// [lo, hi], and reads of the same key by the same goroutine to be
// monotonic. Values encode their key, so a read can also never observe a
// value written to a different key. Range scans assert strictly ascending
// keys and key/value consistency. After the writers quiesce, the final
// state is compared against the oracle (every key at its last sequence
// number) and the index's invariant hook is run.
//
// The returned error is the first violation observed, nil if the run is
// clean. Run under -race to also catch data races in the implementation.
func CheckConcurrent(mk func() MutableIndex, cfg ConcurrencyConfig) error {
	if cfg.Writers <= 0 || cfg.KeysPerWriter <= 0 || cfg.Iters <= 0 {
		return fmt.Errorf("conform: invalid concurrency config %+v", cfg)
	}
	ix := mk()
	total := cfg.Writers * cfg.KeysPerWriter
	keyOf := func(idx int) core.Key {
		// Scattered but monotone in idx, so range scans can map keys back.
		return core.Key(idx+1) * 7919
	}
	idxOf := func(k core.Key) (int, bool) {
		if k == 0 || k%7919 != 0 {
			return 0, false
		}
		i := int(k/7919) - 1
		return i, i >= 0 && i < total
	}
	enc := func(idx, seq int) core.Value { return core.Value(idx)<<32 | core.Value(seq) }
	dec := func(v core.Value) (idx, seq int) { return int(v >> 32), int(v & 0xffffffff) }

	started := make([]atomic.Int64, total)
	completed := make([]atomic.Int64, total)

	var mu sync.Mutex
	var firstErr error
	var done atomic.Bool
	fail := func(format string, args ...any) {
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf(format, args...)
		}
		mu.Unlock()
		done.Store(true)
	}

	var wg sync.WaitGroup
	var writersLeft atomic.Int64
	writersLeft.Store(int64(cfg.Writers))
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if writersLeft.Add(-1) == 0 {
					done.Store(true)
				}
			}()
			r := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			base := w * cfg.KeysPerWriter
			order := make([]int, cfg.KeysPerWriter)
			for j := range order {
				order[j] = base + j
			}
			for seq := 1; seq <= cfg.Iters; seq++ {
				r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
				// Writers run to completion even if a reader already failed,
				// so the quiesced final state stays well-defined.
				for _, idx := range order {
					started[idx].Store(int64(seq))
					ix.Insert(keyOf(idx), enc(idx, seq))
					completed[idx].Store(int64(seq))
				}
			}
		}(w)
	}

	for rd := 0; rd < cfg.Readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + 1000 + int64(rd)))
			lastSeen := make([]int, total)
			for !done.Load() {
				idx := r.Intn(total)
				k := keyOf(idx)
				lo := completed[idx].Load()
				v, ok := ix.Get(k)
				hi := started[idx].Load()
				if !ok {
					if lo > 0 {
						fail("conform: Get(%d) missed after write %d completed", k, lo)
						return
					}
					continue
				}
				vIdx, seq := dec(v)
				if vIdx != idx {
					fail("conform: Get(%d) returned a value written to key %d", k, keyOf(vIdx))
					return
				}
				if int64(seq) < lo || int64(seq) > hi {
					fail("conform: Get(%d) observed seq %d outside happens-before window [%d,%d]", k, seq, lo, hi)
					return
				}
				if seq < lastSeen[idx] {
					fail("conform: Get(%d) went backwards: seq %d after %d", k, seq, lastSeen[idx])
					return
				}
				lastSeen[idx] = seq
			}
		}(rd)
	}

	for rr := 0; rr < cfg.RangeReaders; rr++ {
		wg.Add(1)
		go func(rr int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(cfg.Seed + 2000 + int64(rr)))
			for !done.Load() {
				loIdx := r.Intn(total)
				span := 1 + r.Intn(64)
				lo, hi := keyOf(loIdx), keyOf(min(loIdx+span, total-1))
				prev := core.Key(0)
				seen := false
				bad := ""
				ix.Range(lo, hi, func(k core.Key, v core.Value) bool {
					if seen && k <= prev {
						bad = fmt.Sprintf("conform: Range keys not strictly ascending: %d after %d", k, prev)
						return false
					}
					seen, prev = true, k
					vIdx, seq := dec(v)
					wantIdx, ok := idxOf(k)
					if !ok || vIdx != wantIdx {
						bad = fmt.Sprintf("conform: Range saw key %d carrying value for key index %d", k, vIdx)
						return false
					}
					if seq < 1 || seq > cfg.Iters {
						bad = fmt.Sprintf("conform: Range saw key %d with out-of-range seq %d", k, seq)
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

	// Quiesced final-state verification.
	if got := ix.Len(); got != total {
		return fmt.Errorf("conform: quiesced Len() = %d, want %d", got, total)
	}
	for idx := 0; idx < total; idx++ {
		v, ok := ix.Get(keyOf(idx))
		if !ok {
			return fmt.Errorf("conform: quiesced Get(%d) missed", keyOf(idx))
		}
		vIdx, seq := dec(v)
		if vIdx != idx || seq != cfg.Iters {
			return fmt.Errorf("conform: quiesced Get(%d) = (idx %d, seq %d), want (idx %d, seq %d)",
				keyOf(idx), vIdx, seq, idx, cfg.Iters)
		}
	}
	n := 0
	ix.Range(0, ^core.Key(0), func(core.Key, core.Value) bool { n++; return true })
	if n != total {
		return fmt.Errorf("conform: quiesced full Range visited %d records, want %d", n, total)
	}
	return lix.CheckInvariants(ix)
}
