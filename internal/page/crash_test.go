package page

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/lix-go/lix/internal/core"
)

// Crash-injection suite for the page layer: every test builds an index
// file, damages it the way a real crash or failing device can (torn page
// write, flipped bit, truncated tail), reopens, and checks the one
// property the CRC framing must deliver: a damaged page is DETECTED — a
// lookup either returns the correct committed value or an error, never a
// silently wrong answer.

const crashRecords = 3000

// buildCrashFile builds a paged index of the given kind at path and
// returns the committed records.
func buildCrashFile(t *testing.T, kind, path string) []core.KV {
	t.Helper()
	recs := make([]core.KV, crashRecords)
	for i := range recs {
		recs[i] = core.KV{Key: core.Key(i * 7), Value: core.Value(i + 1)}
	}
	ix, err := BulkIndex(path, kind, recs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// checkDetected reopens the damaged file and sweeps every committed
// record plus a band of absent keys: each probe must yield the committed
// answer or an error — never a wrong value and never a panic. Returns how
// many probes surfaced errors (so callers can assert the damage was
// actually seen when it must be).
func checkDetected(t *testing.T, kind, path string, recs []core.KV) int {
	t.Helper()
	// A small pool forces the sweep to read every page from disk rather
	// than serving damage-masking cached frames.
	ix, err := OpenIndex(path, kind, Options{PoolFrames: 8})
	if err != nil {
		// Damage in the meta page (or, for the PGM, anywhere in the leaf
		// chain walked at open) is detected at open time: that is also a
		// correct outcome.
		return 1
	}
	defer ix.Close()
	lookup := ix.Lookup
	errs := 0
	for _, r := range recs {
		v, ok, err := lookup(r.Key)
		if err != nil {
			errs++
			continue
		}
		if !ok || v != r.Value {
			t.Fatalf("%s: Get(%d) silently returned (%d,%v), want (%d,true)", kind, r.Key, v, ok, r.Value)
		}
	}
	for i := 0; i < crashRecords; i += 17 {
		k := core.Key(i*7 + 3)
		v, ok, err := lookup(k)
		if err != nil {
			errs++
			continue
		}
		if ok {
			t.Fatalf("%s: absent key %d silently resurrected as %d", kind, k, v)
		}
	}
	return errs
}

// TestCrashBitFlipDetected flips one random bit anywhere in the file per
// trial. Every read of the damaged page must error; undamaged pages keep
// serving exact committed data.
func TestCrashBitFlipDetected(t *testing.T) {
	for _, kind := range []string{KindBTree, KindPGM} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			path := filepath.Join(t.TempDir(), "crash.lpx")
			recs := buildCrashFile(t, kind, path)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 25; trial++ {
				data := append([]byte(nil), pristine...)
				pos := rng.Intn(len(data))
				data[pos] ^= 1 << uint(rng.Intn(8))
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if errs := checkDetected(t, kind, path, recs); errs == 0 {
					t.Fatalf("trial %d: bit flip at byte %d never detected", trial, pos)
				}
			}
		})
	}
}

// TestCrashTornPageDetected simulates a torn page write: a random page's
// second half reverts to zeros (the write only partially reached the
// platter). The CRC covers the whole page, so the tear must be detected.
func TestCrashTornPageDetected(t *testing.T) {
	for _, kind := range []string{KindBTree, KindPGM} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			path := filepath.Join(t.TempDir(), "crash.lpx")
			recs := buildCrashFile(t, kind, path)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			numPages := len(pristine) / DefaultPageSize
			for trial := 0; trial < 10; trial++ {
				data := append([]byte(nil), pristine...)
				pg := rng.Intn(numPages)
				tearAt := pg*DefaultPageSize + DefaultPageSize/2
				changed := false
				for i := tearAt; i < (pg+1)*DefaultPageSize; i++ {
					changed = changed || data[i] != 0
					data[i] = 0
				}
				if !changed {
					// The page's tail was already zero (e.g. the sparsely
					// filled meta page): the tear lost nothing, so there is
					// nothing to detect.
					continue
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if errs := checkDetected(t, kind, path, recs); errs == 0 {
					t.Fatalf("trial %d: torn write of page %d never detected", trial, pg)
				}
			}
		})
	}
}

// TestCrashTruncatedTailDetected cuts the file at a random offset. Pages
// beyond the cut read short and must error; pages before it stay exact.
func TestCrashTruncatedTailDetected(t *testing.T) {
	for _, kind := range []string{KindBTree, KindPGM} {
		t.Run(kind, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			path := filepath.Join(t.TempDir(), "crash.lpx")
			recs := buildCrashFile(t, kind, path)
			pristine, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 10; trial++ {
				// Cut somewhere after the meta page so Open can at least start.
				cut := DefaultPageSize + rng.Intn(len(pristine)-DefaultPageSize)
				if err := os.WriteFile(path, pristine[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				if errs := checkDetected(t, kind, path, recs); errs == 0 {
					t.Fatalf("trial %d: truncation at byte %d never detected", trial, cut)
				}
			}
		})
	}
}

// TestCrashCleanFileSurvivesSweep is the control: the undamaged file must
// produce zero detection errors under the same sweep.
func TestCrashCleanFileSurvivesSweep(t *testing.T) {
	for _, kind := range []string{KindBTree, KindPGM} {
		path := filepath.Join(t.TempDir(), kind+".lpx")
		recs := buildCrashFile(t, kind, path)
		if errs := checkDetected(t, kind, path, recs); errs != 0 {
			t.Fatalf("%s: clean file produced %d errors", kind, errs)
		}
	}
}
