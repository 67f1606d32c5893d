package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/dataset"
	"github.com/lix-go/lix/internal/page"
)

// pagedColdFrames is the cold run's buffer-pool frame budget: well under
// 1% of the dataset's pages, so the cold run is dominated by page faults
// and CLOCK evictions.
const pagedColdFrames = 16

// gatePaged measures random point lookups (cfg.Q of them over cfg.N keys)
// against both disk-backed paged kinds, once through a buffer pool far
// smaller than the dataset (cold, every probe faults pages in from disk)
// and once through a pool holding every page (warm, the steady state after
// the working set is resident). The floor — warm at least 3x cold — pins
// the structural promise of the buffer pool: serving from resident frames
// must be far cheaper than faulting pages in, on every machine, or caching
// is buying nothing.
func gatePaged(cfg Config) ([]*Table, []floor, error) {
	keys := mustKeys(dataset.Uniform, cfg.N, cfg.Seed)
	recs := dataset.KV(keys)
	r := newRand(cfg.Seed + 101)
	probes := make([]core.Key, cfg.Q)
	for i := range probes {
		probes[i] = keys[r.Intn(len(keys))]
	}

	dir, err := os.MkdirTemp("", "lixbench-paged")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	t := &Table{
		ID: "PAGED",
		Title: fmt.Sprintf("Paged lookup throughput, n=%d, cold pool %d frames vs all-resident (Kops/s)",
			cfg.N, pagedColdFrames),
		Columns: []string{"kind", "cold Kops", "warm Kops", "warm/cold", "cold miss%", "evictions"},
	}
	var floors []floor
	for _, kind := range []string{page.KindBTree, page.KindPGM} {
		path := filepath.Join(dir, kind+".lpx")
		b, err := page.BulkIndex(path, kind, recs, page.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: bulk %s: %w", kind, err)
		}
		if err := b.Close(); err != nil {
			return nil, nil, err
		}
		st, err := os.Stat(path)
		if err != nil {
			return nil, nil, err
		}
		// Enough frames for every page in the file plus slack for pages
		// that splits would add (there are none here: lookups only).
		warmFrames := int(st.Size())/page.DefaultPageSize + 16

		cold, err := page.OpenIndex(path, kind, page.Options{PoolFrames: pagedColdFrames})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: open cold %s: %w", kind, err)
		}
		coldRate := pagedLookupRate(cold, probes)
		cs := cold.PoolStats()
		if err := cold.Close(); err != nil {
			return nil, nil, err
		}
		if cs.Evictions == 0 {
			return nil, nil, fmt.Errorf("bench: cold %s run evicted nothing — pool not smaller than dataset", kind)
		}

		warm, err := page.OpenIndex(path, kind, page.Options{PoolFrames: warmFrames})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: open warm %s: %w", kind, err)
		}
		// Unmeasured pass over the exact probe workload: everything the
		// measured loop touches is resident afterwards.
		pagedLookupRate(warm, probes)
		warmRate := pagedLookupRate(warm, probes)
		ws := warm.PoolStats()
		if err := warm.Close(); err != nil {
			return nil, nil, err
		}
		if ws.Evictions > 0 {
			return nil, nil, fmt.Errorf("bench: warm %s run evicted %d pages — pool sized too small", kind, ws.Evictions)
		}

		missPct := 100 * float64(cs.Misses) / float64(cs.Hits+cs.Misses)
		t.AddRow(kind, coldRate/1e3, warmRate/1e3, warmRate/coldRate, missPct, cs.Evictions)
		floors = append(floors, floor{name: "paged/" + kind + "/lookup/warm", got: warmRate, ref: coldRate, min: 3})
	}
	return []*Table{t}, floors, nil
}

// pagedLookupRate drives the probe sequence through ix and returns
// lookups per second.
func pagedLookupRate(ix *page.Index, probes []core.Key) float64 {
	start := time.Now()
	for _, k := range probes {
		ix.Get(k)
	}
	return float64(len(probes)) / time.Since(start).Seconds()
}
