package sst

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/lbf"
	"github.com/lix-go/lix/internal/page"
	"github.com/lix-go/lix/internal/segment"
)

const (
	// fenceEps is the PLA error budget for the fence model, in fence-array
	// slots — the same budget the paged PGM kind uses for its leaf fences.
	fenceEps = 8
	// minModelFences is the fence count below which a plain binary search
	// beats a model; small runs skip the PLA build entirely.
	minModelFences = 64
	// filterBitsPerKey sizes each run's learned filter: generous enough
	// that absent-key lookups skip the run well over 90% of the time.
	filterBitsPerKey = 16
	// minFilterBits floors tiny runs' filters.
	minFilterBits = 1024
)

// State is the outcome of a single-run point lookup.
type State uint8

const (
	// Absent: the run says nothing about the key — consult older runs.
	Absent State = iota
	// Found: the run holds a live record for the key.
	Found
	// Deleted: the run holds a tombstone — the key is dead, stop.
	Deleted
)

// Counters is a snapshot of a reader's lookup counters. Probes counts Get
// calls; every probe resolves as exactly one of RangeSkips (key outside
// [min, max], no filter consulted), FilterSkips (learned filter rejected
// it), FalsePositives (filter accepted but the run holds neither record
// nor tombstone), Hits, or TombHits.
type Counters struct {
	Probes         uint64
	RangeSkips     uint64
	FilterSkips    uint64
	FalsePositives uint64
	Hits           uint64
	TombHits       uint64
	PageReads      uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.Probes += o.Probes
	c.RangeSkips += o.RangeSkips
	c.FilterSkips += o.FilterSkips
	c.FalsePositives += o.FalsePositives
	c.Hits += o.Hits
	c.TombHits += o.TombHits
	c.PageReads += o.PageReads
}

// RunStats describes one open run for gauges and debugging. Fences,
// Segments, FilterBits and BackupKeys are zero until the run has been read
// through (see Reader).
type RunStats struct {
	Path       string
	Live       int
	Dead       int
	Seq        uint64
	MinKey     core.Key
	MaxKey     core.Key
	FileBytes  int64
	Fences     int
	Segments   int
	FilterBits uint64
	BackupKeys int
}

// Reader serves point lookups against one immutable run file. Open
// validates the file and keeps only its summary; the data pages stay on
// disk. What a lookup needs beyond that is derived data, built by the
// first Get (see lookup): a run nobody reads through costs no training
// time, no memory and no file descriptor. Methods are safe for concurrent
// use.
type Reader struct {
	sum RunStats // what Open read; the model fields stay zero here

	mu     sync.Mutex // serializes train and Close
	closed bool
	look   atomic.Pointer[lookup]

	probes    atomic.Uint64
	rangeSkip atomic.Uint64
	filtSkip  atomic.Uint64
	falsePos  atomic.Uint64
	hits      atomic.Uint64
	tombHits  atomic.Uint64
	pageReads atomic.Uint64
}

// lookup is a run's derived read-path state, rebuilt from the page contents
// as the paged PGM kind rebuilds its fence model; immutable once published.
type lookup struct {
	f      *os.File
	fences []core.Key        // first key of data page i
	model  []segment.Segment // PLA over fences (nil for small runs)
	tombs  []core.Key        // sorted tombstone keys, fully in memory
	filter *lbf.Filter       // membership over live ∪ tombstone keys
	fpr    float64           // filter FPR measured on a holdout when trained
}

// pagePool recycles 4 KiB lookup buffers across Get calls.
var pagePool = sync.Pool{New: func() any {
	b := make([]byte, PageSize)
	return &b
}}

// Open validates the run file at path end to end (full canonical decode —
// a torn or corrupted run is rejected here, never served) and returns the
// reader together with that decode, so a caller that merges the run does
// not read it a second time.
func Open(path string) (*Reader, *FileData, error) {
	d, size, err := readFile(path)
	if err != nil {
		return nil, nil, err
	}
	return &Reader{sum: RunStats{
		Path: path, FileBytes: size, Live: len(d.Live), Dead: len(d.Dead),
		Seq: d.Seq, MinKey: d.MinKey(), MaxKey: d.MaxKey(),
	}}, d, nil
}

// readFile reads and decodes the run file at path.
func readFile(path string) (*FileData, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	d, err := DecodeFile(b)
	if err != nil {
		return nil, 0, fmt.Errorf("sst: %s: %w", path, err)
	}
	return d, int64(len(b)), nil
}

// train builds the lookup state from the file and publishes it; the first
// Get of a run pays for it, later ones find it published.
func (r *Reader) train() (*lookup, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lk := r.look.Load(); lk != nil {
		return lk, nil
	}
	if r.closed {
		return nil, fmt.Errorf("sst: %s: %w", r.sum.Path, os.ErrClosed)
	}
	d, _, err := readFile(r.sum.Path)
	if err != nil {
		return nil, err
	}
	lk := &lookup{tombs: d.Dead}
	// Fence array: the first key of each data page.
	if pages := pagesFor(len(d.Live)); pages > 0 {
		lk.fences = make([]core.Key, pages)
		for i := range lk.fences {
			lk.fences[i] = d.Live[i*RecsPerPage].Key
		}
	}
	if len(lk.fences) >= minModelFences {
		xs := make([]float64, len(lk.fences))
		for i, k := range lk.fences {
			xs[i] = float64(k)
		}
		lk.model = segment.BuildOptimal(xs, segment.Positions(len(xs)), fenceEps)
	}
	// Learned filter over every key the run speaks for — live and dead.
	// Zero false negatives is load-bearing twice over: a missed live key
	// would lose a committed write, a missed tombstone would resurrect a
	// deleted one from an older run.
	members, lo, hi := memberKeys(d), r.sum.MinKey, r.sum.MaxKey
	negs := synthNegatives(members, lo, hi, d.Seq^lo)
	bits := max(uint64(len(members))*filterBitsPerKey, minFilterBits)
	if lk.filter, err = lbf.Train(members, negs, bits, 0); err != nil {
		return nil, fmt.Errorf("sst: %s: train filter: %w", r.sum.Path, err)
	}
	// Measure the realized FPR on a holdout batch of absent keys the
	// filter was not trained on; exported on /metrics per run.
	if holdout := synthNegatives(members, lo, hi, d.Seq^hi^0x5bf0a8b1); len(holdout) > 0 {
		lk.fpr = lbf.MeasureFPR(lk.filter, holdout)
	}
	if lk.f, err = os.Open(r.sum.Path); err != nil {
		return nil, err
	}
	r.look.Store(lk)
	return lk, nil
}

// memberKeys returns the sorted union of live and tombstone keys.
func memberKeys(d *FileData) []core.Key {
	out := make([]core.Key, 0, len(d.Live)+len(d.Dead))
	core.MergeNewestFirst([]int{len(d.Live), len(d.Dead)}, d.key, func(s, from, to int) bool {
		for i := from; i < to; i++ {
			out = append(out, d.key(s, i))
		}
		return true
	})
	return out
}

// synthNegatives generates the learned filter's negative training sample:
// deterministic pseudo-random non-member keys, drawn from the run's own
// key range so the classifier learns the in-range boundary it will
// actually be probed on, widened to the full key space if the range is
// too dense to yield enough.
func synthNegatives(members []core.Key, lo, hi core.Key, seed uint64) []core.Key {
	want := len(members)
	if want < 512 {
		want = 512
	}
	if want > 8192 {
		want = 8192
	}
	isMember := func(k core.Key) bool {
		i := core.LowerBound(members, k)
		return i < len(members) && members[i] == k
	}
	negs := make([]core.Key, 0, want)
	x := seed
	span := hi - lo
	for tries := 0; len(negs) < want && tries < want*16; tries++ {
		r := splitmix64(&x)
		var k core.Key
		if span == ^core.Key(0) || span == 0 {
			k = r
		} else {
			k = lo + r%(span+1)
		}
		if !isMember(k) {
			negs = append(negs, k)
		}
	}
	// Dense range fallback: draw from the whole key space.
	for tries := 0; len(negs) < want && tries < want*16; tries++ {
		if k := splitmix64(&x); !isMember(k) {
			negs = append(negs, k)
		}
	}
	return negs
}

// splitmix64 advances x and returns the next value of the splitmix64
// sequence.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Get resolves k against this run alone: Found with the value, Deleted
// when the run tombstones k, Absent when the run says nothing (the caller
// consults older runs). At most one page read per call; absent keys are
// usually rejected by the range check or the learned filter without
// touching disk. The first Get inside the run's key range trains the
// models, and fails if the file has gone missing or bad since Open.
func (r *Reader) Get(k core.Key) (core.Value, State, error) {
	r.probes.Add(1)
	if k < r.sum.MinKey || k > r.sum.MaxKey {
		r.rangeSkip.Add(1)
		return 0, Absent, nil
	}
	lk := r.look.Load()
	if lk == nil {
		var err error
		if lk, err = r.train(); err != nil {
			return 0, Absent, err
		}
	}
	if !lk.filter.Contains(k) {
		r.filtSkip.Add(1)
		return 0, Absent, nil
	}
	if i := core.LowerBound(lk.tombs, k); i < len(lk.tombs) && lk.tombs[i] == k {
		r.tombHits.Add(1)
		return 0, Deleted, nil
	}
	if r.sum.Live == 0 {
		r.falsePos.Add(1)
		return 0, Absent, nil
	}
	pg := lk.pageFor(k)
	bp := pagePool.Get().(*[]byte)
	defer pagePool.Put(bp)
	p := page.Buf(*bp)
	if err := r.readPage(lk.f, uint64(1+pg), p); err != nil {
		return 0, Absent, err
	}
	if i, ok := p.LeafSearch(k); ok {
		v := p.LeafVal(i)
		r.hits.Add(1)
		return v, Found, nil
	}
	r.falsePos.Add(1)
	return 0, Absent, nil
}

// predict is the fence slot the model puts k at, clamped to the slots of
// its segment: a key past a segment's last fence has its lower bound at the
// segment's end, where the extrapolated line may overshoot by more than
// pageFor's window.
func (lk *lookup) predict(k core.Key) int {
	s := &lk.model[segment.Locate(lk.model, float64(k))]
	return int(min(max(s.Predict(float64(k)), float64(s.StartIdx)), float64(s.EndIdx)))
}

// pageFor returns the data-page index whose key range covers k: the last
// fence ≤ k. The PLA model predicts a slot and a windowed search corrects
// it; the result is verified against the full fence array (the model is
// an accelerator, never an authority) with a binary-search fallback.
func (lk *lookup) pageFor(k core.Key) int {
	var i int
	if lk.model != nil {
		p := lk.predict(k)
		i = core.SearchRange(lk.fences, k, p-fenceEps-1, p+fenceEps+2)
		if !((i == 0 || lk.fences[i-1] < k) && (i == len(lk.fences) || lk.fences[i] >= k)) {
			i = core.LowerBound(lk.fences, k)
		}
	} else {
		i = core.LowerBound(lk.fences, k)
	}
	if i < len(lk.fences) && lk.fences[i] == k {
		return i
	}
	if i == 0 {
		return 0
	}
	return i - 1
}

// readPage fills p with page id's content, verifying CRC and self-id —
// the last line of defense against corruption that appears after Open.
func (r *Reader) readPage(f *os.File, id uint64, p page.Buf) error {
	n, err := f.ReadAt(p, int64(id)*PageSize)
	if n != PageSize {
		return fmt.Errorf("sst: %s: short read of page %d (%d bytes): %v", r.sum.Path, id, n, err)
	}
	r.pageReads.Add(1)
	if !p.VerifyCRC() {
		return fmt.Errorf("sst: %s: page %d CRC mismatch (torn or corrupted write)", r.sum.Path, id)
	}
	if p.ID() != id {
		return fmt.Errorf("sst: %s: page %d stores id %d (misdirected write)", r.sum.Path, id, p.ID())
	}
	return nil
}

// Data re-reads and decodes the whole run — the bulk path for compaction
// merges.
func (r *Reader) Data() (*FileData, error) {
	d, _, err := readFile(r.sum.Path)
	return d, err
}

// Counters returns a snapshot of the lookup counters.
func (r *Reader) Counters() Counters {
	return Counters{
		Probes:         r.probes.Load(),
		RangeSkips:     r.rangeSkip.Load(),
		FilterSkips:    r.filtSkip.Load(),
		FalsePositives: r.falsePos.Load(),
		Hits:           r.hits.Load(),
		TombHits:       r.tombHits.Load(),
		PageReads:      r.pageReads.Load(),
	}
}

// Stats describes the open run: the summary Open read, plus the sizes of
// the models once a Get has built them.
func (r *Reader) Stats() RunStats {
	st := r.sum
	if lk := r.look.Load(); lk != nil {
		st.Fences = len(lk.fences)
		st.Segments = len(lk.model)
		st.FilterBits = lk.filter.Bits()
		st.BackupKeys = lk.filter.BackupKeys()
	}
	return st
}

// MeasuredFPR is the filter's false-positive rate measured on a holdout
// batch of synthesized absent keys when the filter was trained, 0 before.
func (r *Reader) MeasuredFPR() float64 {
	if lk := r.look.Load(); lk != nil {
		return lk.fpr
	}
	return 0
}

// Close releases the read handle, if a Get ever opened one; later Gets
// that would need to train fail.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if lk := r.look.Load(); lk != nil {
		return lk.f.Close()
	}
	return nil
}
