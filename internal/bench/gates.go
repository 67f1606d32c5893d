package bench

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"
)

// gate is one self-checking measurement: run prints its table and returns
// the ratios it promises, each with the floor it must reach. size is the
// scale CI gates it at; Run replaces Seed, and Shards and Workers where
// the gate has them and the caller set them.
type gate struct {
	id   string
	size Config
	run  func(Config) ([]*Table, []floor, error)
}

var gates = []gate{
	{"serving", Config{N: 100_000, Q: 20_000, Shards: 8, Workers: 4}, gateServing},
	{"batch", Config{N: 100_000, Q: 20_000, Shards: 8}, gateBatch},
	{"paged", Config{N: 60_000, Q: 30_000}, gatePaged},
	{"lsm", Config{N: 400_000, Q: 6_000}, gateLSM},
	{"trace", Config{N: 100_000, Shards: 4, Workers: 4, Pipeline: 32, Duration: 100 * time.Millisecond}, gateTrace},
	{"obs", Config{N: 1_000_000, Q: 200_000, Shards: 8, Workers: 4}, gateObs},
	{"spatial", Config{N: 200_000, Q: 3_000}, gateSpatial},
	{"wire", Config{N: 100_000, Q: 8192, Shards: 4, Pipeline: 32}, gateWire},
}

// runGates runs the gate named id, or all of them for "gates". Every gate
// runs even after one fails, so one run reports every missed floor.
func runGates(id string, cfg Config) ([]*Table, error) {
	var tables []*Table
	var errs []error
	ran := false
	for _, g := range gates {
		if id != g.id && id != "gates" {
			continue
		}
		ran = true
		size := g.size
		size.Seed = cfg.Seed
		if cfg.Shards > 0 && size.Shards > 0 {
			size.Shards = cfg.Shards
		}
		if cfg.Workers > 0 && size.Workers > 0 {
			size.Workers = cfg.Workers
		}
		ts, floors, err := g.run(size)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", g.id, err))
			continue
		}
		t := &Table{ID: "GATE", Title: g.id + ": measured ratio and the floor it must reach", Columns: []string{"name", "ratio", "floor"}}
		for _, f := range floors {
			t.AddRow(f.name, f.got/f.ref, f.min)
			errs = append(errs, f.check())
		}
		tables = append(append(tables, ts...), t)
	}
	if !ran {
		return nil, fmt.Errorf("bench: unknown experiment or gate %q", id)
	}
	return tables, errors.Join(errs...)
}

// floor is one gated ratio, declared where it is measured: got/ref, two
// rates from the same run, must be at least min.
type floor struct {
	name     string
	got, ref float64
	min      float64
}

// check returns nil when the floor holds. A side that is zero, negative or
// NaN fails it: a gate that measured nothing must not pass.
func (f floor) check() error {
	if !(f.got > 0) || !(f.ref > 0) {
		return fmt.Errorf("%s: measured %v against %v, no ratio to hold to floor %v", f.name, f.got, f.ref, f.min)
	}
	if r := f.got / f.ref; !(r >= f.min) {
		return fmt.Errorf("%s: %.3f < %v", f.name, r, f.min)
	}
	return nil
}

// The schedule abMedian runs unless a gate needs more: a shared runner is
// disturbed for tens of milliseconds at a time and a whole pass swings by
// +/-10 %, which makes a floor near 1.0 a coin toss when the two sides run
// one after the other. Slices of a few milliseconds put each disturbance
// on both sides, and fresh instances keep one lucky memory layout from
// deciding a run.
const (
	abRounds = 7
	abSlices = 16
)

// side runs one slice of work and returns the rate it ran at.
type side func() (float64, error)

// abMedian compares two sides in the same moments. Each round calls fresh
// for a new pair of instances and runs the given number of slices on it;
// in every slice each side runs once, and which one goes first alternates
// from slice to slice and from round to round. A side's rate for the round
// is the harmonic mean of its slice rates (its true rate when, as the
// callers arrange, every slice is the same amount of work). The result is
// the round whose a/b ratio is the median, both rates from that round: the
// host speeds up and slows down between rounds by more than the floors
// leave room for, and a median taken per side could pair a fast round of
// one side with a slow round of the other. done releases the round's
// instances.
//
// Every floor within 25 % of 1.0 is measured here, and two wide ones whose
// sides are too short to time once and apart: the serving backstops and
// the LSM floor. The durable-batch and paged floors time their sides one
// after the other.
func abMedian(rounds, slices int, fresh func() (a, b side, done func(), err error)) (aRate, bRate float64, err error) {
	rates, err := abRates(rounds, slices, func() ([]side, func(), error) {
		a, b, done, err := fresh()
		return []side{a, b}, done, err
	})
	if err != nil {
		return 0, 0, err
	}
	r := medianRound(rates, 0, 1)
	return r[0], r[1], nil
}

// abRates is abMedian's schedule for any number of sides, the order rotating
// as abMedian's alternates: it returns every round's rate of every side, for
// a gate that holds several sides against one control in the same moments.
func abRates(rounds, slices int, fresh func() (sides []side, done func(), err error)) ([][]float64, error) {
	rates := make([][]float64, rounds)
	for round := range rates {
		sides, done, err := fresh()
		if err != nil {
			return nil, err
		}
		inv := make([]float64, len(sides))
		for s := 0; s < slices; s++ {
			for k := range sides {
				i := (round + s + k) % len(sides)
				rate, err := sides[i]()
				if err != nil {
					done()
					return nil, err
				}
				inv[i] += 1 / rate
			}
		}
		done()
		for i := range inv {
			inv[i] = float64(slices) / inv[i]
		}
		rates[round] = inv
	}
	return rates, nil
}

// medianRound returns the round of rates whose a/b ratio is the median.
func medianRound(rates [][]float64, a, b int) []float64 {
	rates = slices.Clone(rates)
	slices.SortFunc(rates, func(x, y []float64) int { return cmp.Compare(x[a]/x[b], y[a]/y[b]) })
	return rates[len(rates)/2]
}
