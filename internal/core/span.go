package core

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Stage identifies one timed section of a serving request's path through
// the engine.
type Stage uint8

// Span stages, in pipeline order.
const (
	// StageDecode is wire-frame parse time (io wait excluded).
	StageDecode Stage = iota
	// StageDispatch is the serving layer's group dispatch: run slicing,
	// batch assembly and reply encoding, covering the store calls.
	StageDispatch
	// StageShard is in-memory index work: the shard fan-out or the bare
	// backend's batch application.
	StageShard
	// StageWAL is WAL frame encoding + append write time.
	StageWAL
	// StageFsync is group-commit fsync wait time.
	StageFsync
	// StageFlush is reply delivery: the connection's write-buffer flush,
	// where a slow or stalled client shows up.
	StageFlush
	// NumStages bounds the stage set.
	NumStages
)

// String returns the stable snake_case metric-family stem of the stage.
func (s Stage) String() string {
	switch s {
	case StageDecode:
		return "decode"
	case StageDispatch:
		return "dispatch"
	case StageShard:
		return "shard"
	case StageWAL:
		return "wal"
	case StageFsync:
		return "fsync"
	case StageFlush:
		return "flush"
	default:
		return fmt.Sprintf("stage_%d", uint8(s))
	}
}

// Span is the timeline of one sampled request group, the value the batch
// capabilities (caps.go) thread through the layer stack. It lives here,
// beside those interfaces, so every layer can record into it without
// importing the tracer; internal/trace owns sampling, pooling and what
// happens to a finished span. Stage durations are accumulated with atomic
// adds so parallel fan-out goroutines can record into one span. The zero
// value is usable. All methods are safe on a nil receiver (no-ops / zero
// values), which keeps call sites on the unsampled path branch-free.
type Span struct {
	start  time.Time
	ops    int
	stages [NumStages]atomic.Int64
}

// Reset starts the span's clock for a group of ops requests and clears
// every stage; the tracer calls it on a span taken from its pool.
func (sp *Span) Reset(ops int) {
	sp.start = time.Now()
	sp.ops = ops
	for i := range sp.stages {
		sp.stages[i].Store(0)
	}
}

// Add accumulates d into stage st. Safe for concurrent use and on a nil
// receiver.
func (sp *Span) Add(st Stage, d time.Duration) {
	if sp == nil || st >= NumStages || d <= 0 {
		return
	}
	sp.stages[st].Add(int64(d))
}

// Begin opens a timed section: the current time on a live span, the zero
// time — and no clock read — on a nil one. Hand the result to End.
func (sp *Span) Begin() time.Time {
	if sp == nil {
		return time.Time{}
	}
	return time.Now()
}

// End accumulates the time since t0 (from Begin) into stage st; a no-op
// on a nil span. `defer sp.End(st, sp.Begin())` times a whole function.
func (sp *Span) End(st Stage, t0 time.Time) {
	if sp != nil {
		sp.Add(st, time.Since(t0))
	}
}

// Stage returns the accumulated duration of st (0 on a nil span).
func (sp *Span) Stage(st Stage) time.Duration {
	if sp == nil || st >= NumStages {
		return 0
	}
	return time.Duration(sp.stages[st].Load())
}

// Ops returns the number of requests in the traced group.
func (sp *Span) Ops() int {
	if sp == nil {
		return 0
	}
	return sp.ops
}

// Total returns the group's end-to-end duration: wall time since the span
// started plus the decode stage, which the wire layer accumulates before
// the span exists (frames are parsed while the group is drained).
func (sp *Span) Total() time.Duration {
	if sp == nil {
		return 0
	}
	return time.Since(sp.start) + sp.Stage(StageDecode)
}

// Timeline renders the span as one line, stages in pipeline order with
// zero stages elided: "ops=3 decode=1.2µs dispatch=80µs shard=75µs".
func (sp *Span) Timeline() string {
	if sp == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ops=%d", sp.ops)
	for st := Stage(0); st < NumStages; st++ {
		if d := sp.Stage(st); d > 0 {
			fmt.Fprintf(&b, " %s=%s", st, d)
		}
	}
	return b.String()
}
