package lix

import (
	"time"

	"github.com/lix-go/lix/internal/core"
	"github.com/lix-go/lix/internal/trace"
)

// Request tracing, re-exported from internal/trace (and the span type
// from internal/core) for the public API.
type (
	// Tracer samples serving request groups into per-stage spans, feeds
	// the slow-request event log, and (optionally) maintains the hot-key
	// sketch. All methods are nil-safe: a nil *Tracer is "tracing off".
	Tracer = trace.Tracer
	// Span is the per-stage timeline of one sampled request group.
	Span = core.Span
	// TraceStage identifies one timed section of a request's path
	// (decode, dispatch, shard, wal, fsync, flush).
	TraceStage = core.Stage
	// KeyCount is one hot-key estimate from the SpaceSaving sketch:
	// Count-Err <= true frequency <= Count.
	KeyCount = trace.KeyCount
)

// Span stages, in pipeline order.
const (
	StageDecode   = core.StageDecode
	StageDispatch = core.StageDispatch
	StageShard    = core.StageShard
	StageWAL      = core.StageWAL
	StageFsync    = core.StageFsync
	StageFlush    = core.StageFlush
)

// TraceOptions is the StackConfig knob for request tracing. The tracer
// it builds is bound to the stack's Metrics bundle and returned by
// Stack.Tracer(), ready to hand to ServeConfig.Tracer and the admin
// plane.
type TraceOptions struct {
	// SampleRate is the fraction of request groups traced, in [0, 1]
	// (0 disables span sampling; the disabled cost is one atomic load
	// per group).
	SampleRate float64
	// SlowThreshold publishes an EvSlowRequest event with the full span
	// timeline for every sampled group at least this slow (0 disables).
	SlowThreshold time.Duration
	// TopK enables hot-key telemetry with a SpaceSaving sketch of this
	// per-shard capacity (0 disables).
	TopK int
}
