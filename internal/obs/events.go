package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// EventType classifies the structural maintenance events a learned index
// emits. The set mirrors the maintenance vocabulary of the surveyed
// systems: model retrains (XIndex, LISA), node splits and other structure
// modification operations (ALEX, LIPP, B+-tree), delta-buffer flushes and
// merges (FITing-tree, dynamic PGM), LSM compactions (Bourbon), RCU root
// swaps (XIndex), drift-detector trips (§6.3 retraining triggers), the
// serving lifecycle (durable checkpoints/flushes/recovery, front-end
// drains), and buffer-pool page traffic (CLOCK evictions, dirty
// write-backs) from the paged storage tier.
type EventType uint8

// Event types.
const (
	EvRetrain EventType = iota
	EvNodeSplit
	EvBufferFlush
	EvBufferMerge
	EvCompaction
	EvRCUSwap
	EvDriftTrip
	EvCheckpoint
	EvWALFlush
	EvRecovery
	EvDrain
	EvSlowRequest
	EvPageEvict
	EvPageFlush
	numEventTypes
)

// String returns the stable snake_case name used in snapshots and
// Prometheus labels.
func (t EventType) String() string {
	switch t {
	case EvRetrain:
		return "retrain"
	case EvNodeSplit:
		return "node_split"
	case EvBufferFlush:
		return "buffer_flush"
	case EvBufferMerge:
		return "buffer_merge"
	case EvCompaction:
		return "compaction"
	case EvRCUSwap:
		return "rcu_swap"
	case EvDriftTrip:
		return "drift_trip"
	case EvCheckpoint:
		return "checkpoint"
	case EvWALFlush:
		return "wal_flush"
	case EvRecovery:
		return "recovery"
	case EvDrain:
		return "drain"
	case EvSlowRequest:
		return "slow_request"
	case EvPageEvict:
		return "page_evict"
	case EvPageFlush:
		return "page_flush"
	default:
		return fmt.Sprintf("event_%d", uint8(t))
	}
}

// EventTypes lists all event types in declaration order.
func EventTypes() []EventType {
	out := make([]EventType, numEventTypes)
	for i := range out {
		out[i] = EventType(i)
	}
	return out
}

// Event is one structural maintenance event.
type Event struct {
	// Seq is a per-log sequence number assigned at publish time.
	Seq uint64 `json:"seq"`
	// Type classifies the event.
	Type EventType `json:"-"`
	// TypeName is Type.String(), duplicated for JSON consumers.
	TypeName string `json:"type"`
	// Source names the emitting index or component.
	Source string `json:"source,omitempty"`
	// Detail is an event-specific free-form qualifier ("split", "expand",
	// "slot=2", ...).
	Detail string `json:"detail,omitempty"`
	// N is an event-specific magnitude: records merged, node size, probes.
	N int `json:"n,omitempty"`
}

func (e Event) String() string {
	s := e.Type.String()
	if e.Source != "" {
		s = e.Source + "/" + s
	}
	if e.Detail != "" {
		s += "(" + e.Detail + ")"
	}
	if e.N != 0 {
		s += fmt.Sprintf(" n=%d", e.N)
	}
	return s
}

// DefaultEventRing is the event ring capacity when none is configured.
const DefaultEventRing = 256

// EventLog is a bounded typed event stream: it keeps per-type totals
// (always) and the most recent events in a fixed-size ring. The zero value
// is ready to use with the default ring capacity. Publish is safe for
// concurrent use.
type EventLog struct {
	mu   sync.Mutex
	ring []Event
	next uint64 // total events published == next sequence number

	counts  [numEventTypes]atomic.Uint64
	handler atomic.Pointer[handlerBox]
}

type handlerBox struct{ fn func(Event) }

// Publish appends e to the log, assigning its sequence number. The
// registered handler, if any, runs synchronously on the publishing
// goroutine after the event is recorded.
func (l *EventLog) Publish(e Event) {
	if int(e.Type) < int(numEventTypes) {
		l.counts[e.Type].Add(1)
	}
	e.TypeName = e.Type.String()
	l.mu.Lock()
	if l.ring == nil {
		l.ring = make([]Event, DefaultEventRing)
	}
	e.Seq = l.next
	l.ring[l.next%uint64(len(l.ring))] = e
	l.next++
	l.mu.Unlock()
	if h := l.handler.Load(); h != nil {
		h.fn(e)
	}
}

// OnEvent registers fn to run synchronously after every publish (nil
// unregisters). One handler is supported; the latest registration wins.
func (l *EventLog) OnEvent(fn func(Event)) {
	if fn == nil {
		l.handler.Store(nil)
		return
	}
	l.handler.Store(&handlerBox{fn: fn})
}

// Count returns the number of events of type t published so far.
func (l *EventLog) Count(t EventType) uint64 {
	if int(t) >= int(numEventTypes) {
		return 0
	}
	return l.counts[t].Load()
}

// Total returns the number of events published so far.
func (l *EventLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.next
}

// Recent returns up to n of the most recent events, oldest first.
func (l *EventLog) Recent(n int) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.ring == nil || n <= 0 {
		return nil
	}
	have := l.next
	if have > uint64(len(l.ring)) {
		have = uint64(len(l.ring))
	}
	if uint64(n) > have {
		n = int(have)
	}
	out := make([]Event, 0, n)
	for i := l.next - uint64(n); i < l.next; i++ {
		out = append(out, l.ring[i%uint64(len(l.ring))])
	}
	return out
}

// ---------------------------------------------------------------------------
// Hot-path hook
// ---------------------------------------------------------------------------

// Recorder is the instrumentation surface an index attaches to: structural
// events plus per-search measurements. *Metrics implements it.
type Recorder interface {
	// Event receives one structural event (Seq/Source may be blank; the
	// implementation fills them).
	Event(e Event)
	// RecordSearch receives one last-mile search: the number of probes
	// (key comparisons or node hops) and the width of the error window
	// searched (0 when the structure is search-free, e.g. LIPP).
	RecordSearch(probes, window int)
}

// PageRecorder is the optional Recorder extension buffer pools feed:
// per-access hit/miss counts, too frequent for the event stream. *Metrics
// implements it.
type PageRecorder interface {
	// RecordPageAccess receives one pool lookup: hit (served from a
	// resident frame) or miss (read from disk).
	RecordPageAccess(hit bool)
}

// LockRecorder is the optional Recorder extension the shard layer's locks
// feed, from their slow paths only. *Metrics implements it.
type LockRecorder interface {
	// RecordLockWait receives one step of a contended acquire of the read
	// or the write side: blocked false when it first had to poll, blocked
	// true when it then used up its polling budget and slept.
	RecordLockWait(write, blocked bool)
}

type recorderBox struct{ r Recorder }

// Hook is the embeddable, concurrency-safe recorder holder used by index
// implementations. Its disabled path — no recorder attached — costs a
// single atomic pointer load and branch, which is what keeps
// instrumentation affordable inside Get/Insert hot loops. The zero value
// is ready to use (disabled).
type Hook struct {
	p atomic.Pointer[recorderBox]
}

// SetRecorder attaches r (nil detaches).
func (h *Hook) SetRecorder(r Recorder) {
	if r == nil {
		h.p.Store(nil)
		return
	}
	h.p.Store(&recorderBox{r: r})
}

// Recorder returns the attached recorder, or nil when disabled.
func (h *Hook) Recorder() Recorder {
	if b := h.p.Load(); b != nil {
		return b.r
	}
	return nil
}

// Enabled reports whether a recorder is attached.
func (h *Hook) Enabled() bool { return h.p.Load() != nil }

// Emit publishes a structural event to the attached recorder, if any.
func (h *Hook) Emit(t EventType, n int, detail string) {
	if b := h.p.Load(); b != nil {
		b.r.Event(Event{Type: t, N: n, Detail: detail})
	}
}
