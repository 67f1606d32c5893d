package main

import "time"

// Every size, mix, rate and window share of the benchmark is a constant in
// this file. Nothing here is derived from a measurement at run time, so two
// commits always see the same load.

const (
	// workers is the number of caller goroutines of an in-process key-value
	// workload. The box has two cores. A wire workload has one connection,
	// driven by one goroutine: its server is the second busy thread.
	workers = 2
	// pipelineDepth is the number of requests the client writes at once, and
	// the server's ServeConfig.MaxGroup, so that every group the server
	// dispatches is one client write whatever the timing.
	pipelineDepth = 32
	// inflightGroups is the number of such groups one connection keeps in
	// flight in the closed loop. With one, each group waits for two process
	// wake-ups, which the hypervisor makes slow and uneven (270 to 640 k ops/s
	// from slice to slice); with eight the server always has work queued.
	inflightGroups = 8
	// wireRefEvery is how often the wire client runs the reference
	// implementation. On every group it took 0.38 of the client's 0.88 us per
	// request and made the client, not the server, the limit; on every fourth
	// it ran on cold caches and no longer followed the server's speed.
	wireRefEvery = 2
	// pacedGroup is the number of requests sent together in the open loop.
	pacedGroup = 8
	// scanLimit is the record count of every SCAN / Range.
	scanLimit = 100
	// warmupShare is the share of the window run before it, unmeasured.
	warmupShare = 0.1
	// tracedClosedShare and pacedShare are the shares of the window that the
	// traced run of a wire workload spends in the closed loop and in the paced
	// open loop. The end-to-end run spends the whole window in the closed loop.
	tracedClosedShare = 0.3
	pacedShare        = 0.4
	// sliceWidth is the length of the slices a window is cut into.
	sliceWidth = 250 * time.Millisecond
	// inprocBatch is the number of calls an in-process worker makes before
	// the reference implementation runs the same operations.
	inprocBatch = 1024
	// tightLimit is the latency limit of the open loop, from a request's due
	// time. The sandbox pauses a virtual CPU for about 50 ms once a minute, so
	// a request over it is counted (loadgen.over_50ms_frac), not failed.
	tightLimit = 50 * time.Millisecond
	// minCheckpoints and minCompactions are what the durable workload must
	// see finish inside its windows to measure what it is there for.
	minCheckpoints = 5
	minCompactions = 1
	// pacedSpin is how long before a group's due time the paced sender stops
	// sleeping and polls the clock (half an interval, if that is shorter): a
	// kernel sleep of a few milliseconds returns 0.1 to 0.3 ms late in this
	// sandbox, one of tens of microseconds 20 us late.
	pacedSpin = 500 * time.Microsecond
	// prSetTimerSlack is prctl(2)'s PR_SET_TIMERSLACK.
	prSetTimerSlack = 29
	// streamLen is the number of pre-generated operations per worker; a
	// worker that runs past the end starts again from the front.
	streamLen = 1 << 20
	// spanBatch is the number of operations one trace span covers.
	spanBatch = 1024
)

// kvWorkload freezes one key-value workload.
type kvWorkload struct {
	name string
	wire bool // child server over loopback TCP; false = direct calls
	// pin puts the client process on the first allowed CPU and the server
	// process on the last (affinity.go). Not for a server with background
	// work of its own: wire-durable's flushes and compactions then share the
	// request handler's core, and it ran at a third of its rate.
	pin bool
	// Stack under test.
	kind            string
	shards          int
	durable         bool // Dir + FsyncNever + EngineLSM
	checkpointEvery int
	// baseKeys is the number of always-present keys; one churn slot (insert
	// and delete target) is added per seven base keys.
	baseKeys int
	// Operation mix in percent; the four sum to 100.
	getPct, setPct, delPct, scanPct int
	// zipf selects Zipf(0.99) key choice over the base keys, else uniform.
	zipf bool
	// newFrac is the share of SETs that go to the worker's own churn slots
	// ("new keys"); the rest upsert base keys. churnGetFrac is the share of
	// GETs aimed at churn slots, which is where misses come from. churnInit
	// is the share of churn slots preloaded, chosen near the mix's
	// stationary point so the population does not drift during a run.
	newFrac, churnGetFrac, churnInit float64
	// pacedOpsPerSec is the open-loop rate, frozen at about 15 % of the
	// closed-loop rate measured when the benchmark was defined: the sender
	// polls the clock on one of the two cores, and at 30 % the receiver and
	// the server no longer fit on the other (the sender itself then ran up to
	// 45 ms late).
	pacedOpsPerSec int
	// ladderOps is the number of stream operations replayed per ladder rung.
	ladderOps int
	// setupReps is how many times set-up is repeated; setup_s is the median.
	setupReps int
}

var kvWorkloads = []kvWorkload{
	{
		name: "wire-read", wire: true, pin: true,
		kind: "alex", shards: 4,
		baseKeys: 2_000_000,
		getPct:   94, setPct: 5, delPct: 0, scanPct: 1,
		zipf:    true,
		newFrac: 0.5, churnGetFrac: 0.05, churnInit: 0.5,
		pacedOpsPerSec: 150_000,
		ladderOps:      512 * 1024,
		setupReps:      9,
	},
	{
		name: "wire-durable", wire: true,
		kind: "btree", shards: 4, durable: true, checkpointEvery: 1 << 16,
		baseKeys: 500_000,
		getPct:   50, setPct: 40, delPct: 10, scanPct: 0,
		zipf:    false,
		newFrac: 0.5, churnGetFrac: 0.2, churnInit: 0.67,
		pacedOpsPerSec: 60_000,
		ladderOps:      256 * 1024,
		setupReps:      2,
	},
	{
		name: "inproc-mixed", wire: false,
		kind: "alex", shards: 4,
		baseKeys: 2_000_000,
		getPct:   80, setPct: 8, delPct: 7, scanPct: 5,
		zipf:    true,
		newFrac: 0.5, churnGetFrac: 0.16, churnInit: 0.36,
		ladderOps: 1024 * 1024,
		setupReps: 25,
	},
}

// sweepKinds is the time-versus-bytes kind sweep run on the inproc-mixed
// keyset. The first three are static (lix.NewPGM/NewRMI/NewRadixSpline), the
// rest are built through lix.NewStack{Kind}.
var sweepKinds = []string{"btree", "pgm", "rmi", "radixspline", "alex", "lipp", "pgm-dynamic", "fiting"}

const sweepGets = 500_000

// Spatial workload.
const (
	spatialName   = "spatial-query"
	spatialPoints = 500_000
	spatialExtent = 1 << 20 // coordinates lie in [0, spatialExtent)
	// The point set is a mixture of Gaussian clusters over a thin uniform
	// background. The mixture itself (centres, widths, weights) is drawn from
	// this fixed seed, so every --seed samples the same distribution.
	spatialClusters    = 64
	spatialMixtureSeed = 0x5eed0c1a57e25
	spatialBackground  = 0.10
	// spatialPool is the number of distinct rectangles per selectivity class
	// (and three quarters of it point lookups); the timed loop cycles through
	// them in the fixed interleaving spatialPattern: 20 % lookups, 80 % split
	// evenly over the three selectivities.
	spatialPool      = 2048
	spatialMissFrac  = 0.10 // share of point lookups that ask for an absent point
	spatialKNN       = 10
	spatialSetupReps = 2
	// spatialRounds is the number of turns each kind gets in the window.
	spatialRounds = 40
	// spatialBruteEvery replays one in this many pool queries against brute
	// force (1 % of the queries asked for by the issue, rounded up).
	spatialBruteEvery = 64
)

var (
	spatialKinds = []string{"rtree", "zm", "mlindex", "flood", "lisa"}
	// spatialSel are the target result fractions of the three rectangle
	// classes (0.001 %, 0.01 %, 0.1 % of the points).
	spatialSel = []float64{0.00001, 0.0001, 0.001}
)

// scaled divides a size by the -scale divisor, keeping at least min.
func scaled(n, scale, min int) int {
	n /= scale
	if n < min {
		n = min
	}
	return n
}
