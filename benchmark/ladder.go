package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	lix "github.com/lix-go/lix"
	"github.com/lix-go/lix/internal/wire"
)

// The layer ladder replays the first ladderOps operations of worker 0's
// stream, single-threaded, against stacks built with one more layer each:
//
//	rung 0 {Kind} -> rung 1 +Shards -> rung 2 +Dir,Fsync (durable workloads)
//	-> rung 3 +Metrics -> rung 4 child server over TCP, one connection
//
// A layer's self time is its rung minus the rung below. Everything is timed
// from outside, around calls into public entry points.

var classNames = [4]string{"get", "insert", "delete", "scan"}

// rung is what one ladder rung measured.
type rung struct {
	name      string
	buildS    float64
	heapBytes int64
	records   int
	ops       int64
	wallNS    int64    // summed batch time
	cpuNS     int64    // this process's CPU over the replay
	classNS   [4]int64 // time per operation class
	classN    [4]int64
	scanRecs  int64
}

func (g *rung) nsPerOp() float64 { return float64(g.wallNS) / float64(g.ops) }

func (g *rung) classPerOp(code uint8) float64 {
	if g.classN[code] == 0 {
		return 0
	}
	return float64(g.classNS[code]) / float64(g.classN[code])
}

func (g *rung) writeNS() (ns, n int64) {
	return g.classNS[opSet] + g.classNS[opDel], g.classN[opSet] + g.classN[opDel]
}

// replay runs n stream operations against st in batches of spanBatch. With a
// tracer, each batch is one span and runs its operations class by class (all
// GETs, then SETs, DELs, SCANs), each class a child span, which gives exact
// per-class times at four clock reads per batch. Without one it runs the
// operations in stream order and times only the whole.
func replay(tr *tracer, parent int, st *lix.Stack, w *worker, n int, g *rung) {
	cpu0 := cpuMicros()
	for b := 0; b < n; b += spanBatch {
		ops := w.take(spanBatch)
		t0 := time.Now()
		if tr == nil {
			for _, o := range ops {
				w.apply(st, o)
			}
		} else {
			id := tr.begin("batch", parent, b/spanBatch)
			for code := opGet; code <= opScan; code++ {
				c0 := time.Now()
				cnt, recs0 := int64(0), w.scanned
				for _, o := range ops {
					if o.code == code {
						w.apply(st, o)
						cnt++
					}
				}
				d := time.Since(c0)
				g.classNS[code] += d.Nanoseconds()
				g.classN[code] += cnt
				g.scanRecs += w.scanned - recs0
				tr.add(classNames[code], id, b/spanBatch, c0, d)
			}
			tr.end(id)
		}
		g.wallNS += time.Since(t0).Nanoseconds()
		g.ops += int64(len(ops))
	}
	g.cpuNS = (cpuMicros() - cpu0) * 1000
}

// replayWire is replay over one connection in stream order, pipelineDepth
// requests at a time; each spanBatch operations are one span.
func replayWire(tr *tracer, parent int, c *client, w *worker, n int, g *rung) error {
	cpu0 := cpuMicros()
	for b := 0; b < n; b += spanBatch {
		id := tr.begin("batch", parent, b/spanBatch)
		t0 := time.Now()
		for i := 0; i < spanBatch; i += pipelineDepth {
			ops := w.take(pipelineDepth)
			if err := c.send(ops); err != nil {
				return err
			}
			if err := c.recv(w, ops); err != nil {
				return err
			}
		}
		g.wallNS += time.Since(t0).Nanoseconds()
		g.ops += spanBatch
		tr.end(id)
	}
	g.cpuNS = (cpuMicros() - cpu0) * 1000
	return nil
}

// ladder runs the traced replay and fills in the per-layer metrics.
func (r *kvRun) ladder() error {
	res, w := r.res, r.w
	tr := newTracer()
	root := tr.begin("ladder:"+w.name, 0, 0)
	n := scaled(w.ladderOps, r.opt.scale, 2*spanBatch)
	recs := r.ks.preload()
	solo := func() *worker { return r.newWorkers(true)[0] }

	var rungs []*rung
	var topUntraced rung
	for level := 0; level <= topRung; level++ {
		if level == 2 && !w.durable {
			continue
		}
		g := &rung{name: fmt.Sprintf("rung%d", level)}
		dir := ""
		if level >= 2 && w.durable {
			dir = r.freshDir()
			defer os.RemoveAll(dir)
		}
		id := tr.begin(g.name, root, 0)
		before := liveHeap()
		t0 := time.Now()
		st, err := lix.NewStack(recs, stackConfig(w, level, dir, lix.NewMetrics(g.name)))
		if err != nil {
			return err
		}
		g.buildS = time.Since(t0).Seconds()
		g.heapBytes = liveHeap() - before
		g.records = st.Len()
		wk := solo()
		replay(tr, id, st, wk, n, g)
		tr.end(id)
		if level == topRung {
			// The same number of operations again without spans: the gap
			// between the two passes is what tracing costs.
			replay(nil, 0, st, wk, n, &topUntraced)
		}
		res.attempted += wk.ops
		res.wrong += wk.wrong
		if err := st.Close(); err != nil {
			return err
		}
		rungs = append(rungs, g)
	}
	r0, top := rungs[0], rungs[len(rungs)-1]
	below := rungs[len(rungs)-2]

	res.set("backend.get_ns", r0.classPerOp(opGet))
	res.set("backend.insert_ns", r0.classPerOp(opSet))
	res.set("backend.delete_ns", r0.classPerOp(opDel))
	if r0.scanRecs > 0 {
		res.set("backend.scan_ns_per_rec", float64(r0.classNS[opScan])/float64(r0.scanRecs))
	}
	res.set("backend.bytes_per_key", float64(r0.heapBytes)/float64(r0.records))
	res.set("backend.build_s", r0.buildS)
	res.set("shard.self_ns_per_op", rungs[1].nsPerOp()-r0.nsPerOp())
	if w.durable {
		ns2, n2 := rungs[2].writeNS()
		ns1, n1 := rungs[1].writeNS()
		res.set("store.self_ns_per_write", float64(ns2)/float64(n2)-float64(ns1)/float64(n1))
	}
	res.set("obs.self_ns_per_op", top.nsPerOp()-below.nsPerOp())
	for i, g := range rungs {
		self := g.nsPerOp()
		if i > 0 {
			self -= rungs[i-1].nsPerOp()
		}
		res.infof("%s: %.1f ns/op (self %.1f), get %.1f insert %.1f delete %.1f ns, build %.3fs, %d ops",
			g.name, g.nsPerOp(), self, g.classPerOp(opGet), g.classPerOp(opSet), g.classPerOp(opDel), g.buildS, g.ops)
	}

	if !w.wire {
		res.set("trace.overhead_frac", 1-topUntraced.nsPerOp()/top.nsPerOp())
		// In process there is nothing between the caller and the stack, so
		// what is left is the batch time its class spans do not cover.
		var classes int64
		for _, ns := range top.classNS {
			classes += ns
		}
		res.set("trace.unexplained_frac", 1-float64(classes)/float64(top.wallNS))
		if err := r.kindSweep(tr, root, recs); err != nil {
			return err
		}
		if err := r.shardModes(tr, root, recs); err != nil {
			return err
		}
	} else if err := r.wireRung(tr, root, int(top.ops), top); err != nil {
		return err
	}
	tr.end(root)
	path, err := tr.write(r.opt.outDir, w.name)
	if err != nil {
		return err
	}
	res.infof("trace %s (%d spans)", path, len(tr.spans))
	return nil
}

// wireRung is rung 4: a child server with the top in-process configuration,
// one connection, the same operations. It also times the frame codec on the
// workload's own message mix and reconciles the rungs.
func (r *kvRun) wireRung(tr *tracer, root, n int, top *rung) error {
	res := r.res
	ch, _, err := r.startServer()
	if err != nil {
		return err
	}
	defer ch.discard()
	c, err := dial(ch.ready.Addr)
	if err != nil {
		return err
	}
	defer c.close()

	wk := r.newWorkers(true)[0]
	var traced, untraced rung
	id := tr.begin("rung4", root, 0)
	s0, err := ch.stats()
	if err != nil {
		return err
	}
	if err := replayWire(tr, id, c, wk, n, &traced); err != nil {
		return err
	}
	s1, err := ch.stats()
	if err != nil {
		return err
	}
	tr.end(id)
	if err := replayWire(nil, 0, c, wk, n, &untraced); err != nil {
		return err
	}
	res.attempted += wk.ops
	res.wrong += wk.wrong

	cd := codecCost(wk.stream[:n])
	res.set("wire.encode_ns_per_msg", (cd.encReq+cd.encRep)/2)
	res.set("wire.decode_ns_per_msg", (cd.decReq+cd.decRep)/2)
	res.set("wire.decode_allocs_per_msg", cd.decAllocs)
	res.set("wire.bytes_per_op", cd.bytesPerOp)

	// Reconcile one connection's per-operation wall time with the parts
	// measured independently of it: the in-process rungs, the codec, and
	// the CPU either process spent beyond those.
	serverCPU := float64(s1.CPUMicros-s0.CPUMicros) * 1000 / float64(traced.ops)
	inprocCPU := float64(top.cpuNS) / float64(top.ops)
	serveSelf := serverCPU - inprocCPU - (cd.decReq + cd.encRep)
	loadgenSelf := float64(traced.cpuNS)/float64(traced.ops) - (cd.encReq + cd.decRep)
	codec := cd.encReq + cd.decReq + cd.encRep + cd.decRep
	covered := top.nsPerOp() + codec + serveSelf + loadgenSelf
	res.set("serve.self_ns_per_op", serveSelf)
	res.set("trace.overhead_frac", 1-untraced.nsPerOp()/traced.nsPerOp())
	res.set("trace.unexplained_frac", 1-covered/traced.nsPerOp())
	res.infof("rung4: %.1f ns/op over one connection = in-process %.1f + codec %.1f + serve %.1f + loadgen %.1f + unexplained %.1f",
		traced.nsPerOp(), top.nsPerOp(), codec, serveSelf, loadgenSelf, traced.nsPerOp()-covered)
	// A durable workload is not expected to reconcile: the replay pays one
	// fsync per write, the server commits a pipelined run of writes as one.
	if u := 1 - covered/traced.nsPerOp(); u > 0.2 && !r.w.durable {
		res.infof("WARNING: %.0f%% of the single-connection time is not covered by the layer self times", 100*u)
	}
	return nil
}

// codec holds the frame codec's cost on one message mix, in ns per message.
type codec struct {
	encReq, decReq, encRep, decRep float64
	decAllocs                      float64 // heap allocations per decoded message
	bytesPerOp                     float64 // request + reply bytes on the wire
}

// codecCost times wire.AppendFrame and wire.Decode over the requests of ops
// and over replies of the shape the server sends for them.
func codecCost(ops []op) codec {
	scanRecs := make([]lix.KV, scanLimit)
	reqs := make([]wire.Msg, len(ops))
	reps := make([]wire.Msg, len(ops))
	for i, o := range ops {
		reqs[i] = request(o)
		switch o.code {
		case opGet:
			reps[i] = wire.Msg{Op: wire.RValue, Val: mix(o.key)}
		case opSet:
			reps[i] = wire.Msg{Op: wire.ROK}
		case opDel:
			reps[i] = wire.Msg{Op: wire.RBool, Ok: true}
		default:
			reps[i] = wire.Msg{Op: wire.RKVs, Recs: scanRecs}
		}
	}
	var cd codec
	side := func(msgs []wire.Msg) (enc, dec, allocs float64, bytes int) {
		var buf []byte
		offs := make([]int, 0, len(msgs)+1)
		t0 := time.Now()
		for i := range msgs {
			offs = append(offs, len(buf))
			buf, _ = wire.AppendFrame(buf, &msgs[i], 0)
		}
		enc = float64(time.Since(t0).Nanoseconds()) / float64(len(msgs))
		offs = append(offs, len(buf))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 = time.Now()
		for i := range msgs {
			if _, err := wire.Decode(buf[offs[i]+wire.HeaderLen : offs[i+1]]); err != nil {
				panic(err) // the benchmark encoded this frame itself
			}
		}
		dec = float64(time.Since(t0).Nanoseconds()) / float64(len(msgs))
		runtime.ReadMemStats(&ms1)
		return enc, dec, float64(ms1.Mallocs-ms0.Mallocs) / float64(len(msgs)), len(buf)
	}
	var reqBytes, repBytes int
	var reqAllocs, repAllocs float64
	cd.encReq, cd.decReq, reqAllocs, reqBytes = side(reqs)
	cd.encRep, cd.decRep, repAllocs, repBytes = side(reps)
	cd.decAllocs = (reqAllocs + repAllocs) / 2
	cd.bytesPerOp = float64(reqBytes+repBytes) / float64(len(ops))
	return cd
}

// kindSweep builds each sweep kind over the workload's preload and times
// point lookups on it: the time-versus-bytes table of the 1-D kinds.
func (r *kvRun) kindSweep(tr *tracer, root int, recs []lix.KV) error {
	gets := scaled(sweepGets, r.opt.scale, spanBatch)
	probe := newRNG(mix(r.opt.seed) ^ 0x7377656570) // "sweep"
	keys := make([]uint64, gets)
	for i := range keys {
		keys[i] = recs[probe.intn(len(recs))].Key
	}
	for _, kind := range sweepKinds {
		id := tr.begin("sweep:"+kind, root, 0)
		before := liveHeap()
		t0 := time.Now()
		var ix lix.Index
		var err error
		switch kind {
		case "pgm":
			ix, err = lix.NewPGM(recs, 0)
		case "rmi":
			ix, err = lix.NewRMI(recs, lix.RMIConfig{})
		case "radixspline":
			ix, err = lix.NewRadixSpline(recs, 0, 0)
		default:
			ix, err = lix.NewStack(recs, lix.StackConfig{Kind: kind})
		}
		if err != nil {
			return fmt.Errorf("sweep %s: %w", kind, err)
		}
		build := time.Since(t0)
		heap := liveHeap() - before
		t0 = time.Now()
		for _, k := range keys {
			v, ok := ix.Get(k)
			r.res.attempted++
			if !ok || v != mix(k) {
				r.res.wrong++
			}
		}
		get := time.Since(t0)
		tr.add("gets", id, 0, t0, get)
		tr.end(id)
		r.res.set("backend."+kind+".get_ns", float64(get.Nanoseconds())/float64(gets))
		r.res.set("backend."+kind+".bytes_per_key", float64(heap)/float64(len(recs)))
		r.res.set("backend."+kind+".build_s", build.Seconds())
		runtime.KeepAlive(ix)
	}
	return nil
}

// shardModes measures the shard layer alone (rung 1): one goroutine against
// two, and reader-writer locks against RCU snapshots, on the workload's
// streams. Each takes a fifth of the run's window.
func (r *kvRun) shardModes(tr *tracer, root int, recs []lix.KV) error {
	rate := func(name string, cfg lix.StackConfig, solo bool) (float64, error) {
		st, err := lix.NewStack(recs, cfg)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		ws := r.newWorkers(solo)
		id := tr.begin(name, root, 0)
		sl := runWorkers(st, ws, r.opt.window(0.2))
		tr.end(id)
		for _, w := range ws {
			r.res.attempted += w.ops
			r.res.wrong += w.wrong
		}
		return sl.opsPerSec(), nil
	}
	rw := stackConfig(r.w, 1, "", nil)
	rcu := rw
	rcu.Mode, rcu.Snapshot = lix.ShardRCU, "pgm"
	one, err := rate("shard:rw-1t", rw, true)
	if err != nil {
		return err
	}
	two, err := rate("shard:rw-2t", rw, false)
	if err != nil {
		return err
	}
	rcu2, err := rate("shard:rcu-2t", rcu, false)
	if err != nil {
		return err
	}
	r.res.set("shard.scale_2t", two/one)
	r.res.set("shard.rw_ops_per_s", two)
	r.res.set("shard.rcu_ops_per_s", rcu2)
	return nil
}
