package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	lix "github.com/lix-go/lix"
)

func findKV(name string) *kvWorkload {
	for i := range kvWorkloads {
		if kvWorkloads[i].name == name {
			return &kvWorkloads[i]
		}
	}
	return nil
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    uint64
	seconds float64
	scale   int
	outDir  string
}

func (o options) window(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

// kvRun is the state of one run of a key-value workload.
type kvRun struct {
	w       *kvWorkload
	opt     options
	ks      *keyspace
	streams [][]op
	res     *result
	dirSeq  int
	// serverCPU is the CPU a child server pins itself to, or -1.
	serverCPU int
}

func runKV(w *kvWorkload, opt options, traced bool) (*result, error) {
	r := &kvRun{w: w, opt: opt, res: newResult(w.name, traced), serverCPU: -1}
	r.ks = newKeyspace(w, opt.seed, opt.scale)
	for id := 0; id < workers; id++ {
		r.streams = append(r.streams, genStream(w, r.ks, id, opt.seed, opt.scale))
	}
	r.res.infof("stream_sha %s", streamSHA(r.streams))
	r.res.infof("keys base=%d churn=%d preloaded=%d", len(r.ks.keys)/8*7, len(r.ks.keys)/8, r.ks.init.count())

	var err error
	switch {
	case w.wire:
		err = r.wireRun()
	case !traced:
		err = r.inprocEndToEnd()
	}
	if err == nil && traced {
		err = r.ladder()
	}
	return r.res, err
}

// freshDir returns a new, empty directory path under the output directory.
func (r *kvRun) freshDir() string {
	r.dirSeq++
	return filepath.Join(r.opt.outDir, fmt.Sprintf("data-%s-%d-%d", r.w.name, os.Getpid(), r.dirSeq))
}

func (r *kvRun) spec() childSpec {
	s := childSpec{Workload: r.w.name, Seed: r.opt.seed, Scale: r.opt.scale, CPU: r.serverCPU}
	if r.w.durable {
		s.Dir = r.freshDir()
	}
	return s
}

// setupReps is the number of timed set-ups: the frozen count, or one in a
// traced run (which reports no setup_s).
func (r *kvRun) setupReps() int {
	if r.res.traced {
		return 1
	}
	return r.w.setupReps
}

// startServer brings a child server up and proves it answers: set-up lasts
// from exec until the first checked reply, less the child's input generation.
func (r *kvRun) startServer() (*child, time.Duration, error) {
	t0 := time.Now()
	ch, err := startChild(r.spec())
	if err != nil {
		return nil, 0, err
	}
	c, err := dial(ch.ready.Addr)
	if err != nil {
		ch.discard()
		return nil, 0, err
	}
	defer c.close()
	probe := newWorker(r.ks, 0, r.streams[0], false)
	first := []op{{key: r.ks.keys[1], slot: 1, code: opGet}}
	if err = c.send(first); err == nil {
		err = c.recv(probe, first)
	}
	if err != nil || probe.wrong != 0 {
		ch.discard()
		return nil, 0, fmt.Errorf("first request failed: err=%v wrong=%d", err, probe.wrong)
	}
	return ch, time.Since(t0) - time.Duration(ch.ready.GenS*float64(time.Second)), nil
}

// session is one child server with the one connection and worker that load it.
type session struct {
	ch *child
	c  *client
	w  *worker
}

func (r *kvRun) openSession(ch *child) (*session, error) {
	c, err := dial(ch.ready.Addr)
	if err != nil {
		return nil, err
	}
	return &session{ch: ch, c: c, w: r.newWorkers(true)[0]}, nil
}

// closedLoop runs the connection's closed loop over window.
func (s *session) closedLoop(window time.Duration) (*slices, error) {
	sl := newSlices(time.Now(), window)
	return sl, s.c.closedLoop(s.w, sl)
}

// wireRun runs a wire workload against a child server process. The end-to-end
// run is the timed set-ups and one closed-loop window. The traced run has one
// set-up, a shorter closed loop for the server's counters and the paced open
// loop. A durable workload ends with a SIGKILL, a timed reopen and a
// sweep of every key.
func (r *kvRun) wireRun() error {
	res := r.res
	// This process on the first CPU, the server on the last (affinity.go).
	// Where the kernel refuses, the run goes on unpinned and says so.
	if all, cpus := allowedCPUs(); r.w.pin && len(cpus) >= 2 {
		if err := setAffinity(oneCPU(cpus[0])); err != nil {
			res.infof("not pinned: %v", err)
		} else {
			defer setAffinity(all) // best effort: nothing after the run depends on it
			r.serverCPU = cpus[len(cpus)-1]
		}
	}
	var (
		ch          *child
		setups, mem []float64
	)
	for i := 0; i < r.setupReps(); i++ {
		if ch != nil {
			ch.discard()
		}
		var (
			d   time.Duration
			err error
		)
		if ch, d, err = r.startServer(); err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		mem = append(mem, float64(ch.ready.RSSBytes)/float64(ch.ready.Records))
	}
	defer ch.discard()
	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d set-ups %.3v; child build %.3fs", len(setups), setups, ch.ready.BuildS)
	res.set("mem_bytes_per_key", median(mem))
	res.note("mem_bytes_per_key", "child VmRSS / %d records, median of the %d set-ups %.4v", ch.ready.Records, len(mem), mem)

	s, err := r.openSession(ch)
	if err != nil {
		return err
	}
	defer s.c.close()

	// Warm-up: the connection, server buffers and caches, outside any window.
	if _, err := s.closedLoop(r.opt.window(warmupShare)); err != nil {
		return err
	}

	share := 1.0
	if res.traced {
		share = tracedClosedShare
	}
	s0, err := ch.stats()
	if err != nil {
		return err
	}
	cpu0 := cpuMicros()
	closed, err := s.closedLoop(r.opt.window(share))
	if err != nil {
		return err
	}
	cpu1 := cpuMicros()
	s1, err := ch.stats()
	if err != nil {
		return err
	}
	closedOps := float64(closed.totalOps())
	serverCPU, loadgenCPU := float64(s1.CPUMicros-s0.CPUMicros)/closedOps, float64(cpu1-cpu0)/closedOps
	res.set("speed_vs_ref", closed.speedVsRef())
	res.note("speed_vs_ref", "median of %d slices of %v, closed loop, one connection, %d groups of %d in flight, %.0f ops", len(closed.ops), closed.width, inflightGroups, pipelineDepth, closedOps)
	res.set("serve.cpu_us_per_op", serverCPU)
	res.set("serve.groups_per_kop", 1000*float64(s1.Groups-s0.Groups)/float64(s1.Requests-s0.Requests))
	res.set("loadgen.cpu_us_per_op", loadgenCPU)
	res.infof("closed loop: %.0f ops/s, server cpu %.3f us/op, loadgen cpu %.3f us/op", closed.opsPerSec(), serverCPU, loadgenCPU)

	if res.traced {
		if err := r.pacedPhase(s); err != nil {
			return err
		}
	}
	res.attempted += s.w.ops
	res.wrong += s.w.wrong
	if !r.w.durable {
		// stop reaps the child; the deferred discard then only finds it gone.
		if err := ch.stop(); err != nil {
			return fmt.Errorf("child exit: %w", err)
		}
		return nil
	}

	s2, err := ch.stats()
	if err != nil {
		return err
	}
	requests := float64(s2.Requests - s0.Requests)
	res.set("store.fsyncs_per_kop", 1000*float64(s2.Fsyncs-s0.Fsyncs)/requests)
	res.set("store.checkpoints", float64(s2.Checkpoints-s0.Checkpoints))
	res.set("store.compactions", float64(s2.Compactions-s0.Compactions))
	res.infof("store: %d fsyncs, %d checkpoints, %d compactions over %.0f requests",
		s2.Fsyncs-s0.Fsyncs, s2.Checkpoints-s0.Checkpoints, s2.Compactions-s0.Compactions, requests)
	// The workload is here to put flushes and compaction beside the requests.
	// At reduced scale the windows are too short for that.
	if r.opt.scale == 1 && (s2.Checkpoints-s0.Checkpoints < minCheckpoints || s2.Compactions-s0.Compactions < minCompactions) {
		res.invalid("%d checkpoints and %d compactions inside the windows, the workload needs %d and %d",
			s2.Checkpoints-s0.Checkpoints, s2.Compactions-s0.Compactions, minCheckpoints, minCompactions)
	}

	// Every write above was acknowledged. Kill the server without Close and
	// reopen the directory cold.
	ch.kill()
	return r.reopenAndSweep(ch.spec.Dir, s.w.present)
}

// pacedPhase runs the open loop over the connection of s and reports it.
func (r *kvRun) pacedPhase(s *session) error {
	res := r.res
	interval := time.Duration(float64(time.Second) * pacedGroup / float64(r.w.pacedOpsPerSec))
	fromDue := newSlices(time.Now().Add(time.Millisecond), r.opt.window(pacedShare))
	fromSend := fromDue.fresh()
	cpu0 := cpuMicros()
	st, err := s.paced(fromDue, fromSend, interval)
	if err != nil {
		return err
	}
	cpu := float64(cpuMicros()-cpu0) / fromDue.width.Seconds() / float64(len(fromDue.ops)) / 1e6
	p50, n := fromDue.latQuantile(0.50)
	p99, _ := fromDue.latQuantile(0.99)
	send50, _ := fromSend.latQuantile(0.50)
	send99, _ := fromSend.latQuantile(0.99)
	res.set("loadgen.lat_p50_us", p50)
	res.set("loadgen.lat_p99_us", p99)
	res.set("loadgen.lat_send_p50_us", send50)
	res.set("loadgen.lat_send_p99_us", send99)
	res.set("loadgen.late_p99_us", quantile(st.late, 0.99))
	res.set("loadgen.sent_frac", float64(st.sent)/float64(st.due))
	res.set("loadgen.over_50ms_frac", float64(st.overTight)/float64(st.due*pacedGroup))
	res.infof("paced at %d ops/s in groups of %d, %d groups: from due time p50 %.1f p99 %.1f us; from send p50 %.1f p99 %.1f us; sender late p50 %.1f p99 %.1f max %.1f us; sent %d of %d groups in time, %d requests over %v; %.0f ops/s answered, loadgen %.2f cores",
		r.w.pacedOpsPerSec, pacedGroup, n, p50, p99, send50, send99, quantile(st.late, 0.5), quantile(st.late, 0.99), quantile(st.late, 1), st.sent, st.due, st.overTight, tightLimit, fromDue.opsPerSec(), cpu)
	if float64(st.sent) < 0.99*float64(st.due) {
		res.invalid("the load generator sent only %d of %d groups in time (sent_frac < 0.99)", st.sent, st.due)
	}
	return nil
}

// reopenAndSweep reopens a killed server's directory in this process, timed
// until the first checked Get, then checks every slot of the key universe
// against the acknowledged state.
func (r *kvRun) reopenAndSweep(dir string, want bitset) error {
	res := r.res
	disk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	live := 0
	for slot := range r.ks.keys {
		if want.get(uint32(slot)) {
			live++
		}
	}
	res.set("store.disk_bytes_per_key", float64(disk)/float64(live))
	res.set("store.dir_bytes_per_user_byte", float64(disk)/float64(16*live))

	t0 := time.Now()
	st, err := lix.NewStack(nil, lix.StackConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopen after kill: %w", err)
	}
	defer st.Close()
	v, ok := st.Get(r.ks.keys[1])
	reopen := time.Since(t0)
	if !ok || v != mix(r.ks.keys[1]) {
		res.wrong++
	}
	res.set("store.reopen_s", reopen.Seconds())
	info := st.Durable().RecoveryInfo()
	res.set("store.recovered_recs_per_s", float64(info.SnapshotRecs+info.WALRecs)/info.Elapsed.Seconds())
	res.infof("reopen after SIGKILL: %.3fs, %d run records + %d WAL records from %d runs, %d B on disk for %d live keys",
		reopen.Seconds(), info.SnapshotRecs, info.WALRecs, info.Runs, disk, live)

	var lost int64
	for slot, k := range r.ks.keys {
		v, ok := st.Get(k)
		if ok != want.get(uint32(slot)) || (ok && v != mix(k)) {
			lost++
		}
	}
	res.attempted += int64(len(r.ks.keys))
	res.wrong += lost
	res.infof("post-kill sweep: %d of %d slots disagree with the acknowledged state", lost, len(r.ks.keys))
	if st.Len() != live {
		res.infof("post-kill sweep: Len()=%d, expected %d", st.Len(), live)
	}
	return nil
}

// apply runs one operation through the four-method surface of *lix.Stack and
// checks the answer.
func (w *worker) apply(st *lix.Stack, o op) {
	switch o.code {
	case opGet:
		v, ok := st.Get(o.key)
		w.checkGet(o, v, ok)
	case opSet:
		st.Insert(o.key, mix(o.key))
		w.checkSet(o)
	case opDel:
		w.checkDel(o, st.Delete(o.key))
	default:
		sc := w.beginScan(o)
		st.Range(o.key, math.MaxUint64, sc.visit)
		sc.end()
	}
}

// inprocLoop calls st directly until sl's window ends, in batches that the
// reference implementation runs after the program.
func (w *worker) inprocLoop(st *lix.Stack, sl *slices) {
	end := sl.end()
	for t0 := time.Now(); t0.Before(end); {
		ops := w.take(inprocBatch)
		for _, o := range ops {
			w.apply(st, o)
		}
		t1 := time.Now()
		for _, o := range ops {
			w.refApply(o)
		}
		t2 := time.Now()
		sl.addOps(t2, len(ops))
		sl.addTimes(t2, t1.Sub(t0), t2.Sub(t1))
		t0 = t2
	}
}

// runWorkers runs one inprocLoop per worker over window and returns the merged
// slices.
func runWorkers(st *lix.Stack, ws []*worker, window time.Duration) *slices {
	all := newSlices(time.Now(), window)
	parts := make([]*slices, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		parts[i] = all.fresh()
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.inprocLoop(st, parts[i])
		}()
	}
	wg.Wait()
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

func (r *kvRun) newWorkers(solo bool) []*worker {
	n := workers
	if solo {
		n = 1
	}
	ws := make([]*worker, n)
	for id := range ws {
		ws[id] = newWorker(r.ks, id, r.streams[id], solo)
	}
	return ws
}

// inprocEndToEnd runs an in-process workload: timed set-ups (NewStack over
// the preload), then `workers` goroutines calling the stack for the window.
func (r *kvRun) inprocEndToEnd() error {
	res := r.res
	recs := r.ks.preload()
	var (
		st     *lix.Stack
		setups []float64
		heap   int64
	)
	for i := 0; i < r.setupReps(); i++ {
		st = nil
		before := liveHeap()
		t0 := time.Now()
		var err error
		st, err = lix.NewStack(recs, stackConfig(r.w, topRung, "", lix.NewMetrics(r.w.name)))
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		heap = liveHeap() - before
	}
	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d NewStack calls %.3v", len(setups), setups)
	res.set("mem_bytes_per_key", float64(heap)/float64(st.Len()))
	res.note("mem_bytes_per_key", "live heap %d B / %d records", heap, st.Len())

	ws := r.newWorkers(false)
	runWorkers(st, ws, r.opt.window(warmupShare)) // warm-up
	sl := runWorkers(st, ws, r.opt.window(1))
	res.set("speed_vs_ref", sl.speedVsRef())
	res.note("speed_vs_ref", "median of %d slices of %v, %d goroutines, %d ops", len(sl.ops), sl.width, workers, sl.totalOps())
	res.infof("%.0f ops/s of the program's own time", sl.opsPerSec())
	for _, w := range ws {
		res.attempted += w.ops
		res.wrong += w.wrong
	}
	return nil
}
