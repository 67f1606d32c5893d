package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	lix "github.com/lix-go/lix"
)

// childEnv carries a childSpec to a re-executed copy of this binary. An
// environment variable (not a flag) selects the server role so that the smoke
// test's binary can play the child too.
const childEnv = "LIX_BENCHMARK_CHILD"

// childSpec tells the child server what to serve. The child regenerates the
// preload from the seed with the same generator the parent uses.
type childSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Scale    int    `json:"scale"`
	Dir      string `json:"dir,omitempty"` // durable directory, created fresh
	CPU      int    `json:"cpu"`           // the CPU the server runs on, or -1
}

// childReady is the child's first output line.
type childReady struct {
	Addr     string  `json:"addr"`
	GenS     float64 `json:"gen_s"`   // input generation, excluded from set-up
	BuildS   float64 `json:"build_s"` // NewStack + NewServer + Start
	Records  int     `json:"records"`
	RSSBytes int64   `json:"rss_bytes"` // VmRSS after preload and a forced GC
}

// childStats answers the "stats" command.
type childStats struct {
	CPUMicros   int64  `json:"cpu_us"` // utime + stime so far
	Requests    uint64 `json:"requests"`
	Groups      uint64 `json:"groups"`
	Fsyncs      uint64 `json:"fsyncs"`
	Checkpoints uint64 `json:"checkpoints"`
	Compactions uint64 `json:"compactions"`
}

func cpuMicros() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
}

func rssBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10
		}
	}
	return 0
}

// stackConfig returns the configuration of ladder rung `rung` for w. Each rung
// adds one layer: 0 backend, 1 +shard, 2 +store (durable workloads), 3 +obs.
const topRung = 3

func stackConfig(w *kvWorkload, rung int, dir string, m *lix.Metrics) lix.StackConfig {
	cfg := lix.StackConfig{Kind: w.kind}
	if rung >= 1 {
		cfg.Shards = w.shards
	}
	if rung >= 2 && w.durable {
		cfg.Dir = dir
		// Every append is written to the file before its request is
		// answered, so a killed process loses nothing; forcing the sandbox's
		// disk on every group would make it the thing measured.
		cfg.Fsync = lix.FsyncNever
		cfg.StorageEngine = lix.EngineLSM
		cfg.CheckpointEvery = w.checkpointEvery
	}
	if rung >= 3 {
		cfg.Metrics = m
	}
	return cfg
}

// childMain is the server role: it builds the workload's stack through the
// public API, serves it on a loopback port, answers "stats" lines on stdin and
// shuts down when stdin closes (which also happens if the parent dies).
func childMain(specJSON string) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(specJSON), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	w := findKV(spec.Workload)
	if w == nil {
		return fmt.Errorf("child: unknown workload %q", spec.Workload)
	}
	if spec.CPU >= 0 {
		if err := setAffinity(oneCPU(spec.CPU)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark child: not pinned:", err)
		}
	}
	t0 := time.Now()
	recs := newKeyspace(w, spec.Seed, spec.Scale).preload()
	gen := time.Since(t0)

	t1 := time.Now()
	m := lix.NewMetrics(w.name)
	st, err := lix.NewStack(recs, stackConfig(w, topRung, spec.Dir, m))
	if err != nil {
		return err
	}
	srv := lix.NewServer(st, lix.ServeConfig{Addr: "127.0.0.1:0", Metrics: m, CloseStore: true, MaxGroup: pipelineDepth})
	if err := srv.Start(); err != nil {
		return err
	}
	build := time.Since(t1)

	ready := childReady{Addr: srv.Addr().String(), GenS: gen.Seconds(), BuildS: build.Seconds(), Records: st.Len()}
	recs = nil
	// Twice: the second pass returns what the first one's sweep freed, which
	// narrows the resident size's run-to-run range from 7 % to 2 %.
	debug.FreeOSMemory()
	debug.FreeOSMemory()
	ready.RSSBytes = rssBytes()
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(ready); err != nil {
		return err
	}

	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() != "stats" {
			continue
		}
		snap := m.Snapshot()
		if err := out.Encode(childStats{
			CPUMicros:   cpuMicros(),
			Requests:    snap.Counters["requests"],
			Groups:      snap.Counters["groups"],
			Fsyncs:      snap.Histograms["fsync_ns"].Count,
			Checkpoints: snap.Events["checkpoint"],
			Compactions: snap.Events["compaction"],
		}); err != nil {
			return err
		}
	}
	return srv.Shutdown()
}

// child is a running server process.
type child struct {
	spec  childSpec
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	ready childReady
}

// live holds every child not yet reaped, so a failing run can kill them all.
var (
	liveMu sync.Mutex
	live   = map[*child]struct{}{}
)

func killAllChildren() {
	liveMu.Lock()
	cs := make([]*child, 0, len(live))
	for c := range live {
		cs = append(cs, c)
	}
	liveMu.Unlock()
	for _, c := range cs {
		c.kill()
	}
}

func startChild(spec childSpec) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	js, _ := json.Marshal(spec)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(js))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{spec: spec, cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	liveMu.Lock()
	live[c] = struct{}{}
	liveMu.Unlock()
	if err := c.readJSON(&c.ready); err != nil {
		c.kill()
		return nil, fmt.Errorf("child did not come up: %w", err)
	}
	return c, nil
}

func (c *child) readJSON(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

func (c *child) stats() (childStats, error) {
	var s childStats
	if _, err := io.WriteString(c.stdin, "stats\n"); err != nil {
		return s, err
	}
	return s, c.readJSON(&s)
}

func (c *child) reaped() {
	liveMu.Lock()
	delete(live, c)
	liveMu.Unlock()
}

// stop closes the child's stdin, which makes it drain and exit, and waits.
func (c *child) stop() error {
	c.stdin.Close()
	err := c.cmd.Wait()
	c.reaped()
	return err
}

// kill sends SIGKILL (no Close, no flush) and waits for the process to end.
// Killing a child that was already reaped does nothing.
func (c *child) kill() {
	if c.cmd.ProcessState != nil {
		return
	}
	c.cmd.Process.Kill()
	c.cmd.Wait()
	c.reaped()
}

// discard kills the child and removes its data directory, if it has one.
func (c *child) discard() {
	c.kill()
	if c.spec.Dir != "" {
		os.RemoveAll(c.spec.Dir)
	}
}

// dirBytes sums the file sizes under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
