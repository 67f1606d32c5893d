package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"speed_vs_ref", "ratio"},
	{"mem_bytes_per_key", "B/key"},
}

// perLayer lists the per-layer metrics of the traced run. A workload reports
// 0 for a layer it does not pass through.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"backend.get_ns", "ns"}, {"backend.insert_ns", "ns"}, {"backend.delete_ns", "ns"},
		{"backend.scan_ns_per_rec", "ns"}, {"backend.bytes_per_key", "B/key"}, {"backend.build_s", "s"},
	}
	for _, k := range sweepKinds {
		defs = append(defs,
			metricDef{"backend." + k + ".get_ns", "ns"},
			metricDef{"backend." + k + ".bytes_per_key", "B/key"},
			metricDef{"backend." + k + ".build_s", "s"})
	}
	defs = append(defs,
		metricDef{"shard.self_ns_per_op", "ns"}, metricDef{"shard.scale_2t", "ratio"},
		metricDef{"shard.rw_ops_per_s", "1/s"}, metricDef{"shard.rcu_ops_per_s", "1/s"},
		metricDef{"store.self_ns_per_write", "ns"}, metricDef{"store.fsyncs_per_kop", "count"},
		metricDef{"store.checkpoints", "count"}, metricDef{"store.compactions", "count"},
		metricDef{"store.dir_bytes_per_user_byte", "ratio"}, metricDef{"store.recovered_recs_per_s", "1/s"},
		metricDef{"store.disk_bytes_per_key", "B/key"}, metricDef{"store.reopen_s", "s"},
		metricDef{"obs.self_ns_per_op", "ns"},
		metricDef{"wire.encode_ns_per_msg", "ns"}, metricDef{"wire.decode_ns_per_msg", "ns"},
		metricDef{"wire.decode_allocs_per_msg", "count"}, metricDef{"wire.bytes_per_op", "B"},
		metricDef{"serve.cpu_us_per_op", "us"}, metricDef{"serve.self_ns_per_op", "ns"},
		metricDef{"serve.groups_per_kop", "count"},
		metricDef{"loadgen.late_p99_us", "us"}, metricDef{"loadgen.cpu_us_per_op", "us"},
		metricDef{"loadgen.sent_frac", "ratio"}, metricDef{"loadgen.over_50ms_frac", "ratio"},
		metricDef{"loadgen.lat_p50_us", "us"}, metricDef{"loadgen.lat_p99_us", "us"},
		metricDef{"loadgen.lat_send_p50_us", "us"}, metricDef{"loadgen.lat_send_p99_us", "us"},
	)
	for _, k := range spatialKinds {
		for _, m := range []metricDef{
			{"build_s", "s"}, {"bytes_per_point", "B/key"}, {"point_us", "us"},
			{"range_us_s1", "us"}, {"range_us_s2", "us"}, {"range_us_s3", "us"},
			{"knn_us", "us"}, {"useful_frac", "ratio"},
		} {
			defs = append(defs, metricDef{"spatial." + k + "." + m.name, m.unit})
		}
	}
	return append(defs, metricDef{"trace.overhead_frac", "ratio"}, metricDef{"trace.unexplained_frac", "ratio"})
}

// result is the outcome of one run of one workload.
type result struct {
	workload  string
	traced    bool
	attempted int64
	wrong     int64 // wrong answers, error replies and acknowledged writes lost
	invalids  int   // reasons the run does not measure what its workload is for
	values    map[string]float64
	notes     map[string]string
	info      []string
}

func newResult(workload string, traced bool) *result {
	return &result{workload: workload, traced: traced, values: map[string]float64{}, notes: map[string]string{}}
}

func (r *result) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

func (r *result) set(name string, v float64) { r.values[name] = v }

// note attaches a remark (a sample count, usually) printed beside the metric.
func (r *result) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// invalid records that the run did not exercise what its workload is there
// for (the generator fell behind, the store never compacted): its numbers are
// right but measure something else.
func (r *result) invalid(format string, args ...any) {
	r.invalids++
	r.infof("INVALID: "+format, args...)
}

// print writes the human-readable lines and, last, the one-line JSON object
// the driver reads.
func (r *result) print(out io.Writer) {
	for _, l := range r.info {
		fmt.Fprintf(out, "info %s %s\n", r.workload, l)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, d := range r.defs() {
		v := r.values[d.name]
		line := fmt.Sprintf("metric %s %s %.6g %s", r.workload, d.name, v, d.unit)
		if n := r.notes[d.name]; n != "" {
			line += "  # " + n
		}
		fmt.Fprintln(out, line)
		metrics[d.name] = jm{v, d.unit}
	}
	fmt.Fprintf(out, "check %s fail_frac %.6g ratio  # %d wrong of %d attempted\n",
		r.workload, float64(r.wrong)/float64(r.attempted), r.wrong, r.attempted)
	js, _ := json.Marshal(map[string]any{
		"correct": r.wrong == 0, "attempted": r.attempted, "failed": r.wrong, "metrics": metrics,
	})
	fmt.Fprintf(out, "%s\n", js)
}

// span is one benchmark-side trace span. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Group  int    `json:"group"` // request-group (batch) number within its rung
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until write. A nil tracer records nothing. It
// is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, group int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records a finished span.
func (t *tracer) add(name string, parent, group int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Group: group, Start: s, End: s + d.Nanoseconds()})
}

func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	js, err := json.Marshal(map[string]any{"workload": workload, "spans": t.spans})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, js, 0o644)
}
