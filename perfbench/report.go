package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// summary is the spread of one metric's samples within a run.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

// quantile is the linearly interpolated q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		N: len(s), Min: s[0], Max: s[len(s)-1],
		Q1: quantile(s, 0.25), Median: quantile(s, 0.5), Q3: quantile(s, 0.75),
		P99: quantile(s, 0.99),
	}
}

// nsTo converts ns samples to float64 samples in the given unit divisor.
func nsTo(xs []int64, div float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / div
	}
	return out
}

// windows is a phase cut into equal time windows: per window, the op
// rate and the p50 and p99 latency of its untraced ops. Reporting the
// median window damps bursts of host contention (steal time, other
// tenants' I/O) that a whole-phase figure would absorb.
type windows struct {
	rate, p50, p99 summary
}

// windowStats cuts [0, length) into k equal windows, one per 1000 untraced
// samples up to 20, so every window's p99 has ten samples beyond it when
// the phase has enough. Ops completing after length are left out.
func windowStats(samples []sample, length time.Duration) windows {
	untraced := 0
	for _, s := range samples {
		if !s.traced {
			untraced++
		}
	}
	k := min(max(untraced/1000, 1), 20)
	width := float64(length.Nanoseconds()) / float64(k)
	counts := make([]int, k)
	lats := make([][]float64, k)
	for _, s := range samples {
		i := int(float64(s.done) / width)
		if s.done < 0 || i >= k {
			continue
		}
		counts[i]++
		if !s.traced {
			lats[i] = append(lats[i], float64(s.lat)/1e6)
		}
	}
	var rate, p50, p99 []float64
	for i := 0; i < k; i++ {
		rate = append(rate, float64(counts[i])/(width/1e9))
		if len(lats[i]) > 0 {
			ws := summarize(lats[i])
			p50 = append(p50, ws.Median)
			p99 = append(p99, ws.P99)
		}
	}
	return windows{rate: summarize(rate), p50: summarize(p50), p99: summarize(p99)}
}

// metric is one end-to-end result. NA marks a metric the workload does not
// exercise; the human report prints it as n/a.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	NA     bool    `json:"na,omitempty"`
	Source string  `json:"source,omitempty"`
	// Summary is the spread of the metric's samples; Windows, for rates and
	// latencies, the spread of its per-window values (Value is their
	// median).
	Summary *summary `json:"summary,omitempty"`
	Windows *summary `json:"windows,omitempty"`
}

// e2eOrder is the order the report prints the end-to-end metrics in.
var e2eOrder = []string{
	"put_ops_s", "put_p50_ms", "put_p99_ms",
	"get_ops_s", "get_p50_ms", "get_p99_ms",
	"recover_s", "setup_s", "failed_frac", "write_amp",
	"server_cpu_us_per_op", "server_rss_mb", "server_peak_rss_mb",
}

// headline lists the end-to-end metrics the final JSON line carries: the
// gated ones. Each is measured on every workload and is never 0. p50_ms is
// the median latency of the workload's main op (mainOp). Throughputs and
// p99s are printed but not gated: on a shared host they follow the
// hypervisor's steal time, by up to 2x between runs of the same code.
// failed_frac, 0 on a passing run, travels as the failed/attempted counts.
var headline = []string{
	"p50_ms", "recover_s", "setup_s", "write_amp",
	"server_cpu_us_per_op", "server_rss_mb",
}

// mainOp is the op a workload is about: PUTs on put-uniform, GETs on
// read-mostly-zipf and on crash-recover, whose timed phase is the reads of
// the recovered server (its fixed-count write phase lasts about a second,
// too short to time steadily).
func mainOp(workload string) string {
	if workload == putUniform {
		return "put"
	}
	return "get"
}

// provenance identifies the code, host and settings a record came from.
type provenance struct {
	GitRev     string `json:"git_rev"`
	GitDirty   bool   `json:"git_dirty"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	PoolFS     string `json:"pool_fs"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Setups     int    `json:"setups"`
	Restarts   int    `json:"restarts"`
	Keys       int    `json:"keys"`
}

func hostProvenance(cfg config, poolDir string) provenance {
	p := provenance{
		GitRev: cfg.gitRev, GitDirty: cfg.gitDirty,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", PoolFS: fsType(poolDir),
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Setups: cfg.setups, Restarts: cfg.restarts, Keys: cfg.keys,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(b))
	}
	return p
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// result is everything one run reports.
type result struct {
	Provenance provenance         `json:"provenance"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	FirstFail  string             `json:"first_failure,omitempty"`
	E2E        map[string]*metric `json:"end_to_end"`
	Layer      map[string]float64 `json:"per_layer,omitempty"`
	Warnings   []string           `json:"warnings,omitempty"`
	// Stages is the wall time, in seconds, of each stage of the run.
	Stages map[string]float64 `json:"stage_seconds"`
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// other tenants during the measured phase: high values explain slow
	// runs.
	StealFrac float64 `json:"host_steal_frac"`
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// layerUnit gives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, "_ratio"),
		strings.HasSuffix(name, "_per_write"), strings.HasSuffix(name, "_per_persist"),
		strings.HasSuffix(name, "imbalance"), strings.HasSuffix(name, "batch_mean"):
		return "ratio"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "bytes"):
		return "bytes"
	}
	return "count"
}

// print writes the human report, then the record line, then the final JSON
// line: correct, attempted, failed and the gated metrics.
func (r *result) print(w io.Writer) error {
	p := r.Provenance
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v  rev=%s dirty=%v nproc=%d GOMAXPROCS=%d %s kernel=%s pool_fs=%s host_steal=%.1f%%\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.GitRev, p.GitDirty, p.NProc, p.GOMAXPROCS, p.GoVersion, p.Kernel, p.PoolFS, 100*r.StealFrac)
	fmt.Fprintf(w, "%-22s %12s %-6s %8s %12s %12s  %s\n", "metric", "value", "unit", "n", "median", "p99", "source")
	for _, name := range e2eOrder {
		m := r.E2E[name]
		if m == nil || m.NA {
			unit := ""
			if m != nil {
				unit = m.Unit
			}
			fmt.Fprintf(w, "%-22s %12s %-6s\n", name, "n/a", unit)
			continue
		}
		n, med, p99 := "", "", ""
		if s := m.Summary; s != nil {
			n, med = fmt.Sprint(s.N), fmt.Sprintf("%.4g", s.Median)
			// A p99 is shown only when at least ten samples lie beyond it.
			if s.N >= 1000 {
				p99 = fmt.Sprintf("%.4g", s.P99)
			} else {
				p99 = "(n<1000)"
			}
		}
		fmt.Fprintf(w, "%-22s %12.6g %-6s %8s %12s %12s  %s\n", name, m.Value, m.Unit, n, med, p99, m.Source)
	}
	if len(r.Layer) > 0 {
		names := make([]string, 0, len(r.Layer))
		for k := range r.Layer {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "per-layer (traced run):")
		for _, k := range names {
			fmt.Fprintf(w, "  %-36s %16.6g %s\n", k, r.Layer[k], layerUnit(k))
		}
	}
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}
	if r.FirstFail != "" {
		fmt.Fprintf(w, "first failure: %s\n", r.FirstFail)
	}
	rec, err := json.Marshal(map[string]any{"record": r})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", rec)

	out := outLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]outMetric{}}
	if p.Trace {
		for k, v := range r.Layer {
			out.Metrics[k] = outMetric{Value: v, Unit: layerUnit(k)}
		}
	} else {
		op := mainOp(p.Workload)
		for _, name := range headline {
			m := r.E2E[name]
			if name == "p50_ms" {
				m = r.E2E[op+"_"+name]
			}
			if m == nil || m.NA {
				return fmt.Errorf("gated metric %s was not measured", name)
			}
			out.Metrics[name] = outMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
