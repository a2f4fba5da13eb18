// Command perfbench is the repository's end-to-end benchmark: it starts
// paxserve as a child process (2 shards, epoch-log commits, real fsync, no
// modeled commit latency, durable acks), drives it over TCP with
// wire.Client from one closed-loop load generator, checks every reply,
// SIGKILLs and restarts the server to verify every acked write, and prints
// the end-to-end metrics. With -trace 1 it instead reports per-layer
// metrics from spans around its own calls into each layer and from the
// server's STATS counters. See README.md for the workloads and metrics.
//
// Usage (run.py builds both binaries and passes -paxserve and -work):
//
//	perfbench -workload put-uniform -seed 1 -seconds 10 -trace 0 \
//	    -paxserve .bench_build/perfbench/paxserve -work .bench_build/perfbench/work
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloads, " | "))
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured phase length in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		bin      = flag.String("paxserve", "", "paxserve binary")
		work     = flag.String("work", "", "directory for pools, server logs, spans and result records")
		gitRev   = flag.String("git-rev", "unknown", "git revision of the code under test")
		gitDirty = flag.Bool("git-dirty", false, "the working tree had uncommitted changes")
	)
	flag.Parse()
	// One P is ample for the load generator; with more, it and paxserve
	// contend for the host's two vCPUs and the split between them changes
	// from run to run.
	runtime.GOMAXPROCS(1)
	known := false
	for _, w := range workloads {
		known = known || w == *workload
	}
	switch {
	case !known:
		fail("unknown -workload %q (want %s)", *workload, strings.Join(workloads, ", "))
	case *bin == "" || *work == "":
		fail("-paxserve and -work are required")
	case *seconds < 1:
		fail("-seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		fail("-trace must be 0 or 1")
	}
	cfg := fullScale(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		bin: *bin, work: *work, gitRev: *gitRev, gitDirty: *gitDirty,
	})
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fail("%v", err)
	}
	res, err := run(cfg)
	if err != nil {
		fail("%v", err)
	}
	if err := saveRecord(cfg, res); err != nil {
		fail("%v", err)
	}
	if err := res.print(os.Stdout); err != nil {
		fail("%v", err)
	}
}

// saveRecord keeps the run's full record (provenance, every metric's
// spread, per-layer metrics) under the work directory.
func saveRecord(cfg config, res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("record-%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace)
	return os.WriteFile(filepath.Join(cfg.work, name), b, 0o644)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}
