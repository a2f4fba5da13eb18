package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pax/internal/wire"
)

// tinyScale runs every phase of a workload in a few seconds.
func tinyScale(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		bin: paxserveBin(t), work: t.TempDir(), gitRev: "test",
		keys: 2000, callers: 4, writers: 1, inserts: 500,
		setups: 1, restarts: 2, zipfS: 1.2, probe: 200 * time.Millisecond,
	}
}

var builtPaxserve string

// paxserveBin builds cmd/paxserve from this tree once per test binary.
func paxserveBin(t *testing.T) string {
	t.Helper()
	if builtPaxserve != "" {
		return builtPaxserve
	}
	dir, err := os.MkdirTemp("", "perfbench-bin")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "paxserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/paxserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building paxserve: %v\n%s", err, out)
	}
	builtPaxserve = bin
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtPaxserve != "" {
		os.RemoveAll(filepath.Dir(builtPaxserve))
	}
	os.Exit(code)
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (e2e, layer []string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	return e2e, layer
}

// lastLine runs the report and decodes its final JSON line.
func lastLine(t *testing.T, res *result) (outLine, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out outLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result JSON: %v\n%s", err, buf.String())
	}
	return out, buf.String()
}

func TestWorkloadsEmitEveryMetric(t *testing.T) {
	e2e, layer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyScale(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			out, text := lastLine(t, res)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d (%s)", w, trace, out.Correct, out.Failed, out.Attempted, res.FirstFail)
			}
			want := e2e
			if trace {
				want = layer
			}
			for _, name := range want {
				if _, ok := out.Metrics[name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				}
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w, trace, len(out.Metrics), len(want))
			}
			// The human report names all twelve end-to-end metrics.
			for _, name := range e2eOrder {
				if !strings.Contains(text, "\n"+name+" ") {
					t.Errorf("%s trace=%v: report does not print %s", w, trace, name)
				}
			}
		}
	}
}

func TestCheckerCatchesCorruptedGet(t *testing.T) {
	cfg := tinyScale(t, putUniform, false)
	cfg.hook = func(c *wire.Client) error {
		val := make([]byte, valueLen)
		encodeValue(val, 1, 1)
		val[valueLen-1] ^= 0xff
		_, err := c.Put(keyName(1), val)
		return err
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a corrupted value went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(res.FirstFail, string(keyName(1))) {
		t.Fatalf("first failure %q does not name the corrupted key", res.FirstFail)
	}
}

func TestCheckerCatchesDroppedAckedKey(t *testing.T) {
	cfg := tinyScale(t, crashRecover, false)
	dropped := keyName(cfg.keys + 3) // an acked insert
	cfg.hook = func(c *wire.Client) error {
		_, _, err := c.Delete(dropped)
		return err
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("a dropped acked key went unnoticed: correct=%v failed=%d", res.Correct, res.Failed)
	}
	if !strings.Contains(res.FirstFail, "lost acked write") || !strings.Contains(res.FirstFail, string(dropped)) {
		t.Fatalf("first failure %q is not the lost key", res.FirstFail)
	}
}

func TestValueCodec(t *testing.T) {
	val := make([]byte, valueLen)
	encodeValue(val, 42, 9)
	if v, ok := decodeValue(val, 42); !ok || v != 9 {
		t.Fatalf("decode = %d, %v", v, ok)
	}
	if _, ok := decodeValue(val, 43); ok {
		t.Fatal("a value decoded for the wrong key")
	}
	for i := range val {
		bad := append([]byte(nil), val...)
		bad[i] ^= 1
		if v, ok := decodeValue(bad, 42); ok && v == 9 {
			t.Fatalf("flipping byte %d went unnoticed", i)
		}
	}
}

func TestRefusesModeledCommitLatency(t *testing.T) {
	if err := checkArgs(serverArgs("p")); err != nil {
		t.Fatalf("default arguments refused: %v", err)
	}
	for _, args := range [][]string{
		{"-commit-latency", "4ms"},
		{"-commit-latency=2ms"},
		{"--commit-latency", "1us"},
	} {
		if checkArgs(args) == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
