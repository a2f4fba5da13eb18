package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pax/internal/wire"
)

// child is one paxserve process serving a pool directory.
type child struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
}

// serverArgs is the fixed paxserve configuration every workload runs: two
// shards, delta epoch-log commits, real media time (no modeled commit
// latency), durable acks, and the default -data/-log/-hbm sizes.
func serverArgs(pool string) []string {
	return []string{
		"-pool", pool,
		"-shards", "2",
		"-epoch-log",
		"-commit-latency", "0",
		"-ack-policy", "durable",
		"-addr", "127.0.0.1:0",
	}
}

// checkArgs refuses any configuration that would let modeled time pace the
// server: every latency the benchmark reports must be real.
func checkArgs(args []string) error {
	for i, a := range args {
		if strings.TrimLeft(a, "-") == "commit-latency" && (i+1 >= len(args) || args[i+1] != "0") {
			return errors.New("refusing to start paxserve with modeled commit latency")
		}
		if strings.HasPrefix(strings.TrimLeft(a, "-"), "commit-latency=") && !strings.HasSuffix(a, "=0") {
			return errors.New("refusing to start paxserve with modeled commit latency")
		}
	}
	return nil
}

// startServer spawns paxserve on pool and returns once it has printed its
// serving banner (the listener is bound by then). The child's stderr and
// later stdout go to logPath.
func startServer(bin, pool, logPath string) (*child, error) {
	args := serverArgs(pool)
	if err := checkArgs(args); err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &child{cmd: cmd, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting paxserve: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		br := bufio.NewReader(stdout)
		sent := false
		for {
			line, err := br.ReadString('\n')
			if line != "" {
				fmt.Fprint(logf, line)
			}
			if !sent && strings.HasPrefix(line, "paxserve: serving ") {
				if f := strings.Fields(line); len(f) > 4 && f[3] == "on" {
					addrc <- f[4]
					sent = true
				}
			}
			if err != nil {
				break
			}
		}
		if !sent {
			close(addrc)
		}
		_ = cmd.Wait()
		logf.Close()
		close(s.exited)
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			<-s.exited
			return nil, fmt.Errorf("paxserve exited before serving (see %s)", logPath)
		}
		s.addr = addr
		return s, nil
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, errors.New("paxserve did not start within 60s")
	}
}

// kill SIGKILLs the server and waits for it to be reaped: a process crash,
// with no shutdown path run.
func (s *child) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.exited
}

// stop shuts the server down gracefully (SIGTERM drains and persists), and
// falls back to SIGKILL after 30s.
func (s *child) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.kill()
	}
}

// cpuTicks reads the server's utime+stime in clock ticks from /proc.
func (s *child) cpuTicks() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[strings.LastIndexByte(string(b), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	return ut + st, nil
}

// clockTicksPerSec is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicksPerSec = 100

// statusMiB reads a memory field of /proc/<pid>/status, such as VmRSS or
// VmHWM, in MiB.
func (s *child) statusMiB(field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field+":") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// hostCPU reads the first line of /proc/stat: total and steal jiffies over
// all CPUs. Steal is time a vCPU was runnable while the hypervisor ran
// another tenant; wall-clock timings absorb it, CPU-time figures do not.
func hostCPU() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseInt(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal
}

// statsSnap is a parsed STATS reply: one value per `name value` line, keyed
// by the full name including any {shard="k"} or {q="p50"} label.
type statsSnap map[string]float64

func fetchStats(c *wire.Client) (statsSnap, error) {
	text, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("STATS: %w", err)
	}
	m := statsSnap{}
	for _, line := range strings.Split(text, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, nil
}

// delta returns after[name] - before[name].
func delta(before, after statsSnap, name string) float64 { return after[name] - before[name] }

// meanDelta is the mean of a histogram over the window: Δsum / Δcount
// (0 when nothing was observed).
func meanDelta(before, after statsSnap, hist string) float64 {
	n := delta(before, after, hist+"_count")
	if n == 0 {
		return 0
	}
	return delta(before, after, hist+"_sum") / n
}

// copyTree copies the regular files under src into dst (which it creates),
// so probes can open a crashed pool without touching the original.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
