package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one bpartd process, started fresh for a run on 127.0.0.1:0.
type daemon struct {
	cmd    *exec.Cmd
	api    string // http://host:port of the v1 API
	ops    string // http://host:port of /metrics and /readyz
	stderr lockedBuffer
	exited chan struct{}
	err    error // cmd.Wait's result, set before exited closes
}

// lockedBuffer is the daemon's stderr: written by exec's copier
// goroutine, read by the benchmark.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon starts bpartd with its addresses written to files under
// dir and returns once /readyz answers 200.
func startDaemon(bin, dir string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	apiFile := filepath.Join(dir, "api.addr")
	opsFile := filepath.Join(dir, "ops.addr")
	for _, f := range []string{apiFile, opsFile} {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
	}
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", apiFile,
		"-ops-addr", "127.0.0.1:0", "-ops-addr-file", opsFile)
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// Should the benchmark die without stopping it, the daemon dies too.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bpartd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()

	deadline := time.Now().Add(30 * time.Second)
	for d.api == "" || d.ops == "" {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("bpartd exited during start-up: %v\n%s", d.err, d.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("bpartd wrote no address files within 30s")
		}
		d.api = readAddr(apiFile)
		d.ops = readAddr(opsFile)
	}
	for {
		resp, err := http.Get(d.api + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // probe body is unused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("bpartd not ready within 30s")
		}
		time.Sleep(time.Millisecond)
	}
}

// readAddr returns "http://"+address from an address file, or "" while
// the file is missing or still empty.
func readAddr(path string) string {
	b, err := os.ReadFile(path)
	if err != nil || len(b) == 0 {
		return ""
	}
	return "http://" + strings.TrimSpace(string(b))
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// stop sends SIGTERM and waits for the drain; it fails unless the daemon
// exits 0 reporting a clean shutdown.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal bpartd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(60 * time.Second):
		d.kill()
		return errors.New("bpartd did not exit within 60s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("bpartd exit: %v\n%s", d.err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "shutdown clean") {
		return fmt.Errorf("bpartd exited 0 without a clean drain:\n%s", d.stderr.String())
	}
	return nil
}

// kill ends the daemon if it still runs and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill() //nolint:errcheck // it may have exited meanwhile; Wait below settles it
	<-d.exited
}

// scrape reads the daemon's /metrics into a map keyed by the sample's
// name and labels as printed, e.g. `binpart_cache_hits_total{cache="analysis"}`.
func (d *daemon) scrape(hc *http.Client) (map[string]float64, error) {
	resp, err := hc.Get(d.ops + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumPrefix adds every sample whose key starts with prefix.
func sumPrefix(m map[string]float64, prefix string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}
