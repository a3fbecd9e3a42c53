package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running `mpa serve` subprocess.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // exit status, valid once done is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches `mpa -addr <free port> <args...> serve` with its
// output appended to logw and waits until readyPath answers 200. It
// returns the daemon and the time from exec to that first 200.
func startDaemon(ctx context.Context, bin string, args []string, readyPath string, logw io.Writer) (*daemon, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append([]string{"-addr", addr}, args...)
	argv = append(argv, "serve")
	cmd := exec.Command(bin, argv...)
	cmd.Stdout = logw
	cmd.Stderr = logw
	// The daemon must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	client := &http.Client{Timeout: 60 * time.Second}
	deadline := t0.Add(150 * time.Second)
	for {
		select {
		case <-d.done:
			return nil, 0, fmt.Errorf("mpa serve exited during start-up: %v", d.err)
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		default:
		}
		resp, err := client.Get(d.base + readyPath)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
			d.stop()
			return nil, 0, fmt.Errorf("GET %s during start-up: status %d", readyPath, resp.StatusCode)
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("mpa serve not ready after %v: %v", time.Since(t0), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// peakRSSMiB reads the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within ten seconds, and waits for it either way.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}
