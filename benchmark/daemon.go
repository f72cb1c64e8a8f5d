package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// buildNedserve compiles cmd/nedserve of the checkout at root into out.
// The build inherits the caller's Go environment (run.sh points the
// caches inside the checkout).
func buildNedserve(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/nedserve")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building nedserve: %w", err)
	}
	return nil
}

// daemon is one nedserve child process on a loopback port.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	log    *os.File
	bootMS float64 // exec → first /healthz 200
	waited bool
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the daemon binds it; nothing else on the benchmark
// host competes for it in between.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs nedserve with GOMAXPROCS=2 and waits for /healthz.
// dataDir "" serves in-memory tenants only. Output goes to logPath.
func startDaemon(ctx context.Context, bin, dataDir, logPath string, hc *http.Client, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	args = append(args, extra...)
	logf, err := os.OpenFile(logPath, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	cmd.Stdout, cmd.Stderr = logf, logf
	// Own process group: a ^C on the harness must not race its cleanup.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting nedserve: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), log: logf}
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if ctx.Err() != nil || time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("nedserve did not become healthy (see %s)", logPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.bootMS = ms(time.Since(t0))
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// kill delivers SIGKILL and reaps the child. It returns the instant the
// signal was sent (the start of a restart-to-first-query interval).
// Safe to call twice.
func (d *daemon) kill() time.Time {
	at := time.Now()
	if d.waited {
		return at
	}
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait() // the error is the kill itself
	d.waited = true
	d.log.Close()
	return at
}

// cpu is the daemon's user+system CPU so far: /proc while it runs, the
// reaped rusage afterwards.
func (d *daemon) cpu() time.Duration {
	if d.waited {
		return d.cmd.ProcessState.UserTime() + d.cmd.ProcessState.SystemTime()
	}
	c, err := procCPU(d.pid())
	if err != nil {
		return 0
	}
	return c
}
