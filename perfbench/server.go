package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	osexec "os/exec"
	"strconv"
	"syscall"
	"time"
)

// server is one dqserve process under test, with the client that drives
// it.
type server struct {
	cmd    *osexec.Cmd
	base   string
	client *http.Client
	exited chan error // receives cmd.Wait's result once the process ends
}

// startServer spawns the dqserve binary on a free loopback port and waits
// until /v1/healthz answers. conns bounds the client's connections.
func startServer(ctx context.Context, bin string, args []string, conns int) (*server, error) {
	addr, err := freeLoopbackAddr()
	if err != nil {
		return nil, err
	}
	cmd := osexec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// A benchmark that dies must not leave its server running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dqserve: %w", err)
	}
	s := &server{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		exited: make(chan error, 1),
	}
	go func() { s.exited <- cmd.Wait() }()
	if err := s.waitReady(ctx, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// freeLoopbackAddr returns a loopback address whose port was free a
// moment ago.
func freeLoopbackAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// waitReady polls /v1/healthz every millisecond until it answers 200.
func (s *server) waitReady(ctx context.Context, limit time.Duration) error {
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for {
		resp, err := probe.Get(s.base + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return fmt.Errorf("dqserve exited before it was ready: %v", err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dqserve not ready after %v", limit)
		}
	}
}

// stop ends the process (SIGTERM, then SIGKILL after ten seconds) and
// waits until it has exited.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// pid is the server's process ID.
func (s *server) pid() int { return s.cmd.Process.Pid }

// userHZ is the kernel's clock-tick rate for /proc/<pid>/stat times,
// fixed at 100 for user space on Linux.
const userHZ = 100

// processCPU reads a process's user plus system CPU time, summed over
// all its threads, from /proc/<pid>/stat.
func processCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(data)
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// parseStatCPU returns utime+stime in clock ticks from the contents of a
// /proc/<pid>/stat file. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from its closing parenthesis.
func parseStatCPU(stat []byte) (uint64, error) {
	end := bytes.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, errors.New("proc stat: no command name")
	}
	// After ") " come fields 3 (state) onward; utime and stime are fields
	// 14 and 15.
	fields := bytes.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(fields))
	}
	utime, err := strconv.ParseUint(string(fields[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(fields[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// peakRSS reads a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	kb, err := parseStatusKB(data, "VmHWM")
	return kb << 10, err
}

// parseStatusKB returns the value of a "Key:   1234 kB" line of a
// /proc/<pid>/status file.
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte{'\n'}) {
		name, rest, ok := bytes.Cut(line, []byte{':'})
		if !ok || string(name) != key {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}

// selfCPU is this process's user plus system CPU time: the load
// generator's own cost.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
