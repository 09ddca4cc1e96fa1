package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"github.com/aiql/aiql/internal/service"
)

// server is one running aiqlserver process.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
	err    error // exit status, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs bin with args plus a loopback -addr, and returns
// once /api/v1/healthz answers 200.
func startServer(ctx context.Context, bin string, args []string, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start aiqlserver: %w", err)
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	hc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := hc.Get(s.base + "/api/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("aiqlserver exited during start-up (%v); see %s", s.err, logPath)
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("aiqlserver not healthy after 120s; see %s", logPath)
		}
	}
}

// kill sends SIGKILL and waits for the process to end.
func (s *server) kill() {
	s.cmd.Process.Kill()
	<-s.exited
	s.log.Close()
}

// peakRSSMB reads the server's high-water resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not in /proc status")
}

// stats fetches one dataset's /api/v1/stats blob.
func (s *server) stats(dataset string) (service.DatasetStats, error) {
	var st service.DatasetStats
	resp, err := http.Get(s.base + "/api/v1/stats?dataset=" + dataset)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("stats %s: HTTP %d", dataset, resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			fi, err := d.Info()
			if err != nil {
				return err
			}
			n += fi.Size()
		}
		return nil
	})
	return n, err
}

// copyDir copies the regular files of a store directory tree.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, b, 0o644)
	})
}
