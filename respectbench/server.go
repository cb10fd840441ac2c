package main

import (
	"bufio"
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"respect/internal/serve"
)

// server is a running respect-serve child process.
type server struct {
	cmd    *exec.Cmd
	url    string
	drain  chan struct{} // closed once the child's stdout is fully read
	client *http.Client
	done   bool // stop has run
}

// startupTimeout bounds exec-to-ready; the whole zoo warm-up takes well
// under a second.
const startupTimeout = 60 * time.Second

// startServer execs bin on a free loopback port and waits until /healthz
// answers and /v1/stats reports warmed schedules for every zoo model the
// warm-up covers. It returns the server and the exec-to-ready time.
func startServer(bin string, args []string, warmed int64) (*server, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drain: make(chan struct{}), client: newClient()}
	addr := make(chan string, 1)
	go func() {
		defer close(s.drain)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	select {
	case s.url = <-addr:
	case <-s.drain:
		s.stop()
		return nil, 0, errors.New("respect-serve exited before listening")
	case <-time.After(startupTimeout):
		s.stop()
		return nil, 0, errors.New("respect-serve did not listen in time")
	}
	if err := s.awaitReady(start, warmed); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start), nil
}

// awaitReady polls /healthz and then /v1/stats until warm-up is done.
func (s *server) awaitReady(start time.Time, warmed int64) error {
	for time.Since(start) < startupTimeout {
		if st, err := s.stats(); err == nil && st.WarmedSchedules >= warmed {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("respect-serve not ready after %v", startupTimeout)
}

// stats fetches /v1/stats.
func (s *server) stats() (serve.Stats, error) {
	var st serve.Stats
	if _, err := s.get("/healthz"); err != nil {
		return st, err
	}
	body, err := s.get("/v1/stats")
	if err != nil {
		return st, err
	}
	return st, json.Unmarshal(body, &st)
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// maxRSSMB reads the child's peak resident set (VmHWM) in MB.
func (s *server) maxRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set size from /proc in MB.
func vmHWM(pid int) (float64, error) {
	status, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, waits for a graceful exit (killing the child if it
// overstays), and waits until its output is drained. Later calls do
// nothing.
func (s *server) stop() {
	if s.done {
		return
	}
	s.done = true
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is fine
	done := make(chan struct{})
	go func() {
		_ = s.cmd.Wait() // exit status after SIGTERM carries no information
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
	}
	<-s.drain
}

// newClient returns a client holding one keep-alive connection, so a
// closed loop keeps one request in flight on one socket.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// buildID names the respect-serve build: its VCS revision when the
// binary was built inside a repository, else a digest of the binary.
func buildID(bin string) (string, error) {
	if info, err := buildinfo.ReadFile(bin); err == nil {
		rev, dirty := "", ""
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			return rev + dirty, nil
		}
	}
	f, err := os.Open(bin)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16], nil
}
