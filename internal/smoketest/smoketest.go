// Package smoketest holds what the hermetic smoke commands
// (cmd/servesmoke, cmd/shardsmoke, cmd/crashsmoke, cmd/hybridsmoke)
// share: building the repo's binaries into a scratch directory, booting
// a faultserverd process and learning its address, and a minimal HTTP
// client for the campaign API. It needs only the go toolchain and a TCP
// loopback.
package smoketest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Build compiles each main package (a path such as "./cmd/faultserverd",
// relative to the repo root the smoke runs from) into dir and returns
// the binaries' paths in argument order. Each binary is named after the
// last element of its package path.
func Build(dir string, pkgs ...string) ([]string, error) {
	bins := make([]string, len(pkgs))
	for i, pkg := range pkgs {
		bins[i] = filepath.Join(dir, path.Base(pkg))
		build := exec.Command("go", "build", "-o", bins[i], pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return nil, fmt.Errorf("building %s: %w", pkg, err)
		}
	}
	return bins, nil
}

// StartServer launches a faultserverd binary with args and waits for its
// "listening on <url>" announcement, returning the running process and
// the announced base URL. Stderr is inherited; stdout is drained after
// the announcement. A process that exits (or closes stdout) without
// announcing — a failed bind, say — is reaped and reported as an error.
func StartServer(bin string, args ...string) (*exec.Cmd, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	const marker = "listening on "
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), marker); i >= 0 {
			go io.Copy(io.Discard, stdout) // keep the pipe drained
			return cmd, strings.TrimSpace(sc.Text()[i+len(marker):]), nil
		}
	}
	cmd.Wait()
	return nil, "", fmt.Errorf("%s %s never reported its address", filepath.Base(bin), strings.Join(args, " "))
}

// Stop asks a process to shut down gracefully (SIGTERM) and reaps it.
func Stop(cmd *exec.Cmd) {
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// WaitOK polls url until it answers HTTP 200, for at most 10 seconds.
// Pointed at /readyz it waits out a durable daemon's journal replay;
// pointed at /api/v1/healthz, only for the listener.
func WaitOK(url string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("%s never answered 200", url)
}

// ReservePort grabs a free loopback port and releases it for a daemon to
// claim, so the daemon can be restarted on the same address. The tiny
// reuse race is acceptable in a smoke test; callers retry the bind.
func ReservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// Submit POSTs a campaign request body and returns the job id and the
// HTTP status code.
func Submit(base string, body []byte) (id string, code int, err error) {
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", resp.StatusCode, fmt.Errorf("submit response %q: %w", b, err)
	}
	return st.ID, resp.StatusCode, nil
}

// GetBytes GETs url and returns the body of a 200 response.
func GetBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// GetJSON GETs url and decodes the body of a 200 response into v.
func GetJSON(url string, v any) error {
	b, err := GetBytes(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// StreamToEnd follows a job's NDJSON progress stream until the server
// closes it (the job is terminal) and decodes the final snapshot into
// last. It returns the number of snapshots streamed.
func StreamToEnd(base, id string, last any) (lines int, err error) {
	resp, err := http.Get(base + "/api/v1/campaigns/" + id + "/stream")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var tail []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		tail = append(tail[:0], sc.Bytes()...)
		lines++
	}
	if err := json.Unmarshal(tail, last); err != nil {
		return lines, fmt.Errorf("bad NDJSON tail %q: %w", tail, err)
	}
	return lines, nil
}

// RunCLI runs bin once with args and returns its stdout; stderr is
// inherited.
func RunCLI(bin string, args ...string) ([]byte, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return out, nil
}
