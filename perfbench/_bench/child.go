package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	partitions     = 8
	readyTimeout   = 60 * time.Second
	readyPoll      = 2 * time.Millisecond
	requestTimeout = 120 * time.Second
)

// serverProcs is the child's GOMAXPROCS: every core but the one the load
// generator runs on.
func serverProcs() int { return max(1, runtime.NumCPU()-1) }

// child is one loom-serve process. The benchmark knows it only through
// its flags and its HTTP API.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{} // closed once Wait has returned
}

// serveArgs are the loom-serve flags of workload w: the ten the benchmark
// is allowed, plus -snapshot-every-batches where the workload has
// barriers. Everything else stays at its default, so drift triggers,
// replication and auto-refresh are off and a restream happens only when
// the benchmark asks for one.
func serveArgs(w workload, in *inputs, hotmixFile, dataDir string) []string {
	args := []string{
		"-k", strconv.Itoa(partitions),
		"-expected", strconv.Itoa(in.expected()),
		"-window", strconv.Itoa(windowSize),
		"-labels", strconv.Itoa(len(alphabet)),
		"-seed", "1",
		"-data-dir", dataDir,
		"-fsync", "none",
	}
	if w.hotmix {
		args = append(args, "-workload-file", hotmixFile)
	} else {
		args = append(args, "-workload", "0")
	}
	if w.barriers > 0 {
		args = append(args, "-snapshot-every-batches", strconv.Itoa(barrierEvery(w, in)))
	}
	return args
}

// startChild executes loom-serve on a port that is free now and waits for
// GET /readyz to answer 200.
func startChild(clk clock, bin string, args []string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	c := &child{base: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs()))
	c.cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark, whatever kills it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.exited)
	}()

	probe := newConn(c.base)
	defer probe.close()
	deadline := clk.now().Add(readyTimeout)
	for clk.now().Before(deadline) {
		select {
		case <-c.exited:
			return nil, fmt.Errorf("loom-serve exited before it was ready: %s", c.stderr.String())
		default:
		}
		if status, _, err := probe.do("GET", "/readyz", "", nil); err == nil && status == http.StatusOK {
			return c, nil
		}
		clk.sleep(readyPoll)
	}
	c.kill()
	return nil, fmt.Errorf("loom-serve not ready after %v: %s", readyTimeout, c.stderr.String())
}

// kill sends SIGKILL and waits until the process has ended.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.exited
}

// peakRSS reads the child's VmHWM, in MiB.
func (c *child) peakRSS() (float64, error) {
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// conn is one keep-alive HTTP connection to the child.
type conn struct {
	base string
	hc   *http.Client
}

func newConn(base string) *conn {
	return &conn{base: base, hc: &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole answer.
func (c *conn) do(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// The answers the benchmark reads, as loom-serve documents them.
type (
	ingestAnswer struct {
		Accepted int `json:"accepted"`
		Rejected int `json:"rejected"`
	}
	placeAnswer struct {
		Assigned  bool `json:"assigned"`
		Partition int  `json:"partition"`
	}
	queryAnswer struct {
		Matches     int `json:"matches"`
		Messages    int `json:"messages"`
		LocalReads  int `json:"local_reads"`
		RemoteReads int `json:"remote_reads"`
	}
	statsAnswer struct {
		Ingested      int64   `json:"ingested"`
		Rejected      int64   `json:"rejected"`
		Vertices      int     `json:"vertices"`
		Edges         int     `json:"edges"`
		Assigned      int     `json:"assigned"`
		ObservedEdges int     `json:"observed_edges"`
		CutEdges      int     `json:"cut_edges"`
		CutFraction   float64 `json:"cut_fraction"`
		Imbalance     float64 `json:"imbalance"`
		Sizes         []int   `json:"sizes"`
		Restreams     int     `json:"restreams"`
		RestreamLive  bool    `json:"restream_live"`
		LastRestream  *struct {
			DurationMS int64 `json:"duration_ms"`
		} `json:"last_restream"`
		Persist *struct {
			WALBytes  int64 `json:"wal_bytes"`
			Snapshots int64 `json:"snapshots"`
		} `json:"persist"`
	}
)

// getJSON sends a request and decodes a 200 answer into out.
func (c *conn) getJSON(method, path, ctype string, body []byte, out any) error {
	status, data, err := c.do(method, path, ctype, body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func (c *conn) stats() (statsAnswer, error) {
	var st statsAnswer
	err := c.getJSON("GET", "/stats", "", nil, &st)
	return st, err
}
