package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// service is the server under test plus the benchmark's HTTP client.
type service struct {
	d   *designer.Designer
	srv *serve.Server
	c   *client
}

// boot generates and analyzes the dataset, starts the HTTP service on an
// ephemeral loopback port and waits until /readyz answers 200. It returns
// the wall time of all of that: the setup_s sample.
func boot(ctx context.Context, size string, seed int64) (*service, time.Duration, error) {
	start := time.Now()
	d, err := designer.OpenSDSS(size, seed)
	if err != nil {
		return nil, 0, fmt.Errorf("open dataset: %w", err)
	}
	srv := serve.New(d)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	s := &service{d: d, srv: srv, c: newClient("http://" + srv.Addr())}
	for {
		code, _, err := s.c.do(ctx, "GET", "/readyz", nil, nil)
		if err == nil && code == http.StatusOK {
			return s, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 30s (last status %d, err %v)", code, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop closes the client's idle keep-alive connections first, so the
// bounded graceful shutdown does not wait out connections that will never
// send another request, then shuts the server down.
func (s *service) stop() error {
	s.c.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// client is the benchmark's one keep-alive HTTP client: at most
// whatifClients (= the machine's two cores) connections to the server.
type client struct {
	base string
	tr   *http.Transport
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     whatifClients,
		MaxIdleConnsPerHost: whatifClients,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: base, tr: tr, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// do sends one request with an optional JSON body and decodes a JSON
// answer into out. The latency covers sending the request and reading the
// whole response body, not decoding it.
func (c *client) do(ctx context.Context, method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return resp.StatusCode, took, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, took, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, took, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return resp.StatusCode, took, nil
}

// tally counts requests attempted and failed across clients. A request
// fails when it errors, is refused (429) or answers wrongly.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// add counts one attempted request; a non-nil err counts it failed.
func (t *tally) add(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		t.note(err)
	}
}

func (t *tally) note(err error) {
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err.Error())
	}
}

// handlerTotals scrapes /metrics once and returns, per route pattern, the
// server-side request count and summed handler seconds, plus the admission
// pool's rejection total.
func (c *client) handlerTotals(ctx context.Context) (map[string][2]float64, float64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	routes := map[string][2]float64{}
	var rejected float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		name, labels, value, ok := parseSample(line)
		if !ok {
			continue
		}
		switch name {
		case "dbdesigner_http_request_duration_seconds_count":
			r := routes[labels["route"]]
			r[0] = value
			routes[labels["route"]] = r
		case "dbdesigner_http_request_duration_seconds_sum":
			r := routes[labels["route"]]
			r[1] = value
			routes[labels["route"]] = r
		case "dbdesigner_admission_rejected_total":
			rejected += value
		}
	}
	return routes, rejected, sc.Err()
}

// parseSample splits one Prometheus text sample line.
func parseSample(line string) (string, map[string]string, float64, bool) {
	if line == "" || line[0] == '#' {
		return "", nil, 0, false
	}
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(line[sp+1:], 64)
	if err != nil {
		return "", nil, 0, false
	}
	head := line[:sp]
	labels := map[string]string{}
	name := head
	if i := strings.IndexByte(head, '{'); i >= 0 {
		name = head[:i]
		for _, kv := range strings.Split(strings.Trim(head[i:], "{}"), ",") {
			k, val, ok := strings.Cut(kv, "=")
			if ok {
				labels[k] = strings.Trim(val, `"`)
			}
		}
	}
	return name, labels, v, true
}
