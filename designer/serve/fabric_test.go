package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// startWith boots a server with explicit fabric options.
func startWith(t *testing.T, opts ...serve.Option) string {
	t.Helper()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(d, opts...)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A connection the client dialed but never used looks new to the
		// server, and Shutdown waits 5 s on new connections.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + s.Addr()
}

// tenantCall is call() plus an X-Tenant header.
func tenantCall(t *testing.T, tenant, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	return doTenantCall(t, tenant, method, url, body, wantStatus)
}

func doTenantCall(t *testing.T, tenant, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(data))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("%s %s: status %d, want %d\nbody: %s", method, url, resp.StatusCode, wantStatus, data)
	}
	out := map[string]any{}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("%s %s: invalid JSON: %v\n%s", method, url, err, data)
		}
	}
	return out
}

// postStatus fires one POST and returns status, envelope code, and the
// Retry-After header.
func postStatus(t *testing.T, url, body string) (int, string, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	code := ""
	if resp.StatusCode >= 400 {
		var env struct {
			Error struct {
				Code string `json:"code"`
			} `json:"error"`
		}
		if json.Unmarshal(data, &env) == nil {
			code = env.Error.Code
		}
	}
	return resp.StatusCode, code, resp.Header.Get("Retry-After")
}

// TestBurstAdmissionControl stages the acceptance scenario exactly: with
// pool-size=4 and queue-depth=8, a 64-way burst of POST /advise admits
// exactly pool+queue=12 requests and answers 429 queue_full (with
// Retry-After) for the other 52 — and the goroutine count returns to
// baseline afterwards.
func TestBurstAdmissionControl(t *testing.T) {
	const poolSize, queueDepth, burst = 4, 8, 64

	var holds atomic.Int64
	release := make(chan struct{})
	base := startWith(t,
		serve.WithPoolSize(poolSize),
		serve.WithQueueDepth(queueDepth),
		serve.WithAdmissionHold(func(ctx context.Context) {
			holds.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}),
	)
	baseline := runtime.NumGoroutine()

	adviseBody := `{"queries":2,"seed":3}`
	results := make(chan int, burst)
	var wg sync.WaitGroup
	fire := func(n int) {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				status, code, retry := postStatus(t, base+"/api/v1/advise", adviseBody)
				if status == http.StatusTooManyRequests {
					if code != "queue_full" {
						t.Errorf("429 code %q, want queue_full", code)
					}
					if retry == "" {
						t.Error("429 without Retry-After header")
					}
				}
				results <- status
			}()
		}
	}

	// Prime all four workers into the hold barrier first, so the burst
	// below sees a pool that frees no capacity mid-flight — that makes
	// accepted-vs-rejected exact instead of scheduling-dependent.
	fire(poolSize)
	waitForCond(t, "workers holding", func() bool { return holds.Load() == poolSize })
	fire(burst - poolSize)

	// The 429s come back immediately; the admitted requests sit in hold or
	// queue until released.
	rejected := 0
	for i := 0; i < burst-poolSize-queueDepth; i++ {
		select {
		case status := <-results:
			if status != http.StatusTooManyRequests {
				t.Fatalf("early completion with status %d before release (want only 429s)", status)
			}
			rejected++
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out waiting for rejections (%d/%d)", rejected, burst-poolSize-queueDepth)
		}
	}

	close(release)
	wg.Wait()
	close(results)
	counts := map[int]int{http.StatusTooManyRequests: rejected}
	for status := range results {
		counts[status]++
	}
	if counts[http.StatusOK] != poolSize+queueDepth || counts[http.StatusTooManyRequests] != burst-poolSize-queueDepth {
		t.Fatalf("burst outcome %v, want exactly %d × 200 and %d × 429",
			counts, poolSize+queueDepth, burst-poolSize-queueDepth)
	}

	// Rejection totals are visible on /metrics.
	scrape := getBody(t, base+"/metrics")
	if !strings.Contains(scrape, `dbdesigner_admission_rejected_total{class="batch"} 52`) {
		t.Errorf("/metrics missing the 52 batch rejections:\n%s", grepLines(scrape, "rejected"))
	}

	// All burst goroutines drain back to the pre-burst baseline (the pool
	// admits by blocking the request goroutine, never by spawning more).
	// Idle HTTP keep-alive connections pin a few goroutines on both sides;
	// close them out of the count.
	waitForCond(t, "goroutines back to baseline", func() bool {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestInteractiveJumpsBatchQueue saturates the single worker with batch
// advises, then submits an interactive readvise: when capacity frees one
// job at a time, the readvise must complete before every queued batch job.
func TestInteractiveJumpsBatchQueue(t *testing.T) {
	tokens := make(chan struct{})
	base := startWith(t,
		serve.WithPoolSize(1),
		serve.WithQueueDepth(4),
		serve.WithAdmissionHold(func(ctx context.Context) {
			select {
			case <-tokens:
			case <-ctx.Done():
			}
		}),
	)

	created := tenantCall(t, "", "POST", base+"/api/v1/sessions", nil, http.StatusCreated)
	id := created["id"].(string)

	adviseBody := `{"queries":2,"seed":3}`
	type completion struct {
		name   string
		status int
	}
	done := make(chan completion, 8)
	submit := func(name, url string) {
		go func() {
			status, code, _ := postStatus(t, url, adviseBody)
			if status != http.StatusOK {
				t.Errorf("%s: status %d code %q", name, status, code)
			}
			done <- completion{name, status}
		}()
	}

	submit("b0", base+"/api/v1/advise") // claims the only worker, holds
	waitForCond(t, "worker busy", func() bool {
		return readyStats(t, base)["running"] == 1
	})
	submit("b1", base+"/api/v1/advise")
	submit("b2", base+"/api/v1/advise")
	waitForCond(t, "batch queued", func() bool {
		return readyStats(t, base)["queued_batch"] == 2
	})
	submit("i0", base+"/api/v1/sessions/"+id+"/readvise")
	waitForCond(t, "interactive queued", func() bool {
		return readyStats(t, base)["queued_interactive"] == 1
	})

	// Free capacity one job at a time and watch who finishes.
	var order []string
	for i := 0; i < 4; i++ {
		tokens <- struct{}{}
		select {
		case c := <-done:
			order = append(order, c.name)
		case <-time.After(30 * time.Second):
			t.Fatalf("no completion after token %d; order so far %v", i+1, order)
		}
	}
	// b0 held the worker, so it finishes first; the interactive readvise
	// must come next, ahead of both queued batch jobs (whose mutual order
	// depends on which submission goroutine enqueued first).
	if len(order) != 4 || order[0] != "b0" || order[1] != "i0" {
		t.Fatalf("completion order %v, want [b0 i0 ...] (interactive must jump the batch queue)", order)
	}
}

// readyStats scrapes /readyz and flattens the pool numbers.
func readyStats(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Pool map[string]float64 `json:"pool"`
	}
	data, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatalf("/readyz: %v\n%s", err, data)
	}
	if body.Pool == nil {
		return map[string]float64{}
	}
	return body.Pool
}

// TestSessionEvictionAnswers410 covers both reclaim paths: an LRU-evicted
// and a TTL-expired session answer 410 Gone with code session_evicted,
// while a closed session answers 404.
func TestSessionEvictionAnswers410(t *testing.T) {
	base := startWith(t, serve.WithMaxSessions(2), serve.WithSessionTTL(150*time.Millisecond))
	api := base + "/api/v1"

	s1 := tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
	s2 := tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
	// Touch s1 so s2 is the LRU victim of the third create.
	tenantCall(t, "", "GET", api+"/sessions/"+s1, nil, http.StatusOK)
	s3 := tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)

	if status, code := envelopeCall(t, "GET", api+"/sessions/"+s2, ""); status != http.StatusGone || code != "session_evicted" {
		t.Fatalf("LRU-evicted session: %d %q, want 410 session_evicted", status, code)
	}
	// Eviction hits the what-if verbs too, not just the detail endpoint.
	if status, code := envelopeCall(t, "POST", api+"/sessions/"+s2+"/evaluate", "{}"); status != http.StatusGone || code != "session_evicted" {
		t.Fatalf("evaluate on evicted session: %d %q, want 410 session_evicted", status, code)
	}

	// TTL: the survivors expire after sitting idle past the TTL. No
	// polling Get here — every Get touches the session and would keep it
	// alive forever.
	time.Sleep(500 * time.Millisecond)
	if status, code := envelopeCall(t, "GET", api+"/sessions/"+s3, ""); status != http.StatusGone || code != "session_evicted" {
		t.Fatalf("TTL-expired session: %d %q, want 410 session_evicted", status, code)
	}

	// Explicitly closed sessions are a 404, not a 410: the client ended
	// that session itself.
	s4 := tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
	tenantCall(t, "", "DELETE", api+"/sessions/"+s4, nil, http.StatusOK)
	if status, code := envelopeCall(t, "GET", api+"/sessions/"+s4, ""); status != http.StatusNotFound || code != "session_not_found" {
		t.Fatalf("closed session: %d %q, want 404 session_not_found", status, code)
	}

	// The evictions are on the meter.
	scrape := getBody(t, base+"/metrics")
	for _, want := range []string{
		`dbdesigner_sessions_evicted_total{reason="lru"} 1`,
		`dbdesigner_sessions_evicted_total{reason="ttl"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics missing %q:\n%s", want, grepLines(scrape, "evicted"))
		}
	}
}

// TestSessionCloseDetachesImmediately: DELETE returns without waiting for
// a pooled request that is still pending against the session, and that
// request resolves to an error, never a success against a closed session.
func TestSessionCloseDetachesImmediately(t *testing.T) {
	release := make(chan struct{})
	var holds atomic.Int64
	base := startWith(t,
		serve.WithPoolSize(1),
		serve.WithQueueDepth(4),
		serve.WithAdmissionHold(func(ctx context.Context) {
			holds.Add(1)
			select {
			case <-release:
			case <-ctx.Done():
			}
		}),
	)
	api := base + "/api/v1"
	id := tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)

	// An evaluate against the session enters the pool and parks in hold.
	evalDone := make(chan int, 1)
	go func() {
		status, _, _ := postStatus(t, api+"/sessions/"+id+"/evaluate", "{}")
		evalDone <- status
	}()
	waitForCond(t, "evaluate holding", func() bool { return holds.Load() == 1 })

	// DELETE is not pooled: it must detach right now, with the worker
	// still held.
	start := time.Now()
	tenantCall(t, "", "DELETE", api+"/sessions/"+id, nil, http.StatusOK)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("DELETE took %v with a pooled request in flight; must detach immediately", elapsed)
	}
	// The session is gone from the listing immediately.
	if status, code := envelopeCall(t, "GET", api+"/sessions/"+id, ""); status != http.StatusNotFound || code != "session_not_found" {
		t.Fatalf("closed session: %d %q, want 404 session_not_found", status, code)
	}

	close(release)
	if status := <-evalDone; status == http.StatusOK {
		t.Fatal("evaluate succeeded against a session closed while it was queued")
	}
}

// TestTenantQuotaAndIsolation: per-tenant quotas reject with 429
// quota_exceeded, tenants never see each other's sessions, and closing a
// session frees its quota slot.
func TestTenantQuotaAndIsolation(t *testing.T) {
	base := startWith(t, serve.WithTenantQuota(2))
	api := base + "/api/v1"

	a1 := tenantCall(t, "acme", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
	tenantCall(t, "acme", "POST", api+"/sessions", nil, http.StatusCreated)

	req, _ := http.NewRequest("POST", api+"/sessions", nil)
	req.Header.Set("X-Tenant", "acme")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third acme session: status %d, want 429\n%s", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), `"quota_exceeded"`) {
		t.Fatalf("quota rejection body missing code quota_exceeded: %s", data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota rejection without Retry-After header")
	}

	// Other tenants (including the default one) have their own quota.
	tenantCall(t, "umbrella", "POST", api+"/sessions", nil, http.StatusCreated)
	tenantCall(t, "", "POST", api+"/sessions", nil, http.StatusCreated)

	// Tenancy isolation: umbrella cannot see or close acme's session.
	tenantCall(t, "acme", "GET", api+"/sessions/"+a1, nil, http.StatusOK)
	for _, m := range []string{"GET", "DELETE"} {
		req, _ := http.NewRequest(m, api+"/sessions/"+a1, nil)
		req.Header.Set("X-Tenant", "umbrella")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s across tenants: status %d, want 404", m, resp.StatusCode)
		}
	}

	// Closing frees the quota slot.
	tenantCall(t, "acme", "DELETE", api+"/sessions/"+a1, nil, http.StatusOK)
	tenantCall(t, "acme", "POST", api+"/sessions", nil, http.StatusCreated)
}

// TestSessionListPaginationHTTP drives ?limit/?cursor/?tenant end to end.
func TestSessionListPaginationHTTP(t *testing.T) {
	base := startWith(t)
	api := base + "/api/v1"

	var want []string
	for i := 0; i < 5; i++ {
		tenant := "acme"
		if i%2 == 1 {
			tenant = "umbrella"
		}
		id := tenantCall(t, tenant, "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
		want = append(want, id)
	}

	// Page through everything two at a time.
	var got []string
	cursor := ""
	for hops := 0; ; hops++ {
		if hops > 5 {
			t.Fatal("pagination does not terminate")
		}
		url := api + "/sessions?limit=2"
		if cursor != "" {
			url += "&cursor=" + cursor
		}
		page := tenantCall(t, "", "GET", url, nil, http.StatusOK)
		for _, raw := range page["sessions"].([]any) {
			got = append(got, raw.(map[string]any)["id"].(string))
		}
		next, ok := page["next_cursor"].(string)
		if !ok {
			break
		}
		cursor = next
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paged ids %v, want %v (creation order)", got, want)
	}

	// Tenant filter.
	page := tenantCall(t, "", "GET", api+"/sessions?tenant=umbrella", nil, http.StatusOK)
	sessions := page["sessions"].([]any)
	if len(sessions) != 2 {
		t.Fatalf("umbrella filter returned %d sessions, want 2", len(sessions))
	}
	for _, raw := range sessions {
		if tenant := raw.(map[string]any)["tenant"].(string); tenant != "umbrella" {
			t.Fatalf("filter leaked tenant %q", tenant)
		}
	}
	if _, hasNext := page["next_cursor"]; hasNext {
		t.Fatal("exhausted listing still carries next_cursor")
	}
}

// TestOperationalEndpoints exercises /healthz, /readyz, and /metrics: the
// probes answer, and one of every metric family the CI smoke job greps
// for is present after light traffic.
func TestOperationalEndpoints(t *testing.T) {
	base := startWith(t)
	api := base + "/api/v1"

	if body := getBody(t, base+"/healthz"); !strings.Contains(body, `"ok"`) {
		t.Fatalf("/healthz: %s", body)
	}
	if body := getBody(t, base+"/readyz"); !strings.Contains(body, `"ready"`) {
		t.Fatalf("/readyz: %s", body)
	}

	// Light traffic so the request counters have something to show.
	id := tenantCall(t, "acme", "POST", api+"/sessions", nil, http.StatusCreated)["id"].(string)
	tenantCall(t, "acme", "GET", api+"/sessions/"+id, nil, http.StatusOK)
	tenantCall(t, "", "GET", api+"/schema", nil, http.StatusOK)
	envelopeCall(t, "GET", api+"/sessions/nope", "")

	scrape := getBody(t, base+"/metrics")
	for _, want := range []string{
		"# TYPE dbdesigner_http_requests_total counter",
		"# TYPE dbdesigner_http_request_duration_seconds histogram",
		"# TYPE dbdesigner_admission_queue_depth gauge",
		"# TYPE dbdesigner_admission_running gauge",
		"# TYPE dbdesigner_admission_rejected_total counter",
		"# TYPE dbdesigner_sessions_evicted_total counter",
		"# TYPE dbdesigner_sessions_quota_rejected_total counter",
		"# TYPE dbdesigner_sessions_created_total counter",
		"# TYPE dbdesigner_sessions_active gauge",
		"# TYPE dbdesigner_engine_cache_full_optimizations gauge",
		"# TYPE dbdesigner_engine_cache_cached_costings gauge",
		`dbdesigner_http_requests_total{code="201",method="POST",route="/api/v1/sessions"} 1`,
		`dbdesigner_http_requests_total{code="404",method="GET",route="/api/v1/sessions/{id}"} 1`,
		`dbdesigner_sessions_active{tenant="acme"} 1`,
		"dbdesigner_sessions_created_total 1",
		`dbdesigner_http_request_duration_seconds_bucket{route="/api/v1/schema",le="+Inf"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full scrape:\n%s", scrape)
	}
}

// --------------------------------------------------------------------------
// Small helpers.
// --------------------------------------------------------------------------

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// grepLines filters a scrape down to the lines mentioning substr, for
// readable failure output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
