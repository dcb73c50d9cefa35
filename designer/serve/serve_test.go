package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/designer"
	"repro/designer/serve"
)

// start boots a server over a tiny dataset on an ephemeral port and
// returns its base URL plus a cleanup-registered shutdown.
func start(t *testing.T) string {
	t.Helper()
	d, err := designer.OpenSDSS("tiny", 41)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(d)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// A connection the client dialed but never used looks new to the
		// server, and Shutdown waits 5 s on new connections.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return "http://" + s.Addr() + "/api/v1"
}

// call performs one JSON request and decodes the response body.
func call(t *testing.T, method, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
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

const testSQL = "SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"

func TestSessionRoundTrip(t *testing.T) {
	base := start(t)

	health := call(t, "GET", base+"/health", nil, http.StatusOK)
	if health["status"] != "ok" {
		t.Fatalf("health = %v", health)
	}
	schema := call(t, "GET", base+"/schema", nil, http.StatusOK)
	if !strings.Contains(fmt.Sprint(schema), "photoobj") {
		t.Fatalf("schema missing photoobj: %v", schema)
	}

	created := call(t, "POST", base+"/sessions", nil, http.StatusCreated)
	id := created["id"].(string)

	ix := call(t, "POST", base+"/sessions/"+id+"/indexes",
		map[string]any{"table": "photoobj", "columns": []string{"psfmag_r"}}, http.StatusCreated)
	if ix["key"] != "photoobj(psfmag_r)" {
		t.Fatalf("index = %v", ix)
	}

	rep := call(t, "POST", base+"/sessions/"+id+"/evaluate",
		map[string]any{"sql": []string{testSQL}}, http.StatusOK)
	if rep["base_total"].(float64) <= rep["new_total"].(float64) {
		t.Fatalf("index should help the range scan: %v", rep)
	}

	plan := call(t, "POST", base+"/sessions/"+id+"/explain",
		map[string]any{"sql": testSQL}, http.StatusOK)
	if !strings.Contains(plan["plan"].(string), "whatif_photoobj_psfmag_r") {
		t.Fatalf("plan under the design should use the what-if index:\n%v", plan["plan"])
	}

	list := call(t, "GET", base+"/sessions", nil, http.StatusOK)
	if n := len(list["sessions"].([]any)); n != 1 {
		t.Fatalf("sessions = %d, want 1", n)
	}

	call(t, "DELETE", base+"/sessions/"+id+"/indexes?key=photoobj(psfmag_r)", nil, http.StatusOK)
	call(t, "DELETE", base+"/sessions/"+id, nil, http.StatusOK)
	call(t, "GET", base+"/sessions/"+id, nil, http.StatusNotFound)
}

func TestAdviseOverHTTP(t *testing.T) {
	base := start(t)
	resp := call(t, "POST", base+"/advise", map[string]any{
		"sql":          []string{testSQL},
		"interactions": true,
	}, http.StatusOK)
	if _, ok := resp["indexes"].([]any); !ok {
		t.Fatalf("no indexes in %v", resp)
	}
	if !strings.Contains(resp["ddl"].(string), "CREATE INDEX") {
		t.Fatalf("ddl missing: %v", resp["ddl"])
	}
	if resp["solver"] == nil || resp["report"] == nil {
		t.Fatalf("missing solver/report: %v", resp)
	}
}

func TestTunerOverHTTP(t *testing.T) {
	base := start(t)
	call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	for i := 0; i < 3; i++ {
		call(t, "POST", base+"/tuner/observe",
			map[string]any{"sql": []string{testSQL, testSQL}}, http.StatusOK)
	}
	status := call(t, "GET", base+"/tuner/status", nil, http.StatusOK)
	if status["active"] != true {
		t.Fatalf("tuner inactive: %v", status)
	}
	if len(status["epochs"].([]any)) == 0 {
		t.Fatalf("no epochs after 6 observed queries with epoch_length 4: %v", status)
	}
}

func TestTunerStreamDisconnects(t *testing.T) {
	base := start(t)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/tuner/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type = %q", ct)
	}
	// Read the stream preamble, then hang up; the handler must return.
	buf := make([]byte, 32)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
}

// TestConcurrentSessions is the race-soak required by the service layer:
// many goroutines drive independent what-if sessions (create → add-index →
// evaluate → close) while advice, materialization, and tuner traffic runs
// concurrently. Run under -race this exercises the session mutexes, the
// designer's store lock, and the engine's generation pinning.
func TestConcurrentSessions(t *testing.T) {
	base := start(t)
	const sessions = 10

	columns := []string{"psfmag_r", "ra", "dec", "type", "rowc", "colc", "airmass_r", "objid"}
	var wg sync.WaitGroup
	errCh := make(chan error, sessions+3)

	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errCh <- fmt.Errorf("session %d panicked: %v", i, r)
				}
			}()
			col := columns[i%len(columns)]
			created := call(t, "POST", base+"/sessions", nil, http.StatusCreated)
			id := created["id"].(string)
			call(t, "POST", base+"/sessions/"+id+"/indexes",
				map[string]any{"table": "photoobj", "columns": []string{col}}, http.StatusCreated)
			rep := call(t, "POST", base+"/sessions/"+id+"/evaluate",
				map[string]any{"sql": []string{fmt.Sprintf("SELECT objid FROM photoobj WHERE %s IS NOT NULL", col)}},
				http.StatusOK)
			if rep["base_total"].(float64) <= 0 {
				errCh <- fmt.Errorf("session %d: degenerate evaluation %v", i, rep)
			}
			call(t, "DELETE", base+"/sessions/"+id, nil, http.StatusOK)
		}(i)
	}

	// Concurrent automatic advice.
	wg.Add(1)
	go func() {
		defer wg.Done()
		call(t, "POST", base+"/advise", map[string]any{"sql": []string{testSQL}}, http.StatusOK)
	}()
	// Concurrent materialization (reconfigures the engine mid-flight; open
	// sessions stay pinned to their generation).
	wg.Add(1)
	go func() {
		defer wg.Done()
		call(t, "POST", base+"/materialize", map[string]any{
			"indexes": []map[string]any{{"table": "specobj", "columns": []string{"z"}}},
		}, http.StatusOK)
	}()
	// Concurrent tuner observation (the tuner must exist first: observing a
	// never-configured tuner is a 404).
	call(t, "POST", base+"/tuner", nil, http.StatusCreated)
	wg.Add(1)
	go func() {
		defer wg.Done()
		call(t, "POST", base+"/tuner/observe", map[string]any{"sql": []string{testSQL}}, http.StatusOK)
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// All sessions closed; server still healthy.
	health := call(t, "GET", base+"/health", nil, http.StatusOK)
	if health["sessions"].(float64) != 0 {
		t.Fatalf("sessions leaked: %v", health)
	}
}

func TestGracefulShutdown(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 43)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(d)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr() + "/api/v1"

	// An in-flight advise run started before shutdown must complete: the
	// graceful path drains active requests instead of cutting them off.
	done := make(chan error, 1)
	go func() {
		body := bytes.NewReader([]byte(`{"sql": ["` + testSQL + `"]}`))
		resp, err := http.Post(base+"/advise", "application/json", body)
		if err != nil {
			done <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			data, _ := io.ReadAll(resp.Body)
			done <- fmt.Errorf("advise during shutdown: status %d: %s", resp.StatusCode, data)
			return
		}
		done <- nil
	}()
	time.Sleep(100 * time.Millisecond) // let the request reach the handler

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request not drained: %v", err)
	}

	// After shutdown the port no longer accepts.
	if _, err := http.Get(base + "/health"); err == nil {
		t.Fatal("server still accepting after Shutdown")
	}
}

// rawCall performs one request with a raw (possibly malformed) body and
// returns only the status code.
func rawCall(t *testing.T, method, url, body string) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// envelopeCall performs one request with a raw (possibly malformed) body
// and returns the status plus the machine-readable code out of the error
// envelope ("" on a 2xx, or when no envelope came back).
func envelopeCall(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode < 400 {
		return resp.StatusCode, ""
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("%s %s: non-2xx response is not an error envelope: %v\n%s", method, url, err, data)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("%s %s: envelope missing code or message: %s", method, url, data)
	}
	return resp.StatusCode, env.Error.Code
}

// TestErrorMappingAllHandlers is the table-driven audit of every handler's
// failure paths: each must return the right HTTP status AND the right
// stable machine-readable code in the error envelope — never a 500, never
// a bare string body. The table runs in three phases because the tuner
// cases depend on whether a tuner exists.
func TestErrorMappingAllHandlers(t *testing.T) {
	base := start(t)

	type tc struct {
		name   string
		method string
		path   string
		body   string // raw JSON; "" = no body
		want   int
		code   string // expected envelope code ("" for 2xx)
	}

	const malformed = `{"oops": `
	run := func(cases []tc) {
		t.Helper()
		for _, c := range cases {
			got, code := envelopeCall(t, c.method, base+c.path, c.body)
			if got != c.want || code != c.code {
				t.Errorf("%s: %s %s body=%q: status %d code %q, want %d %q",
					c.name, c.method, c.path, c.body, got, code, c.want, c.code)
			}
		}
	}

	// Phase 1: no sessions, no tuner.
	run([]tc{
		{"session get unknown id", "GET", "/sessions/nope", "", http.StatusNotFound, "session_not_found"},
		{"session close unknown id", "DELETE", "/sessions/nope", "", http.StatusNotFound, "session_not_found"},
		{"add index unknown session", "POST", "/sessions/nope/indexes", `{"table":"photoobj","columns":["ra"]}`, http.StatusNotFound, "session_not_found"},
		{"drop index unknown session", "DELETE", "/sessions/nope/indexes?key=photoobj(ra)", "", http.StatusNotFound, "session_not_found"},
		{"vertical unknown session", "POST", "/sessions/nope/partitions/vertical", `{"table":"photoobj"}`, http.StatusNotFound, "session_not_found"},
		{"horizontal unknown session", "POST", "/sessions/nope/partitions/horizontal", `{"table":"photoobj","column":"ra","fragments":2}`, http.StatusNotFound, "session_not_found"},
		{"evaluate unknown session", "POST", "/sessions/nope/evaluate", `{}`, http.StatusNotFound, "session_not_found"},
		{"explain unknown session", "POST", "/sessions/nope/explain", `{"sql":"SELECT objid FROM photoobj"}`, http.StatusNotFound, "session_not_found"},
		{"session create malformed body", "POST", "/sessions", malformed, http.StatusBadRequest, "invalid_request"},
		{"session create unknown backend", "POST", "/sessions", `{"backend":"voodoo"}`, http.StatusBadRequest, "invalid_request"},
		{"session create replay without trace", "POST", "/sessions", `{"backend":"replay"}`, http.StatusBadRequest, "invalid_request"},
		{"session list bad limit", "GET", "/sessions?limit=banana", "", http.StatusBadRequest, "invalid_request"},
		{"session list bad cursor", "GET", "/sessions?cursor=@@@", "", http.StatusBadRequest, "invalid_request"},
		{"advise malformed body", "POST", "/advise", malformed, http.StatusBadRequest, "invalid_request"},
		{"advise wrong field type", "POST", "/advise", `{"sql": "not-a-list"}`, http.StatusBadRequest, "invalid_request"},
		{"advise bad workload sql", "POST", "/advise", `{"sql":["SELECT broken FROM nowhere"]}`, http.StatusBadRequest, "invalid_request"},
		{"materialize malformed body", "POST", "/materialize", malformed, http.StatusBadRequest, "invalid_request"},
		{"materialize empty index list", "POST", "/materialize", `{}`, http.StatusBadRequest, "invalid_request"},
		{"materialize unknown table", "POST", "/materialize", `{"indexes":[{"table":"nosuch","columns":["x"]}]}`, http.StatusBadRequest, "invalid_request"},
		{"tuner create malformed body", "POST", "/tuner", malformed, http.StatusBadRequest, "invalid_request"},
		{"tuner status before create", "GET", "/tuner/status", "", http.StatusNotFound, "tuner_not_configured"},
		{"tuner observe before create", "POST", "/tuner/observe", `{"sql":["SELECT objid FROM photoobj"]}`, http.StatusNotFound, "tuner_not_configured"},
	})

	// Phase 2: against a live session.
	created := call(t, "POST", base+"/sessions", nil, http.StatusCreated)
	id := created["id"].(string)
	sp := "/sessions/" + id
	run([]tc{
		{"add index malformed body", "POST", sp + "/indexes", malformed, http.StatusBadRequest, "invalid_request"},
		{"add index empty body", "POST", sp + "/indexes", "", http.StatusBadRequest, "invalid_request"},
		{"add index unknown table", "POST", sp + "/indexes", `{"table":"nosuch","columns":["x"]}`, http.StatusBadRequest, "invalid_request"},
		{"add index unknown column", "POST", sp + "/indexes", `{"table":"photoobj","columns":["nope"]}`, http.StatusBadRequest, "invalid_request"},
		{"add index no columns", "POST", sp + "/indexes", `{"table":"photoobj"}`, http.StatusBadRequest, "invalid_request"},
		{"drop index missing key", "DELETE", sp + "/indexes", "", http.StatusBadRequest, "invalid_request"},
		{"drop index unknown key", "DELETE", sp + "/indexes?key=photoobj(nope)", "", http.StatusNotFound, "index_not_found"},
		{"vertical malformed body", "POST", sp + "/partitions/vertical", malformed, http.StatusBadRequest, "invalid_request"},
		{"vertical unknown table", "POST", sp + "/partitions/vertical", `{"table":"nosuch","fragments":[["x"]]}`, http.StatusBadRequest, "invalid_request"},
		{"vertical incomplete layout", "POST", sp + "/partitions/vertical", `{"table":"photoobj","fragments":[["ra"]]}`, http.StatusBadRequest, "invalid_request"},
		{"horizontal malformed body", "POST", sp + "/partitions/horizontal", malformed, http.StatusBadRequest, "invalid_request"},
		{"horizontal unknown column", "POST", sp + "/partitions/horizontal", `{"table":"photoobj","column":"nope","fragments":2}`, http.StatusBadRequest, "invalid_request"},
		{"horizontal one fragment", "POST", sp + "/partitions/horizontal", `{"table":"photoobj","column":"ra","fragments":1}`, http.StatusBadRequest, "invalid_request"},
		{"evaluate malformed body", "POST", sp + "/evaluate", malformed, http.StatusBadRequest, "invalid_request"},
		{"evaluate bad sql", "POST", sp + "/evaluate", `{"sql":["SELECT broken FROM nowhere"]}`, http.StatusBadRequest, "invalid_request"},
		{"explain malformed body", "POST", sp + "/explain", malformed, http.StatusBadRequest, "invalid_request"},
		{"explain missing sql", "POST", sp + "/explain", `{}`, http.StatusBadRequest, "invalid_request"},
		{"explain bad sql", "POST", sp + "/explain", `{"sql":"SELECT broken FROM nowhere"}`, http.StatusBadRequest, "invalid_request"},
	})

	// Phase 3: tuner configured; body validation still maps to 400.
	call(t, "POST", base+"/tuner", map[string]any{"epoch_length": 4}, http.StatusCreated)
	run([]tc{
		{"tuner observe malformed body", "POST", "/tuner/observe", malformed, http.StatusBadRequest, "invalid_request"},
		{"tuner observe empty sql", "POST", "/tuner/observe", `{}`, http.StatusBadRequest, "invalid_request"},
		{"tuner observe bad sql", "POST", "/tuner/observe", `{"sql":["SELECT broken FROM nowhere"]}`, http.StatusBadRequest, "invalid_request"},
		{"tuner status after create", "GET", "/tuner/status", "", http.StatusOK, ""},
	})

	// An oversized body (over the 1 MiB cap) is a 400, not a hang or a 500.
	big := `{"sql":["` + strings.Repeat("x", 1<<20+1024) + `"]}`
	if got, code := envelopeCall(t, "POST", base+"/advise", big); got != http.StatusBadRequest || code != "invalid_request" {
		t.Errorf("oversized body: status %d code %q, want 400 invalid_request", got, code)
	}
}

// TestSessionBackendOverHTTP drives the per-session backend field: a
// calibrated session evaluates the same design with different absolute
// costs than a native one, and both report their backend in session
// metadata.
func TestSessionBackendOverHTTP(t *testing.T) {
	base := start(t)

	evalTotal := func(backend string) float64 {
		body := map[string]any{}
		if backend != "" {
			body["backend"] = backend
		}
		created := call(t, "POST", base+"/sessions", body, http.StatusCreated)
		id := created["id"].(string)
		wantKind := backend
		if wantKind == "" {
			wantKind = "native"
		}
		if created["backend"] != wantKind {
			t.Fatalf("create reported backend %v, want %s", created["backend"], wantKind)
		}
		detail := call(t, "GET", base+"/sessions/"+id, nil, http.StatusOK)
		if detail["backend"] != wantKind {
			t.Fatalf("detail reported backend %v, want %s", detail["backend"], wantKind)
		}
		call(t, "POST", base+"/sessions/"+id+"/indexes",
			map[string]any{"table": "photoobj", "columns": []string{"psfmag_r"}}, http.StatusCreated)
		rep := call(t, "POST", base+"/sessions/"+id+"/evaluate",
			map[string]any{"sql": []string{testSQL}}, http.StatusOK)
		if rep["new_total"].(float64) >= rep["base_total"].(float64) {
			t.Fatalf("backend %q: index should help: %v", backend, rep)
		}
		return rep["new_total"].(float64)
	}

	native := evalTotal("")
	calibrated := evalTotal("calibrated")
	if native == calibrated {
		t.Fatalf("calibrated session returned native costs (%v) — per-session backend not applied", native)
	}

	// The schema endpoint reports the designer-wide backend.
	schema := call(t, "GET", base+"/schema", nil, http.StatusOK)
	be, ok := schema["backend"].(map[string]any)
	if !ok || be["kind"] != "native" {
		t.Fatalf("schema backend = %v", schema["backend"])
	}
}

// TestShutdownWithOpenStream covers the long-lived-handler path: an open
// SSE alert stream must not hold graceful shutdown hostage — Shutdown
// closes the stream promptly instead of waiting out the grace period.
func TestShutdownWithOpenStream(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 44)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(d)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + s.Addr() + "/api/v1"

	streamDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/tuner/stream")
		if err != nil {
			streamDone <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.ReadAll(resp.Body) // returns when the server ends the stream
		streamDone <- err
	}()
	time.Sleep(300 * time.Millisecond) // let the stream attach

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with open stream: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v with an open stream", elapsed)
	}
	select {
	case <-streamDone:
	case <-time.After(2 * time.Second):
		t.Fatal("stream client still blocked after shutdown")
	}
}

// TestShutdownClosesUnusedConnection: a client connection that never sends
// a request must not outlive Shutdown's deadline. net/http's Shutdown waits
// 5 s on such a connection; Shutdown closes it once its context expires.
func TestShutdownClosesUnusedConnection(t *testing.T) {
	d, err := designer.OpenSDSS("tiny", 45)
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(d)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown drained a connection that never sent a request")
	}
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("unused connection still open after shutdown: read = %v, want EOF", err)
	}
}

// TestAdviseNotAliasedAcrossRequests is the regression test for the INUM
// ID-collision bug: two consecutive /advise requests whose workloads reuse
// query IDs (q0, q1, ... per WorkloadFromSQL call) must each be priced and
// advised for their own SQL, not the previous request's cached plans.
func TestAdviseNotAliasedAcrossRequests(t *testing.T) {
	base := start(t)

	first := call(t, "POST", base+"/advise",
		map[string]any{"sql": []string{"SELECT psfmag_r FROM photoobj WHERE psfmag_r < 14"}}, http.StatusOK)
	second := call(t, "POST", base+"/advise",
		map[string]any{"sql": []string{"SELECT objid FROM neighbors WHERE distance < 0.01"}}, http.StatusOK)

	keysOf := func(resp map[string]any) []string {
		var keys []string
		for _, v := range resp["indexes"].([]any) {
			keys = append(keys, v.(map[string]any)["key"].(string))
		}
		return keys
	}
	for _, k := range keysOf(first) {
		if strings.HasPrefix(k, "neighbors") {
			t.Fatalf("first advise (photoobj query) recommended %s", k)
		}
	}
	secondKeys := keysOf(second)
	if len(secondKeys) == 0 {
		t.Fatal("second advise returned nothing for a selective neighbors query")
	}
	for _, k := range secondKeys {
		if strings.HasPrefix(k, "photoobj") {
			t.Fatalf("second advise priced against the first request's cached plans: recommended %s for a neighbors-only workload", k)
		}
	}
}
