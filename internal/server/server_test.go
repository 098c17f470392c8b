package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xomatiq/internal/bio"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
)

const testDB = "hlx_enzyme.DEFAULT"

const testQuery = `FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme WHERE $a//enzyme_id = "1.14.17.3" RETURN $a//enzyme_description`

// enzymeFlat renders n simulated ENZYME entries as flat-file text.
func enzymeFlat(t *testing.T, n int, seed int64) string {
	t.Helper()
	var buf bytes.Buffer
	if err := bio.WriteEnzyme(&buf, bio.GenEnzymes(n, bio.GenOptions{Seed: seed})); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// testEngine opens an engine with 20 enzymes warehoused.
func testEngine(t *testing.T, mutate func(*core.Config)) *core.Engine {
	t.Helper()
	cfg := core.NewConfig(filepath.Join(t.TempDir(), "srv.db"))
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	src := hounds.NewSimSource("enzyme", enzymeFlat(t, 20, 3))
	if err := eng.RegisterSource(testDB, src, hounds.EnzymeTransformer{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Harness(testDB); err != nil {
		t.Fatal(err)
	}
	return eng
}

// testServer starts a server on ephemeral ports.
func testServer(t *testing.T, eng *core.Engine) *Server {
	t.Helper()
	srv := New(eng, Config{HTTPAddr: "127.0.0.1:0", LineAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func postQuery(t *testing.T, srv *Server, body string, extra string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/query"+extra,
		"application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestHTTPQueryMatchesEmbedded is the wire-fidelity acceptance check:
// the HTTP response body is byte-identical to the embedded Result.JSON.
func TestHTTPQueryMatchesEmbedded(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)

	want, err := eng.QueryContext(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]string{"query": testQuery})
	resp, got := postQuery(t, srv, string(body), "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(bytes.TrimSpace(got), want.JSON()) {
		t.Errorf("HTTP body differs from embedded JSON:\n http: %s\n embd: %s", got, want.JSON())
	}
	// And it round-trips back to a usable Result.
	res, err := core.ResultFromJSON(bytes.TrimSpace(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][0], "monooxygenase") {
		t.Errorf("decoded rows: %v", res.Rows)
	}
}

func TestHTTPExplainAnalyze(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	body, _ := json.Marshal(map[string]string{"query": testQuery})
	resp, got := postQuery(t, srv, string(body), "?explain=analyze")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, got)
	}
	var out map[string]string
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["report"], "actual") {
		t.Errorf("EXPLAIN ANALYZE report missing actuals:\n%s", out["report"])
	}
}

func TestHTTPErrorTaxonomy(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	cases := []struct {
		name   string
		query  string
		status int
		code   core.Code
	}{
		{"bad query", "THIS IS NOT FLWR", http.StatusBadRequest, core.CodeBadQuery},
		{"unknown db", `FOR $a IN document("nope.DEFAULT")/x RETURN $a//y`, http.StatusNotFound, core.CodeUnknownDatabase},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(map[string]string{"query": tc.query})
		resp, got := postQuery(t, srv, string(body), "")
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, resp.StatusCode, tc.status, got)
		}
		we, err := core.ErrorFromJSON(got)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if we.Code != tc.code {
			t.Errorf("%s: code = %q, want %q", tc.name, we.Code, tc.code)
		}
	}
	// The decoded wire error matches sentinels under errors.Is.
	body, _ := json.Marshal(map[string]string{"query": `FOR $a IN document("nope.DEFAULT")/x RETURN $a//y`})
	_, got := postQuery(t, srv, string(body), "")
	we, _ := core.ErrorFromJSON(got)
	if !errors.Is(we, core.ErrUnknownDatabase) {
		t.Errorf("decoded wire error does not match ErrUnknownDatabase: %v", we)
	}
}

func TestHTTPIngestStreamed(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	flat := enzymeFlat(t, 15, 7)
	resp, err := http.Post(
		"http://"+srv.HTTPAddr()+"/v1/ingest?db=hlx_fresh.DEFAULT&format=enzyme",
		"application/octet-stream", strings.NewReader(flat))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		DB      string `json:"db"`
		Entries int    `json:"entries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}
	if out.Entries != 16 { // generator emits n+1 (seed entry)
		t.Logf("entries = %d", out.Entries)
	}
	// The ingested database is immediately queryable.
	n, err := eng.DocCount("hlx_fresh.DEFAULT")
	if err != nil || n == 0 {
		t.Fatalf("DocCount after ingest: %d, %v", n, err)
	}
	if n != out.Entries {
		t.Errorf("DocCount = %d, ingest reported %d", n, out.Entries)
	}
}

func TestHTTPSessionsLifecycle(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	base := "http://" + srv.HTTPAddr()

	// Open a tagged session.
	resp, err := http.Post(base+"/v1/sessions", "application/json",
		strings.NewReader(`{"tag":"lifecycle","query_workers":1}`))
	if err != nil {
		t.Fatal(err)
	}
	var info core.SessionInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if info.ID == 0 || info.Tag != "lifecycle" {
		t.Fatalf("session info: %+v", info)
	}

	// Query inside it.
	body, _ := json.Marshal(map[string]any{"query": testQuery, "session": info.ID})
	qresp, got := postQuery(t, srv, string(body), "")
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("session query status %d: %s", qresp.StatusCode, got)
	}

	// It shows in the listing with its counters.
	lresp, err := http.Get(base + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list []core.SessionInfo
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	found := false
	for _, s := range list {
		if s.ID == info.ID {
			found = true
			if s.Queries != 1 {
				t.Errorf("session queries = %d, want 1", s.Queries)
			}
		}
	}
	if !found {
		t.Fatalf("session %d missing from listing: %+v", info.ID, list)
	}

	// Close it; further use is Gone.
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/sessions/%d", base, info.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status %d", dresp.StatusCode)
	}
	qresp2, got2 := postQuery(t, srv, string(body), "")
	if qresp2.StatusCode != http.StatusGone {
		t.Errorf("query in closed session: status %d (%s), want 410", qresp2.StatusCode, got2)
	}
}

func TestHTTPDeadlinePropagation(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	body, _ := json.Marshal(map[string]any{"query": testQuery, "deadline_ms": 1})
	resp, got := postQuery(t, srv, string(body), "")
	// 1ms may or may not expire before the query finishes on a fast
	// machine; accept OK but require that a failure is a proper 504.
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d (%s), want 200 or 504", resp.StatusCode, got)
		}
		we, err := core.ErrorFromJSON(got)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(we, context.DeadlineExceeded) {
			t.Errorf("decoded error does not match DeadlineExceeded: %v", we)
		}
	}

	// A session-level default deadline that is already unmeetable
	// always fails: open a session with 1ns-equivalent (0ms floors to
	// none, so use the embedded API to pin the behavior).
	sess, err := eng.NewSession(nil, core.WithDefaultDeadline(time.Nanosecond))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Query(context.Background(), testQuery); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("1ns session deadline: err = %v, want DeadlineExceeded", err)
	}
}

// lineDial attaches to the line protocol and returns the conn plus a
// reader positioned after the banner.
func lineDial(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.LineAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

// readUntil reads lines until one contains marker (or EOF/timeout).
func readUntil(t *testing.T, conn net.Conn, r *bufio.Reader, marker string) string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var sb strings.Builder
	for {
		b, err := r.ReadByte()
		if err != nil {
			return sb.String()
		}
		sb.WriteByte(b)
		if strings.Contains(sb.String(), marker) {
			return sb.String()
		}
	}
}

// TestLineConsoleRoundTrip is the acceptance check: a console attaches
// over TCP and round-trips a FLWR query, EXPLAIN ANALYZE and \metrics.
func TestLineConsoleRoundTrip(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	conn, r := lineDial(t, srv)

	readUntil(t, conn, r, "xomatiq> ")

	fmt.Fprintf(conn, "%s;\n", testQuery)
	out := readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "Peptidylglycine monooxygenase") || !strings.Contains(out, "1 rows, sql mode") {
		t.Errorf("remote FLWR query output:\n%s", out)
	}

	fmt.Fprintf(conn, "EXPLAIN ANALYZE %s;\n", testQuery)
	out = readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "actual") {
		t.Errorf("remote EXPLAIN ANALYZE output:\n%s", out)
	}

	fmt.Fprint(conn, "\\metrics\n")
	out = readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "query.count") {
		t.Errorf("remote \\metrics output:\n%s", out)
	}

	fmt.Fprint(conn, "\\session\n")
	out = readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "queries: 2") {
		t.Errorf("remote \\session output:\n%s", out)
	}

	// Remote \harness is refused.
	fmt.Fprint(conn, "\\harness db enzyme /etc/passwd\n")
	out = readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "disabled") {
		t.Errorf("remote \\harness should be disabled:\n%s", out)
	}

	fmt.Fprint(conn, "\\quit\n")
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Server closes the connection after \quit; drain to EOF.
	for {
		if _, err := r.ReadByte(); err != nil {
			break
		}
	}
}

func TestLineSessionShedding(t *testing.T) {
	// Cap of 2: one slot goes to the server's shared HTTP session at
	// Start, the other to the first line connection.
	eng := testEngine(t, func(c *core.Config) { c.MaxSessions = 2 })
	srv := testServer(t, eng)

	conn1, r1 := lineDial(t, srv)
	readUntil(t, conn1, r1, "xomatiq> ")

	conn2, r2 := lineDial(t, srv)
	out := readUntil(t, conn2, r2, "\n")
	if !strings.Contains(out, "too many sessions") {
		t.Errorf("second connection should be shed: %q", out)
	}
}

func TestHTTPInflightShedding(t *testing.T) {
	eng := testEngine(t, func(c *core.Config) { c.MaxInflightQueries = 1 })
	srv := testServer(t, eng)

	// Saturate the single slot with a slow query via a session holding
	// the admission gauge, then watch a second query shed.
	sess, err := eng.NewSession(nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	release, err := sess.Admit()
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	body, _ := json.Marshal(map[string]string{"query": testQuery})
	resp, got := postQuery(t, srv, string(body), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, got)
	}
	we, err := core.ErrorFromJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(we, core.ErrOverloaded) {
		t.Errorf("decoded error does not match ErrOverloaded: %v", we)
	}

	// Releasing the slot un-sheds.
	release()
	resp2, got2 := postQuery(t, srv, string(body), "")
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("after release: status %d (%s)", resp2.StatusCode, got2)
	}
}

// TestConcurrentClients is the load acceptance check: N HTTP clients
// mixing queries and ingest under -race, with every query result
// byte-identical to the embedded engine's.
func TestConcurrentClients(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)

	want, err := eng.QueryContext(context.Background(), testQuery)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := want.JSON()

	const clients = 8
	const perClient = 5
	var wg sync.WaitGroup
	errc := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if c%4 == 3 && i == 2 {
					// One in four clients also streams an ingest into
					// its own database mid-run.
					db := fmt.Sprintf("hlx_load_%d.DEFAULT", c)
					flat := enzymeFlat(t, 5, int64(100+c))
					resp, err := http.Post(
						"http://"+srv.HTTPAddr()+"/v1/ingest?db="+db+"&format=enzyme",
						"application/octet-stream", strings.NewReader(flat))
					if err != nil {
						errc <- err
						continue
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("client %d ingest status %d", c, resp.StatusCode)
					}
					continue
				}
				body, _ := json.Marshal(map[string]string{"query": testQuery})
				resp, err := http.Post("http://"+srv.HTTPAddr()+"/v1/query",
					"application/json", strings.NewReader(string(body)))
				if err != nil {
					errc <- err
					continue
				}
				var buf bytes.Buffer
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("client %d status %d: %s", c, resp.StatusCode, buf.String())
					continue
				}
				if got := bytes.TrimSpace(buf.Bytes()); !bytes.Equal(got, wantJSON) {
					errc <- fmt.Errorf("client %d result differs:\n got: %s\nwant: %s", c, got, wantJSON)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestShutdownDrains checks graceful shutdown: a line connection
// mid-session finishes its REPL before the server stops.
func TestShutdownDrains(t *testing.T) {
	eng := testEngine(t, nil)
	srv := New(eng, Config{HTTPAddr: "127.0.0.1:0", LineAddr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	conn, r := lineDial(t, srv)
	readUntil(t, conn, r, "xomatiq> ")

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()

	// The existing connection still works during the drain window.
	fmt.Fprintf(conn, "%s;\n", testQuery)
	out := readUntil(t, conn, r, "xomatiq> ")
	if !strings.Contains(out, "1 rows") {
		t.Errorf("query during drain failed:\n%s", out)
	}
	fmt.Fprint(conn, "\\quit\n")
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}

	// New connections are refused after shutdown began.
	if c, err := net.Dial("tcp", srv.LineAddr()); err == nil {
		c.Close()
		// Accept loop is stopped; the dial may still connect before the
		// listener close propagates, but no banner will arrive.
	}
}

// postJSON posts a JSON body to path and returns the response and body.
func postJSON(t *testing.T, srv *Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+srv.HTTPAddr()+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// TestHTTPTransactions drives the /v1/tx surface: snapshot-stable reads
// on the session while a load commits, commit, and the error taxonomy
// for the closed/missing cases.
func TestHTTPTransactions(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)

	// Transactions need a named session.
	resp, _ := postJSON(t, srv, "/v1/tx", `{}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tx begin without session: status %d, want 400", resp.StatusCode)
	}

	_, body := postJSON(t, srv, "/v1/sessions", `{"tag":"txtest"}`)
	var info core.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	sessRef := fmt.Sprintf(`{"session":%d}`, info.ID)

	// Rollback with no open transaction → tx_closed (410).
	resp, body = postJSON(t, srv, "/v1/tx/rollback", sessRef)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("rollback without tx: status %d (%s), want 410", resp.StatusCode, body)
	}
	if we, err := core.ErrorFromJSON(body); err != nil || !errors.Is(we, core.ErrTxClosed) {
		t.Fatalf("rollback without tx body %s: want ErrTxClosed", body)
	}

	resp, body = postJSON(t, srv, "/v1/tx", sessRef)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tx begin: status %d (%s)", resp.StatusCode, body)
	}

	countQ := `{"query":"FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme RETURN $a//enzyme_id","session":` + fmt.Sprint(info.ID) + `}`
	_, body = postQuery(t, srv, countQ, "")
	res, err := core.ResultFromJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Rows)

	// A load commits mid-transaction; the session still reads its pin.
	if _, err := eng.HarnessReaderContext(context.Background(), testDB,
		hounds.EnzymeTransformer{}, strings.NewReader(enzymeFlat(t, 33, 3)), "v2"); err != nil {
		t.Fatal(err)
	}
	_, body = postQuery(t, srv, countQ, "")
	if res, err = core.ResultFromJSON(body); err != nil || len(res.Rows) != before {
		t.Fatalf("query inside tx sees %d rows (%v), want the pinned %d", len(res.Rows), err, before)
	}

	resp, body = postJSON(t, srv, "/v1/tx/commit", sessRef)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tx commit: status %d (%s)", resp.StatusCode, body)
	}
	_, body = postQuery(t, srv, countQ, "")
	if res, err = core.ResultFromJSON(body); err != nil || len(res.Rows) != 34 {
		t.Fatalf("query after commit sees %d rows (%v), want 34", len(res.Rows), err)
	}

	// Double Begin on the session → tx_active (409).
	postJSON(t, srv, "/v1/tx", sessRef)
	resp, body = postJSON(t, srv, "/v1/tx", sessRef)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("second begin: status %d (%s), want 409", resp.StatusCode, body)
	}
	if we, err := core.ErrorFromJSON(body); err != nil || !errors.Is(we, core.ErrTxActive) {
		t.Fatalf("second begin body %s: want ErrTxActive", body)
	}
}

// TestHTTPRequestBodyDecoding sends each /v1 JSON endpoint an ill-typed
// body, a body with an unknown field and an empty body. The first two
// are refused as bad_query; an empty body opens a session with the
// defaults and is refused where the endpoint needs a field.
func TestHTTPRequestBodyDecoding(t *testing.T) {
	eng := testEngine(t, nil)
	srv := testServer(t, eng)
	_, body := postJSON(t, srv, "/v1/sessions", `{"tag":"decode"}`)
	var info core.SessionInfo
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	sessions := len(eng.Sessions())
	query, _ := json.Marshal(testQuery)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/query", `{"query":5}`, http.StatusBadRequest},
		{"/v1/query", `{"query":` + string(query) + `,"sesion":1}`, http.StatusBadRequest},
		{"/v1/query", ``, http.StatusBadRequest},
		{"/v1/sessions", `{"deadline_ms":"5s"}`, http.StatusBadRequest},
		{"/v1/sessions", `{"tag":"x","deadline":5000}`, http.StatusBadRequest},
		{"/v1/sessions", ``, http.StatusOK},
		{"/v1/tx", fmt.Sprintf(`{"session":%d,"read_only":"yes"}`, info.ID), http.StatusBadRequest},
		{"/v1/tx", fmt.Sprintf(`{"session":%d,"readonly":true}`, info.ID), http.StatusBadRequest},
		{"/v1/tx", ``, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, got := postJSON(t, srv, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("POST %s %q: status %d (%s), want %d", tc.path, tc.body, resp.StatusCode, got, tc.status)
			continue
		}
		if tc.status == http.StatusOK {
			continue
		}
		if we, err := core.ErrorFromJSON(got); err != nil || we.Code != core.CodeBadQuery {
			t.Errorf("POST %s %q: body %s, want code %q", tc.path, tc.body, got, core.CodeBadQuery)
		}
	}
	if open := len(eng.Sessions()); open != sessions+1 {
		t.Errorf("%d sessions open, want %d: only the empty body opens one", open, sessions+1)
	}
}
