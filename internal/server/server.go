// Package server puts a network front on the XomatiQ engine: an
// HTTP/JSON API for programs and a newline-delimited line protocol for
// interactive consoles. Both ride the session layer — every remote
// client maps to a core.Session, so deadlines, worker overrides,
// admission control and per-session stats behave identically to the
// embedded API — and both serialize errors through the stable
// core.Error taxonomy, so a remote caller can errors.Is-match the same
// sentinels an embedded caller does.
//
// HTTP surface:
//
//	POST /v1/query             run a FLWR query; ?explain=analyze for the
//	                           executed plan; body {"query": ...}
//	POST /v1/ingest            stream a flat file into the load pipeline;
//	                           ?db=&format=&version=
//	GET  /v1/sessions          list open sessions
//	POST /v1/sessions          open a session ({"tag","deadline_ms","query_workers"})
//	DELETE /v1/sessions/{id}   close a session
//	POST /v1/tx                begin a transaction on a session
//	                           ({"session": N, "read_only": bool}); queries
//	                           sent with that session id then read the
//	                           transaction's pinned snapshot
//	POST /v1/tx/commit         commit the session's open transaction
//	POST /v1/tx/rollback       roll back the session's open transaction
//	GET  /metrics              flat text dump of every engine counter
//
// Line protocol (one TCP connection = one session): the server runs
// the internal/console REPL on its end of the connection, so the full
// \-command surface of the local console works remotely; the client
// (xomatiq -connect) is a dumb pipe.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"xomatiq/internal/console"
	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/obs"
)

// Config sets the listen addresses. Empty disables that listener.
// Admission limits (max sessions, max in-flight queries) live in
// core.Config — the engine enforces them for every entry path.
type Config struct {
	// HTTPAddr is the HTTP/JSON listen address (e.g. ":8080").
	HTTPAddr string
	// LineAddr is the line-protocol listen address (e.g. ":7979").
	LineAddr string
}

// Server serves one engine over HTTP and the line protocol.
type Server struct {
	eng *core.Engine
	cfg Config

	httpSrv  *http.Server
	httpLn   net.Listener
	lineLn   net.Listener
	lineWG   sync.WaitGroup
	lineMu   sync.Mutex
	lineConn map[net.Conn]bool

	// sess is the server's shared session for HTTP requests that don't
	// name one; per-request deadlines still apply via request contexts.
	sess *core.Session
}

// New builds a server over an open engine.
func New(eng *core.Engine, cfg Config) *Server {
	return &Server{eng: eng, cfg: cfg, lineConn: map[net.Conn]bool{}}
}

// Start binds the configured listeners and begins serving in
// background goroutines. Use HTTPAddr/LineAddr for the bound
// addresses (useful with ":0") and Shutdown to stop.
func (s *Server) Start() error {
	sess, err := s.eng.NewSession(nil, core.WithSessionTag("http"))
	if err != nil {
		return err
	}
	s.sess = sess
	if s.cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.HTTPAddr)
		if err != nil {
			s.closeStarted()
			return err
		}
		s.httpLn = ln
		s.httpSrv = &http.Server{Handler: s.handler()}
		go s.httpSrv.Serve(ln)
	}
	if s.cfg.LineAddr != "" {
		ln, err := net.Listen("tcp", s.cfg.LineAddr)
		if err != nil {
			s.closeStarted()
			return err
		}
		s.lineLn = ln
		go s.acceptLines(ln)
	}
	return nil
}

// closeStarted unwinds a partial Start.
func (s *Server) closeStarted() {
	if s.sess != nil {
		s.sess.Close()
	}
	if s.httpLn != nil {
		s.httpLn.Close()
	}
	if s.lineLn != nil {
		s.lineLn.Close()
	}
}

// HTTPAddr reports the bound HTTP address ("" if disabled).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

// LineAddr reports the bound line-protocol address ("" if disabled).
func (s *Server) LineAddr() string {
	if s.lineLn == nil {
		return ""
	}
	return s.lineLn.Addr().String()
}

// Shutdown drains gracefully: it stops accepting new work, waits for
// in-flight HTTP requests and line connections to finish, and — once
// the context expires — force-cancels what remains by closing their
// sessions and connections.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	if s.lineLn != nil {
		s.lineLn.Close()
		done := make(chan struct{})
		go func() { s.lineWG.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			// Drain deadline passed: cut the stragglers loose.
			s.lineMu.Lock()
			for c := range s.lineConn {
				c.Close()
			}
			s.lineMu.Unlock()
			<-done
		}
	}
	if s.sess != nil {
		s.sess.Close()
	}
	return httpErr
}

// ---- line protocol ----

// acceptLines serves the line protocol: one connection, one session,
// one server-side console REPL.
func (s *Server) acceptLines(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.lineWG.Add(1)
		s.lineMu.Lock()
		s.lineConn[conn] = true
		s.lineMu.Unlock()
		go func() {
			defer func() {
				s.lineMu.Lock()
				delete(s.lineConn, conn)
				s.lineMu.Unlock()
				conn.Close()
				s.lineWG.Done()
			}()
			s.serveLine(conn)
		}()
	}
}

// serveLine runs the console REPL over one connection. Session
// admission applies: past MaxSessions the client gets one error line
// and the connection closes.
func (s *Server) serveLine(conn net.Conn) {
	sess, err := s.eng.NewSession(nil,
		core.WithSessionTag("line:"+conn.RemoteAddr().String()))
	if err != nil {
		fmt.Fprintf(conn, "error: %s\n", core.WireError(err).Message)
		return
	}
	defer sess.Close()
	fmt.Fprintf(conn, "XomatiQ server — session %d. \\quit detaches.\n", sess.ID())
	console.New(sess, console.WithoutHarness()).Run(conn, conn)
}

// ---- HTTP ----

func (s *Server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/ingest", s.handleIngest)
	mux.HandleFunc("/v1/sessions", s.handleSessions)
	mux.HandleFunc("/v1/sessions/", s.handleSessionByID)
	mux.HandleFunc("/v1/tx", s.handleTxBegin)
	mux.HandleFunc("/v1/tx/commit", s.handleTxFinish(func(tx *core.Tx) error { return tx.Commit() }))
	mux.HandleFunc("/v1/tx/rollback", s.handleTxFinish(func(tx *core.Tx) error { return tx.Rollback() }))
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// httpStatus maps the error taxonomy onto HTTP statuses.
func httpStatus(code core.Code) int {
	switch code {
	case core.CodeBadQuery, core.CodeUnsupported:
		return http.StatusBadRequest
	case core.CodeUnknownDatabase, core.CodeNoSource:
		return http.StatusNotFound
	case core.CodeDuplicateSource, core.CodeTxConflict, core.CodeTxActive:
		return http.StatusConflict
	case core.CodeTxReadOnly:
		return http.StatusBadRequest
	case core.CodeSessionClosed, core.CodeTxClosed:
		return http.StatusGone
	case core.CodeTooManySessions, core.CodeOverloaded:
		return http.StatusTooManyRequests
	case core.CodeDeadline:
		return http.StatusGatewayTimeout
	case core.CodeCanceled:
		// Client went away; the status is moot but 499 is the
		// conventional marker.
		return 499
	default:
		return http.StatusInternalServerError
	}
}

// writeError serializes err through the wire taxonomy.
func writeError(w http.ResponseWriter, err error) {
	we := core.WireError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(httpStatus(we.Code))
	json.NewEncoder(w).Encode(we)
}

// decodeBody decodes a /v1 JSON request body of at most limit bytes
// into v, refusing unknown fields. An empty body is io.EOF.
func decodeBody(r *http.Request, limit int64, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, limit))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeBadBody answers a request whose body did not decode.
func writeBadBody(w http.ResponseWriter, err error) {
	writeError(w, &core.Error{Code: core.CodeBadQuery, Message: "bad request body: " + err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// queryRequest is the /v1/query body.
type queryRequest struct {
	Query string `json:"query"`
	// Session runs the query inside a named session opened via
	// POST /v1/sessions; 0 uses the server's shared HTTP session.
	Session uint64 `json:"session,omitempty"`
	// DeadlineMS bounds this one query; it rides the request context,
	// so client disconnects cancel too.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// handleQuery runs one query. ?explain=analyze returns the executed
// plan report instead of rows.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req queryRequest
	if err := decodeBody(r, 1<<20, &req); err != nil {
		writeBadBody(w, err)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, &core.Error{Code: core.CodeBadQuery, Message: "empty query"})
		return
	}
	sess := s.sess
	if req.Session != 0 {
		var ok bool
		if sess, ok = s.eng.Session(req.Session); !ok {
			writeError(w, &core.Error{Code: core.CodeSessionClosed,
				Message: fmt.Sprintf("no session %d", req.Session)})
			return
		}
	}
	ctx := r.Context()
	if req.DeadlineMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMS)*time.Millisecond)
		defer cancel()
	}
	query, analyze := console.ExplainAnalyzePrefix(req.Query)
	if r.URL.Query().Get("explain") == "analyze" {
		analyze = true
	}
	if analyze {
		report, err := sess.ExplainAnalyze(ctx, query)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]string{"report": report})
		return
	}
	res, err := sess.Query(ctx, query)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(res.JSON())
	io.WriteString(w, "\n")
}

// ingestResponse is the /v1/ingest reply.
type ingestResponse struct {
	DB      string `json:"db"`
	Entries int    `json:"entries"`
	Summary string `json:"summary,omitempty"`
}

// handleIngest streams the request body straight into the parallel
// load pipeline — the upload is shredded as it arrives, never spooled.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	db, format := q.Get("db"), q.Get("format")
	if db == "" || format == "" {
		writeError(w, &core.Error{Code: core.CodeBadQuery, Message: "ingest needs ?db= and ?format="})
		return
	}
	tr, ok := hounds.Registry[format]
	if !ok {
		writeError(w, &core.Error{Code: core.CodeBadQuery,
			Message: fmt.Sprintf("unknown format %q (want enzyme, embl or sprot)", format)})
		return
	}
	n, err := s.eng.HarnessReaderContext(r.Context(), db, tr, r.Body, q.Get("version"))
	if err != nil {
		writeError(w, err)
		return
	}
	resp := ingestResponse{DB: db, Entries: n}
	if snap, err := s.eng.Snapshot(); err == nil {
		resp.Summary = snap.LastLoad.Summary()
	}
	writeJSON(w, resp)
}

// sessionRequest is the POST /v1/sessions body.
type sessionRequest struct {
	Tag          string `json:"tag,omitempty"`
	DeadlineMS   int64  `json:"deadline_ms,omitempty"`
	QueryWorkers int    `json:"query_workers,omitempty"`
}

// handleSessions lists (GET) or opens (POST) sessions.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, s.eng.Sessions())
	case http.MethodPost:
		// An empty body opens a session with the defaults.
		var req sessionRequest
		if err := decodeBody(r, 1<<16, &req); err != nil && err != io.EOF {
			writeBadBody(w, err)
			return
		}
		sess, err := s.eng.NewSession(nil,
			core.WithSessionTag(req.Tag),
			core.WithDefaultDeadline(time.Duration(req.DeadlineMS)*time.Millisecond),
			core.WithSessionQueryWorkers(req.QueryWorkers))
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, sess.Info())
	default:
		http.Error(w, "GET or POST", http.StatusMethodNotAllowed)
	}
}

// handleSessionByID closes one session: DELETE /v1/sessions/{id}.
func (s *Server) handleSessionByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodDelete {
		http.Error(w, "DELETE only", http.StatusMethodNotAllowed)
		return
	}
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/sessions/")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		writeError(w, &core.Error{Code: core.CodeBadQuery, Message: "bad session id"})
		return
	}
	if !s.eng.CloseSession(id) {
		writeError(w, &core.Error{Code: core.CodeSessionClosed,
			Message: fmt.Sprintf("no session %d", id)})
		return
	}
	writeJSON(w, map[string]bool{"closed": true})
}

// txRequest is the body of every /v1/tx* endpoint: the session the
// transaction lives on. Transactions are per-session state, so the
// shared HTTP session (0) is refused — open a session first.
type txRequest struct {
	Session  uint64 `json:"session"`
	ReadOnly bool   `json:"read_only,omitempty"`
}

// txResponse describes a transaction's state on begin.
type txResponse struct {
	Session  uint64 `json:"session"`
	Epoch    uint64 `json:"epoch"`
	ReadOnly bool   `json:"read_only,omitempty"`
}

// txSession resolves the session a /v1/tx* request targets.
func (s *Server) txSession(w http.ResponseWriter, r *http.Request) (*core.Session, txRequest, bool) {
	var req txRequest
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return nil, req, false
	}
	if err := decodeBody(r, 1<<16, &req); err != nil {
		writeBadBody(w, err)
		return nil, req, false
	}
	if req.Session == 0 {
		writeError(w, &core.Error{Code: core.CodeBadQuery,
			Message: "transactions need a named session (POST /v1/sessions first)"})
		return nil, req, false
	}
	sess, ok := s.eng.Session(req.Session)
	if !ok {
		writeError(w, &core.Error{Code: core.CodeSessionClosed,
			Message: fmt.Sprintf("no session %d", req.Session)})
		return nil, req, false
	}
	return sess, req, true
}

// handleTxBegin opens a transaction on the named session. Queries sent
// with that session id afterwards run inside it (one stable snapshot)
// until /v1/tx/commit or /v1/tx/rollback.
func (s *Server) handleTxBegin(w http.ResponseWriter, r *http.Request) {
	sess, req, ok := s.txSession(w, r)
	if !ok {
		return
	}
	tx, err := sess.BeginTx(r.Context(), core.TxOptions{ReadOnly: req.ReadOnly})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, txResponse{Session: req.Session, Epoch: tx.Snapshot(), ReadOnly: tx.ReadOnly()})
}

// handleTxFinish builds the commit/rollback handler: resolve the
// session's open transaction and finish it. No open transaction reports
// CodeTxClosed.
func (s *Server) handleTxFinish(finish func(*core.Tx) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, req, ok := s.txSession(w, r)
		if !ok {
			return
		}
		tx := sess.Tx()
		if tx == nil {
			writeError(w, &core.Error{Code: core.CodeTxClosed,
				Message: fmt.Sprintf("session %d has no open transaction", req.Session)})
			return
		}
		if err := finish(tx); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, map[string]bool{"done": true})
	}
}

// handleMetrics dumps every engine counter as flat text, one
// "name value" per line (Engine.Snapshot's Metrics view).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap, err := s.eng.Snapshot()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, obs.FormatMetrics(snap.Metrics()))
}
