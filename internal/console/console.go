// Package console implements the XomatiQ interactive query console —
// the text-mode equivalent of the paper's visual query interface
// (Figures 7, 10, 12). It shows warehoused DTD structures, accepts
// queries in the three modes the GUI offers (keyword search, sub-tree
// search, join queries written in full FLWR), and renders results as
// tables or XML.
//
// The console operates on a *core.Session, not an *core.Engine: the
// same REPL serves the embedded cmd/xomatiq binary and each remote
// line-protocol connection accepted by xomatiqd, with per-session
// deadlines, worker overrides and stats coming along for free.
//
// Console commands:
//
//	\dbs                     list warehoused databases
//	\dtd <db>                show a database's DTD structure tree
//	\doc <db> <entry>        reconstruct one entry as XML
//	\kw <db> [db...] : <kw>  keyword search mode (Fig. 8)
//	\harness <db> <format> <file>  bulk-load a flat file, print throughput
//	\stats                   physical and warehouse statistics
//	\metrics                 flat dump of every engine counter
//	\session                 current session's id, options and counters
//	\begin                   open a transaction: queries see one stable
//	                         snapshot until \commit or \rollback
//	\commit                  commit the open transaction
//	\rollback                roll back the open transaction
//	\plan <query>            show SQL translation and plan
//	\mode table|xml          result display mode
//	\quit                    exit
//
// The console runs server-side for remote connections too (the line
// protocol runs this REPL on the server's end), so \begin/\commit/
// \rollback work identically in local and -connect modes.
//
// Anything else is a XomatiQ FLWR query; end it with a line containing
// only ";". A query prefixed with EXPLAIN ANALYZE is executed and its
// operator tree printed with actual row counts and timings.
package console

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	"xomatiq/internal/core"
	"xomatiq/internal/hounds"
	"xomatiq/internal/obs"
)

// Console is one REPL bound to a session. It is not safe for
// concurrent use; give each connection its own Console.
type Console struct {
	sess *core.Session
	eng  *core.Engine
	mode string
	// registered tracks db -> flat file bound by \harness through this
	// console; core sources can't be rebound, so re-harnessing needs
	// the same file.
	registered map[string]string
	// Harness gates the \harness command; remote servers disable it so
	// clients can't read server-local files (ingest goes over HTTP).
	harness bool
}

// Option configures a Console.
type Option func(*Console)

// WithoutHarness disables the \harness command (it reads files from
// the process's local filesystem, which a network server must not
// expose to remote clients).
func WithoutHarness() Option {
	return func(c *Console) { c.harness = false }
}

// New builds a console over a session.
func New(sess *core.Session, opts ...Option) *Console {
	c := &Console{
		sess:       sess,
		eng:        sess.Engine(),
		mode:       "table",
		registered: map[string]string{},
		harness:    true,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Run reads commands and queries from in until EOF or \quit, writing
// all output (including prompts) to out.
func (c *Console) Run(in io.Reader, out io.Writer) {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var queryBuf []string
	prompt := func() {
		if len(queryBuf) > 0 {
			fmt.Fprint(out, "  ... ")
		} else {
			fmt.Fprint(out, "xomatiq> ")
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case len(queryBuf) == 0 && strings.HasPrefix(trimmed, "\\"):
			if !c.command(out, trimmed) {
				return
			}
		case trimmed == ";":
			query := strings.Join(queryBuf, "\n")
			queryBuf = nil
			c.runQuery(out, query)
		case trimmed == "" && len(queryBuf) == 0:
			// skip blank lines between queries
		default:
			queryBuf = append(queryBuf, line)
			// Single-line queries ending in ';' run immediately.
			if strings.HasSuffix(trimmed, ";") {
				query := strings.TrimSuffix(strings.Join(queryBuf, "\n"), ";")
				queryBuf = nil
				c.runQuery(out, query)
			}
		}
		prompt()
	}
}

// command handles a backslash command; returns false to exit.
func (c *Console) command(out io.Writer, line string) bool {
	fields := strings.Fields(line)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\dbs":
		for _, db := range c.eng.Databases() {
			n, _ := c.eng.DocCount(db)
			fmt.Fprintf(out, "  %-24s %6d entries\n", db, n)
		}
	case "\\dtd":
		if len(fields) != 2 {
			fmt.Fprintln(out, "usage: \\dtd <db>")
			break
		}
		tree, err := c.eng.DTDTree(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprint(out, tree)
	case "\\doc":
		if len(fields) != 3 {
			fmt.Fprintln(out, "usage: \\doc <db> <entry>")
			break
		}
		xml, err := c.eng.Document(fields[1], fields[2])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, xml)
	case "\\kw":
		c.runKeywordMode(out, fields[1:])
	case "\\harness":
		if !c.harness {
			fmt.Fprintln(out, "error: \\harness is disabled on remote connections; use POST /v1/ingest")
			break
		}
		c.runHarness(out, fields[1:])
	case "\\stats":
		snap, err := c.eng.Snapshot()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		phys := snap.DB
		fmt.Fprintf(out, "file: %d pages (%d free, %d retired), wal: %d bytes, dirty: %d pages\n",
			phys.FilePages, phys.FreePages, phys.RetiredPages, phys.WALBytes, phys.DirtyPages)
		fmt.Fprintf(out, "wal written: %d bytes = %d page images + %d row ops + %d commits\n",
			snap.WAL.Bytes, snap.WAL.PageImageBytes, snap.WAL.RowOpBytes, snap.WAL.CommitBytes)
		fmt.Fprintf(out, "buffer pool: %d shards, %d hits, %d misses\n",
			snap.Pool.Shards, snap.Pool.Hits, snap.Pool.Misses)
		for _, w := range snap.Warehouses {
			fmt.Fprintf(out, "  %-24s %6d docs %5d paths\n", w.DB, w.Docs, w.Paths)
		}
		for _, t := range phys.Tables {
			fmt.Fprintf(out, "  table %-12s %8d rows  indexes: %s\n",
				t.Name, t.Rows, strings.Join(t.Indexes, ", "))
			ixPages := 0
			for _, n := range t.IndexPages {
				ixPages += n
			}
			fmt.Fprintf(out, "        %-12s %8d heap pages, %d bytes of rows, %d index pages\n",
				"", t.HeapPages, t.HeapBytes, ixPages)
		}
		pc := snap.PlanCache
		fmt.Fprintf(out, "plan cache: %d entries, %d hits, %d misses, %d invalidations\n",
			pc.Entries, pc.Hits, pc.Misses, pc.Invalidations)
	case "\\metrics":
		snap, err := c.eng.Snapshot()
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprint(out, obs.FormatMetrics(snap.Metrics()))
	case "\\session":
		c.printSession(out)
	case "\\begin":
		tx, err := c.sess.Begin(context.Background())
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintf(out, "transaction open at epoch %d; queries see this snapshot until \\commit or \\rollback\n", tx.Snapshot())
	case "\\commit":
		tx := c.sess.Tx()
		if tx == nil {
			fmt.Fprintln(out, "error: no open transaction (\\begin starts one)")
			break
		}
		if err := tx.Commit(); err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, "committed")
	case "\\rollback":
		tx := c.sess.Tx()
		if tx == nil {
			fmt.Fprintln(out, "error: no open transaction (\\begin starts one)")
			break
		}
		if err := tx.Rollback(); err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, "rolled back")
	case "\\plan":
		query := strings.TrimSpace(strings.TrimPrefix(line, "\\plan"))
		if query == "" {
			fmt.Fprintln(out, "usage: \\plan <query on one line>")
			break
		}
		plan, err := c.sess.Explain(query)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			break
		}
		fmt.Fprintln(out, plan)
	case "\\mode":
		if len(fields) == 2 && (fields[1] == "table" || fields[1] == "xml") {
			c.mode = fields[1]
			fmt.Fprintln(out, "display mode:", c.mode)
		} else {
			fmt.Fprintln(out, "usage: \\mode table|xml")
		}
	default:
		fmt.Fprintln(out, "unknown command; try \\dbs \\dtd \\doc \\kw \\harness \\stats \\metrics \\session \\begin \\commit \\rollback \\plan \\mode \\quit")
	}
	return true
}

// printSession shows the bound session's identity, options and
// per-session counters.
func (c *Console) printSession(out io.Writer) {
	for _, info := range c.eng.Sessions() {
		if info.ID != c.sess.ID() {
			continue
		}
		fmt.Fprintf(out, "session %d", info.ID)
		if info.Tag != "" {
			fmt.Fprintf(out, " tag=%q", info.Tag)
		}
		fmt.Fprintln(out)
		if info.DeadlineMS > 0 {
			fmt.Fprintf(out, "  default deadline: %dms\n", info.DeadlineMS)
		} else {
			fmt.Fprintln(out, "  default deadline: none")
		}
		if info.Workers > 0 {
			fmt.Fprintf(out, "  query workers: %d\n", info.Workers)
		} else {
			fmt.Fprintln(out, "  query workers: engine default")
		}
		fmt.Fprintf(out, "  queries: %d, errors: %d, rows: %d\n",
			info.Queries, info.Errors, info.Rows)
		return
	}
	fmt.Fprintln(out, "error:", core.ErrSessionClosed)
}

// runHarness bulk-loads a flat file into a warehouse database through
// the parallel ingest pipeline and prints the throughput of the load.
func (c *Console) runHarness(out io.Writer, args []string) {
	if len(args) != 3 {
		fmt.Fprintln(out, "usage: \\harness <db> <format> <file>   (formats: enzyme, embl, sprot)")
		return
	}
	db, format, file := args[0], args[1], args[2]
	tr, ok := hounds.Registry[format]
	if !ok {
		fmt.Fprintf(out, "unknown format %q (want enzyme, embl or sprot)\n", format)
		return
	}
	if prev, dup := c.registered[db]; dup {
		// The source is already bound; FileSource re-reads its path on
		// every fetch, so the same file simply re-harnesses.
		if prev != file {
			fmt.Fprintf(out, "error: %s is bound to %s for this session; restart to load a different file\n", db, prev)
			return
		}
	} else {
		if err := c.eng.RegisterSource(db, hounds.FileSource{Path: file}, tr); err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		c.registered[db] = file
	}
	n, err := c.eng.Harness(db)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "harnessed %d entries into %s\n", n, db)
	if snap, err := c.eng.Snapshot(); err == nil {
		fmt.Fprintln(out, snap.LastLoad.Summary())
	}
}

// runKeywordMode builds the Fig. 8-style keyword query from "\kw db1
// db2 : keyword" and runs it.
func (c *Console) runKeywordMode(out io.Writer, args []string) {
	sep := -1
	for i, a := range args {
		if a == ":" {
			sep = i
			break
		}
	}
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(out, "usage: \\kw <db> [db...] : <keyword>")
		return
	}
	dbs := args[:sep]
	kw := strings.Join(args[sep+1:], " ")
	var sb strings.Builder
	sb.WriteString("FOR ")
	for i, db := range dbs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "$v%d IN document(%q)/%s", i, db, c.rootOf(db))
	}
	sb.WriteString("\nWHERE ")
	for i := range dbs {
		if i > 0 {
			sb.WriteString(" AND ")
		}
		fmt.Fprintf(&sb, "contains($v%d, %q, any)", i, kw)
	}
	sb.WriteString("\nRETURN ")
	for i := range dbs {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "$v%d//entry_name", i)
	}
	fmt.Fprintln(out, "generated query:")
	fmt.Fprintln(out, sb.String())
	c.runQuery(out, sb.String())
}

// ExplainAnalyzePrefix strips a leading case-insensitive "EXPLAIN
// ANALYZE" from a query, reporting whether it was present.
func ExplainAnalyzePrefix(query string) (string, bool) {
	trimmed := strings.TrimSpace(query)
	fields := strings.Fields(trimmed)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "EXPLAIN") || !strings.EqualFold(fields[1], "ANALYZE") {
		return query, false
	}
	rest := strings.TrimSpace(trimmed[len(fields[0]):])
	rest = strings.TrimSpace(rest[len(fields[1]):])
	return rest, true
}

// rootOf guesses the root element of a database from its DTD tree.
func (c *Console) rootOf(db string) string {
	tree, err := c.eng.DTDTree(db)
	if err != nil {
		return "hlx_n_sequence"
	}
	first := strings.SplitN(tree, "\n", 2)[0]
	return strings.Fields(first)[0]
}

// runQuery executes one query through the session; deadlines come from
// the session's default deadline option.
func (c *Console) runQuery(out io.Writer, query string) {
	if strings.TrimSpace(query) == "" {
		return
	}
	ctx := context.Background()
	if rest, ok := ExplainAnalyzePrefix(query); ok {
		report, err := c.sess.ExplainAnalyze(ctx, rest)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return
		}
		fmt.Fprintln(out, report)
		return
	}
	res, err := c.sess.Query(ctx, query)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if c.mode == "xml" {
		fmt.Fprintln(out, res.XML())
	} else {
		fmt.Fprint(out, res.Table())
	}
	fmt.Fprintf(out, "(%d rows, %s mode)\n", len(res.Rows), res.Mode)
}
