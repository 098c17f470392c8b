// Command xomatiq is the interactive query console — the text-mode
// equivalent of the paper's visual query interface (Figures 7, 10, 12).
// It runs in two modes:
//
//	xomatiq -db warehouse.db          embedded: opens the warehouse in-process
//	xomatiq -connect host:port        remote: attaches to a running xomatiqd
//
// Remote mode speaks the newline-delimited line protocol: the server
// runs the same console REPL on its side of the connection, so the
// full \-command surface (see internal/console) works identically;
// this process is just the terminal.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"runtime"
	"time"

	"xomatiq/internal/console"
	"xomatiq/internal/core"
)

func main() {
	dbPath := flag.String("db", "warehouse.db", "warehouse database file")
	connect := flag.String("connect", "", "attach to a running xomatiqd line-protocol port (host:port) instead of opening -db")
	timeout := flag.Duration("timeout", 0, "per-query timeout (e.g. 5s; 0 = none)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "shredding goroutines for \\harness loads")
	queryWorkers := flag.Int("query-workers", runtime.GOMAXPROCS(0), "goroutines per hash-join partition build (1 = serial)")
	flag.Parse()

	if *connect != "" {
		if err := remote(*connect, os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}

	cfg := core.NewConfig(*dbPath)
	cfg.LoadWorkers = *workers
	cfg.QueryWorkers = *queryWorkers
	eng, err := core.Open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if eng.Recovered() {
		fmt.Println("(warehouse recovered from WAL after unclean shutdown)")
	}
	sess, err := eng.NewSession(nil,
		core.WithDefaultDeadline(*timeout),
		core.WithSessionTag("console"))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	fmt.Println("XomatiQ console — \\dbs lists databases, \\quit exits.")
	console.New(sess).Run(os.Stdin, os.Stdout)
}

// remote attaches stdin/stdout to a xomatiqd line-protocol port. The
// REPL runs server-side; this end is a dumb pipe that exits when
// either direction closes.
func remote(addr string, in io.Reader, out io.Writer) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return fmt.Errorf("connect %s: %w", addr, err)
	}
	defer conn.Close()
	done := make(chan struct{})
	go func() {
		// Server → terminal. Ends when the server closes (e.g. after
		// \quit or shutdown drain).
		io.Copy(out, conn)
		close(done)
	}()
	go func() {
		// Terminal → server. On local EOF, half-close the write side so
		// the server sees EOF and finishes its REPL cleanly.
		io.Copy(conn, in)
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()
	<-done
	return nil
}
