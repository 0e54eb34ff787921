// Command reprod is the simulation-as-a-service daemon: it serves the
// run-plan engine over HTTP/JSON with a persistent content-addressed
// result cache (internal/service), so repeated and concurrent requests
// for the same design point cost one simulation total.
//
//	reprod serve [-addr :8080] [-cache .reprod-cache] [-workers N] [-max-queue N] [-addr-file path]
//
// serve binds the daemon; -addr-file records the actual listen address
// (useful with ':0' in CI and for benchmark/, which launches exactly
// this command as its served child).
//
// Endpoints ("reprod help" prints the same list): POST /v1/run,
// /v1/sweep, /v1/experiment, GET /v1/stats, /healthz; /v1/sweep and
// /v1/experiment take ?stream=1 for SSE progress. Every run and sweep
// point served is a plain simulation or a verified cache hit of one,
// and every experiment, tolerance included, is rendered from such runs.
// Example:
//
//	curl -s localhost:8080/v1/run -d '{"app":"radix","procs":32,"scale":0.00390625,"seed":1}'
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "serve":
		err = serveCmd(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "reprod: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "reprod: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  reprod serve [-addr :8080] [-cache DIR] [-workers N] [-max-queue N] [-addr-file PATH]

endpoints (JSON bodies; ?stream=1 on sweep and experiment streams SSE progress):
  POST /v1/run         one spec, simulated or a verified cache hit of a simulation
  POST /v1/sweep       app x knob x values, every point resolved like /v1/run
  POST /v1/experiment  one rendered paper artifact, byte-identical to cmd/repro
  GET  /v1/stats       cache, queue, latency and stage counters
  GET  /healthz`)
}

// readHeaderTimeout bounds how long a connection may take to send its
// request headers, so an idle or trickling client cannot hold one open.
const readHeaderTimeout = 10 * time.Second

// serveCmd binds the daemon and runs until SIGINT/SIGTERM, then shuts
// down gracefully: HTTP first, then the worker pool drain.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address (':0' picks a free port)")
		cacheDir = fs.String("cache", ".reprod-cache", "persistent result store directory")
		workers  = fs.Int("workers", 0, "concurrent simulations across all clients (0 = GOMAXPROCS)")
		maxQueue = fs.Int("max-queue", 0, "admission bound on queued runs before 429 (0 = 1024)")
		addrFile = fs.String("addr-file", "", "write the actual listen address to this file")
	)
	fs.Parse(args)

	s, err := service.New(service.Config{CacheDir: *cacheDir, Workers: *workers, MaxQueue: *maxQueue})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "reprod: serving on %s (cache %s)\n", ln.Addr(), *cacheDir)

	hs := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: readHeaderTimeout}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	select {
	case err := <-done:
		s.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "reprod: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = hs.Shutdown(shutdownCtx)
	s.Close()
	return err
}
