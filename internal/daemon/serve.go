package daemon

import (
	"context"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// DrainTimeout bounds how long a daemon waits for in-flight requests
// after SIGTERM/SIGINT before it closes its state anyway.
const DrainTimeout = 5 * time.Second

// readHeaderTimeout stops a client that never finishes its request line
// from pinning a connection forever.
const readHeaderTimeout = 10 * time.Second

// Serve serves h on ln until SIGTERM or SIGINT, then shuts down through
// one path: stop accepting, drain in-flight requests for DrainTimeout
// (cutting off any still running), and run closeFn — the daemon's
// durable teardown (cache, Monitor.Close → snapshot + memo). It returns
// the process exit status: 0 on a clean shutdown, 1 if serving or
// closeFn failed.
//
// Bind ln (net.Listen) before any expensive start-up work — the initial
// crawl or merge — so a busy port fails the boot in milliseconds, not
// after minutes of crawling.
func Serve(ln net.Listener, h http.Handler, closeFn func() error) int {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	status := 0
	select {
	case err := <-served:
		log.Printf("serve: %v", err)
		status = 1
	case sig := <-sigc:
		log.Printf("%v: draining and shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		if err := srv.Shutdown(ctx); err != nil {
			// Cancel what is still running (a long /add crawl), so
			// closeFn is not left waiting behind it.
			log.Printf("drain: %v", err)
			srv.Close()
		}
		cancel()
		<-served
	}
	if err := closeFn(); err != nil {
		log.Printf("shutdown: %v", err)
		return 1
	}
	return status
}
