// Command wsplitd serves weak-splitting sweeps over HTTP: a bounded job
// queue in front of a worker pool running the same generator/algorithm
// registry as wsplit, with an LRU cache of built instances shared across
// jobs.
//
// Usage:
//
//	wsplitd -addr 127.0.0.1:8080 -queue 64 -workers 4 -cache 64 -drain 30s
//
// Endpoints (JSON everywhere):
//
//	POST   /v1/sweeps       submit a sweep spec; 202 with the job status,
//	                        400 on an invalid spec or trailing data after
//	                        it, 413 on a body over 64 KiB, 429 with Retry-After
//	                        when the queue is full or the server drains
//	                        (retryable: back off and resubmit)
//	GET    /v1/sweeps       list all jobs, newest first
//	GET    /v1/sweeps/{id}  one job's status; trial results once terminal
//	DELETE /v1/sweeps/{id}  cancel: queued jobs retire unrun, running jobs
//	                        stop at their next LOCAL round boundary
//	GET    /healthz         liveness (always 200 while the process serves)
//	GET    /readyz          readiness: server stats, 503 once draining
//
// On SIGTERM or SIGINT the listener stops accepting connections and the
// service drains: queued and running jobs get -drain to finish, then are
// cancelled at round boundaries. Either way every job reaches a terminal
// state and the process exits 0. A second signal terminates immediately
// with the Go runtime's default signal exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "listen address")
		queue   = flag.Int("queue", 64, "job queue capacity; submissions beyond it get 429")
		workers = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		cache   = flag.Int("cache", 64, "instance cache capacity in entries")
		drain   = flag.Duration("drain", 30*time.Second, "shutdown budget before remaining jobs are cancelled")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "wsplitd: unexpected arguments %q\n", flag.Args())
		return 2
	}

	svc := service.New(service.Options{QueueCap: *queue, Workers: *workers, CacheCap: *cache})
	httpSrv := &http.Server{Handler: newMux(svc)}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsplitd: %v\n", err)
		return 1
	}
	st := svc.Stats()
	fmt.Printf("wsplitd: listening on %s (queue %d, workers %d)\n", ln.Addr(), st.QueueCap, st.Workers)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		svc.Close()
		fmt.Fprintf(os.Stderr, "wsplitd: serve: %v\n", err)
		return 1
	case <-sigCtx.Done():
	}
	// Restore default signal handling: a second SIGTERM/SIGINT during the
	// drain terminates immediately instead of being swallowed.
	stop()
	fmt.Println("wsplitd: signal received, draining")

	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(dctx); err != nil {
		fmt.Fprintf(os.Stderr, "wsplitd: http shutdown: %v\n", err)
	}
	if err := svc.Drain(dctx); err != nil {
		// Deadline expired: jobs were cancelled at round boundaries. Still a
		// clean exit — every job is terminal and the workers are gone.
		fmt.Fprintf(os.Stderr, "wsplitd: %v\n", err)
	}
	fmt.Println("wsplitd: drained")
	return 0
}

// newMux wires the service into the HTTP surface. Split out of run so the
// handler tests drive the exact production routing.
func newMux(svc *service.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		spec, err := decodeSpec(w, r)
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("spec body exceeds the %d-byte limit", tooBig.Limit))
			return
		case err != nil:
			writeError(w, http.StatusBadRequest, fmt.Errorf("decoding spec: %w", err))
			return
		}
		st, err := svc.Submit(spec)
		switch {
		case err == nil:
			writeJSON(w, http.StatusAccepted, st)
		case errors.Is(err, service.ErrQueueFull), errors.Is(err, service.ErrDraining):
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
	})
	mux.HandleFunc("GET /v1/sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.List())
	})
	mux.HandleFunc("GET /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := svc.Get(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("DELETE /v1/sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, ok := svc.Cancel(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		st := svc.Stats()
		code := http.StatusOK
		if st.Draining {
			code = http.StatusServiceUnavailable
		}
		writeJSON(w, code, st)
	})
	return mux
}

// maxSpecBytes bounds a POST /v1/sweeps body. A maximal spec — MaxAlgos
// algorithm names plus a few integers — is well under 1 KiB.
const maxSpecBytes = 64 << 10

// decodeSpec reads exactly one sweep spec from the request body. Unknown
// fields, trailing data after the object and a body over maxSpecBytes
// (reported as *http.MaxBytesError) are errors.
func decodeSpec(w http.ResponseWriter, r *http.Request) (service.SweepSpec, error) {
	var spec service.SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return spec, nil
	case nil:
		return spec, errors.New("trailing data after the spec object")
	default:
		return spec, err
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing to do but note it for the operator.
		fmt.Fprintf(os.Stderr, "wsplitd: encoding response: %v\n", err)
	}
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
