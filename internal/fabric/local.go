package fabric

import (
	"net/http"
	"net/http/httptest"
)

// The in-process worker and the coordinator it joins reach each other at
// these hosts through memTransport; no socket is opened for them.
const (
	localCoordinatorHost = "coordinator.local"
	localWorkerHost      = "worker.local"
)

// NewLocal creates a coordinator with one stock Worker joined to it in
// process: gputlbd's default server. The two speak the fabric protocol
// through an in-memory http.RoundTripper that calls their handlers
// directly, carried by copt.HTTPClient and the worker's HTTPClient;
// requests to any other host (workers that join over the network) go to
// http.DefaultTransport. The worker flushes every outcome at once (flush
// size 1) and shares the coordinator's registry. Start starts both;
// Drain closes the worker before draining the coordinator.
func NewLocal(copt CoordinatorOptions, wopt WorkerOptions) (*Coordinator, error) {
	tr := memTransport{}
	copt.HTTPClient = &http.Client{Transport: tr}
	c, err := NewCoordinator(copt)
	if err != nil {
		return nil, err
	}
	wopt.CoordinatorURL = "http://" + localCoordinatorHost
	wopt.AdvertiseURL = "http://" + localWorkerHost
	wopt.HTTPClient = copt.HTTPClient
	wopt.FlushSize = 1
	wopt.Registry = c.reg
	w := NewWorker(wopt)
	tr[localCoordinatorHost] = c.Handler()
	tr[localWorkerHost] = w.Handler()
	if err := w.register(); err != nil {
		return nil, err
	}
	c.local = w
	return c, nil
}

// memTransport serves requests for its hosts (keys: URL host; filled in
// before first use) by calling their handlers in the caller's goroutine;
// other hosts go to http.DefaultTransport.
type memTransport map[string]http.Handler

// RoundTrip implements http.RoundTripper.
func (t memTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return http.DefaultTransport.RoundTrip(r)
	}
	sr := *r // the handler's mux records its route match in the request
	if sr.Body == nil {
		sr.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, &sr)
	return rec.Result(), nil
}
