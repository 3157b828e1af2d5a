package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"react/internal/explore"
	"react/internal/obs"
)

// DefaultRequestTimeout bounds each HTTP request a Client issues unless
// WithRequestTimeout overrides it. Every request is individually bounded:
// a hung or stalled daemon fails the call instead of pinning it forever,
// and Wait surfaces the error. Wait's long-polls ask the server to hold
// them for half this bound, so a held request always answers inside it.
// The caller's context can always impose a shorter deadline.
const DefaultRequestTimeout = 30 * time.Second

// pollGap spaces Wait's requests when the server answers a long-poll
// early with an unfinished view: a server that ignores ?wait= (an older
// node), a full waiter pool, or a cancelled view still draining.
const pollGap = 100 * time.Millisecond

// Client talks to a reactd server. Create with Dial; the zero value is not
// usable. A Client is safe for concurrent use.
type Client struct {
	base       string
	hc         *http.Client
	reqTimeout time.Duration // per-request bound; <= 0 = none
}

// DialOption configures a Client at Dial time.
type DialOption func(*Client)

// WithRequestTimeout sets the per-request timeout (DefaultRequestTimeout
// otherwise). Zero or negative means no per-request bound — only the
// caller's context limits a call.
func WithRequestTimeout(d time.Duration) DialOption {
	return func(c *Client) { c.reqTimeout = d }
}

// Dial validates the base URL ("http://host:port") and probes the server's
// /metrics endpoint to fail fast on a wrong address. It is
// DialContext(context.Background(), ...) for callers with no context of
// their own; anything holding a cancellable context should pass it through
// DialContext so an interrupted caller also abandons the probe.
func Dial(baseURL string, opts ...DialOption) (*Client, error) {
	return DialContext(context.Background(), baseURL, opts...)
}

// DialContext is Dial bounded by the caller's context: the liveness probe
// runs under ctx (plus the client's per-request timeout, so an unbounded
// context still cannot pin the dial on a stalled daemon).
func DialContext(ctx context.Context, baseURL string, opts ...DialOption) (*Client, error) {
	c, err := newPeerClient(baseURL, DefaultRequestTimeout)
	if err != nil {
		return nil, err
	}
	for _, o := range opts {
		o(c)
	}
	probeCtx := ctx
	if _, ok := ctx.Deadline(); !ok && c.reqTimeout <= 0 {
		// Neither the caller nor the per-request bound limits the probe:
		// fall back to the default so a stalled daemon cannot pin the dial.
		var cancel context.CancelFunc
		probeCtx, cancel = context.WithTimeout(ctx, DefaultRequestTimeout)
		defer cancel()
	}
	if _, err := c.Metrics(probeCtx); err != nil {
		return nil, fmt.Errorf("service: no reactd at %s: %w", c.base, err)
	}
	return c, nil
}

// newPeerClient builds a Client without the liveness probe — peers come
// and go, and cluster mode must start (and degrade gracefully) with a
// peer down, not refuse to.
func newPeerClient(baseURL string, timeout time.Duration) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("service: parsing %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("service: %q: want an http(s) base URL", baseURL)
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), hc: &http.Client{}, reqTimeout: timeout}, nil
}

// do issues a request and decodes the JSON response (or the error
// envelope) into out. Each request is bounded by the client's per-request
// timeout on top of (never instead of) the caller's context.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	if c.reqTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.reqTimeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("service: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's span context (if any): the receiving server
	// parents the submission's root span under it, so cross-node work
	// stays one trace.
	if sc, ok := obs.SpanContextFromContext(ctx); ok {
		req.Header.Set(obs.TraceparentHeader, sc.Traceparent())
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var eb errorBody
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("service: %s %s: %s", method, path, eb.Error)
		}
		return fmt.Errorf("service: %s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("service: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Scenarios lists the server's registry.
func (c *Client) Scenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if err := c.do(ctx, http.MethodGet, "/scenarios", nil, &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}

// Metrics reads the server's cache/queue/throughput counters (the JSON
// report; GET /metrics itself now serves Prometheus text by default).
func (c *Client) Metrics(ctx context.Context) (*Metrics, error) {
	var m Metrics
	if err := c.do(ctx, http.MethodGet, "/metrics.json", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// TraceSpans reads the server's raw (node-local, flat) spans for a trace
// id — the cross-peer merge primitive behind the /trace view endpoints.
func (c *Client) TraceSpans(ctx context.Context, traceID string) (*TraceResponse, error) {
	var tr TraceResponse
	if err := c.do(ctx, http.MethodGet, "/traces/"+url.PathEscape(traceID), nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// RunAsync submits a run and returns a handle immediately; the server
// simulates in the background (or serves the result cache). Poll or Wait
// the handle for results.
func (c *Client) RunAsync(ctx context.Context, req RunRequest) (*RemoteRun, error) {
	return submitView[RunStatus](ctx, c, req)
}

// Run submits and waits: the synchronous convenience over RunAsync. A
// failed or cancelled run returns the final status alongside an error.
func (c *Client) Run(ctx context.Context, req RunRequest) (*RunStatus, error) {
	return submitAndWait[RunStatus](ctx, c, req)
}

// SweepAsync submits a sweep and returns a handle immediately; the server
// fans the seed × dt × buffer grid out in the background, sharing cells
// with the cache and any overlapping work in flight. Poll or Wait the
// handle for per-cell results and the final summary.
func (c *Client) SweepAsync(ctx context.Context, req SweepRequest) (*RemoteSweep, error) {
	return submitView[SweepStatus](ctx, c, req)
}

// Sweep submits and waits: the synchronous convenience over SweepAsync. A
// failed or cancelled sweep returns the final status alongside an error.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepStatus, error) {
	return submitAndWait[SweepStatus](ctx, c, req)
}

// ExploreAsync submits a design-space exploration and returns a handle
// immediately; the server probes the space in the background, every point
// attached to the shared content-addressed cell cache. Poll or Wait the
// handle for partial cells and the assembled result.
func (c *Client) ExploreAsync(ctx context.Context, space *explore.Space) (*RemoteExploration, error) {
	return submitView[ExploreStatus](ctx, c, space)
}

// Explore submits and waits: the synchronous convenience over
// ExploreAsync. The returned status carries the exploration's
// explore.Result — bit-identical to running the same space locally — or an
// error for a failed or cancelled exploration.
func (c *Client) Explore(ctx context.Context, space *explore.Space) (*ExploreStatus, error) {
	return submitAndWait[ExploreStatus](ctx, c, space)
}

// viewStatus constrains Remote's status type parameter: PS is a pointer to
// one of the three wire status types, S.
type viewStatus[S any] interface {
	*S
	wireStatus
}

// Remote is a submitted view's handle, generic over the view's wire
// status: RemoteRun, RemoteSweep and RemoteExploration are its three
// instances.
type Remote[S any, PS viewStatus[S]] struct {
	c  *Client
	ID string
	// Submitted is the submission response. A run's Cached and Coalesced
	// flags are properties of the submission that later polls do not
	// repeat; a sweep's cache accounting is immutable, so polls repeat it;
	// an exploration's grows on later polls as its strategy attaches
	// further batches.
	Submitted PS
}

// RemoteRun is a submitted run's handle.
type RemoteRun = Remote[RunStatus, *RunStatus]

// RemoteSweep is a submitted sweep's handle.
type RemoteSweep = Remote[SweepStatus, *SweepStatus]

// RemoteExploration is a submitted exploration's handle.
type RemoteExploration = Remote[ExploreStatus, *ExploreStatus]

// submitView POSTs a submission to its kind's endpoint and wraps the
// response in a handle.
func submitView[S any, PS viewStatus[S]](ctx context.Context, c *Client, body any) (*Remote[S, PS], error) {
	st := PS(new(S))
	if err := c.do(ctx, http.MethodPost, "/"+st.kind().path, body, st); err != nil {
		return nil, err
	}
	id, _, _ := st.head()
	return &Remote[S, PS]{c: c, ID: id, Submitted: st}, nil
}

// submitAndWait is submitView followed by Wait.
func submitAndWait[S any, PS viewStatus[S]](ctx context.Context, c *Client, body any) (PS, error) {
	r, err := submitView[S, PS](ctx, c, body)
	if err != nil {
		return nil, err
	}
	return r.Wait(ctx)
}

// path is the view's URL, under its kind's path segment.
func (r *Remote[S, PS]) path() string {
	return "/" + PS(nil).kind().path + "/" + url.PathEscape(r.ID)
}

// Poll fetches the view's current status: completed cells carry results
// while the rest are still simulating; a sweep's summary rows and an
// exploration's Result appear once it is done.
func (r *Remote[S, PS]) Poll(ctx context.Context) (PS, error) {
	return r.get(ctx, "")
}

// get fetches and decodes the view's status, with query (e.g. "?wait=15s")
// appended to its URL.
func (r *Remote[S, PS]) get(ctx context.Context, query string) (PS, error) {
	st := PS(new(S))
	if err := r.c.do(ctx, http.MethodGet, r.path()+query, nil, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Cancel asks the server to stop the view. Cells shared with other live
// work keep simulating; cells only this view wanted are dropped.
func (r *Remote[S, PS]) Cancel(ctx context.Context) error {
	return r.c.do(ctx, http.MethodDelete, r.path(), nil, nil)
}

// Trace fetches the view's span tree, merged across cluster peers — a
// cross-node view renders as one tree.
func (r *Remote[S, PS]) Trace(ctx context.Context) (*TraceResponse, error) {
	var tr TraceResponse
	if err := r.c.do(ctx, http.MethodGet, r.path()+"/trace", nil, &tr); err != nil {
		return nil, err
	}
	return &tr, nil
}

// Wait blocks until the view reaches a terminal state. Each request is a
// long-poll (GET ?wait=) that the server holds until the view finishes or
// the wait runs out, so Wait returns when the view does, usually after one
// request. A failed or cancelled view returns its final status alongside
// an error.
func (r *Remote[S, PS]) Wait(ctx context.Context) (PS, error) {
	if r.Submitted != nil {
		if _, status, _ := r.Submitted.head(); Terminal(status) {
			return r.finish(r.Submitted)
		}
	}
	wait := maxViewWait
	if r.c.reqTimeout > 0 {
		wait = min(r.c.reqTimeout/2, maxViewWait)
	}
	query := "?wait=" + url.QueryEscape(wait.String())
	for {
		sent := time.Now()
		st, err := r.get(ctx, query)
		if err != nil {
			return nil, err
		}
		if _, status, _ := st.head(); Terminal(status) {
			return r.finish(st)
		}
		if time.Since(sent) < wait {
			// Answered early with the view unfinished: the server did not
			// hold the request, so pace the next one instead of spinning.
			select {
			case <-ctx.Done():
				return st, ctx.Err()
			case <-time.After(pollGap):
			}
		}
	}
}

func (r *Remote[S, PS]) finish(st PS) (PS, error) {
	id, status, msg := st.head()
	if status == StatusDone {
		return st, nil
	}
	return st, fmt.Errorf("service: %s %s %s: %s", st.kind().name, id, status, msg)
}
