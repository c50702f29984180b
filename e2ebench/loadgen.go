package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/neurosym/nsbench/internal/serve"
)

// outcome classifies one request.
type outcome uint8

const (
	ok         outcome = iota // 200 and the body matched its reference
	refused                   // 429: shed by admission control
	failed                    // any other status, transport error or mismatch
	unanswered                // sent, but no full response before the window closed
)

// sample is what the load generator learned about one request. It holds
// no pointers, so a window of tens of thousands of them costs the
// collector nothing to scan; the rare extras live in window.details.
type sample struct {
	outcome outcome
	// hit: the replica answered from its report cache (X-NSServe-Cache).
	hit bool
	// mismatch: the body failed the output check.
	mismatch bool
	// index is the request's position in the window; key its key index.
	index, key int32
	// latency runs from send to the last byte of the body.
	latency time.Duration
	// end is when the last byte arrived, relative to the window start.
	end time.Duration
}

// detail is what a few requests carry beyond their sample.
type detail struct {
	// report is the decoded body when the verifier decoded it; nil for a
	// cache hit whose bytes had already been checked.
	report *served
	// trace is the stitched trace's layer split (traced runs only).
	trace *traceSplit
	err   string
}

// loadgen drives one measured window against the router from a closed
// loop of clients, each on its own connection: a client sends its next
// request when its previous one has been answered and checked.
type loadgen struct {
	url     string
	clients int
	bodies  [][]byte
	refs    []string
	seed    int64
	traced  bool
	client  *http.Client
	seconds float64
	// grace is how long past the window's end the last request may take
	// before it counts as unanswered.
	grace time.Duration
}

// requestBodies encodes each key as a /v1/characterize request body.
func requestBodies(ks []key) [][]byte {
	bodies := make([][]byte, len(ks))
	for i, k := range ks {
		// serve.Request holds two strings; Marshal cannot fail on it.
		bodies[i], _ = json.Marshal(serve.Request{Workload: k.Workload, Device: k.Device})
	}
	return bodies
}

func newLoadgen(w *workload, st *stack, ks []key, refs []string, seed int64, seconds float64, traced bool) *loadgen {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{}).DialContext,
		MaxConnsPerHost:     w.clients,
		MaxIdleConnsPerHost: w.clients,
		DisableCompression:  true,
	}
	return &loadgen{
		url: st.routerURL, clients: w.clients, bodies: requestBodies(ks), refs: refs, seed: seed, traced: traced,
		client:  &http.Client{Transport: tr},
		seconds: seconds,
		grace:   2*time.Second + msDuration(2*w.sloMs),
	}
}

func (g *loadgen) close() { g.client.CloseIdleConnections() }

// window is one measured window's raw record.
type window struct {
	samples []sample
	// details holds the decoded reports, traces and errors, by sample
	// index.
	details map[int]*detail
	// elapsed runs from the window start to the last answer.
	elapsed time.Duration
}

// run has each client send the schedule's next request, starting over at
// its end, until the window closes; requests in flight then may finish
// within the grace period.
func (g *loadgen) run(sched []arrival) window {
	start := time.Now()
	stop := start.Add(time.Duration(g.seconds * float64(time.Second)))
	ctx, cancel := context.WithDeadline(context.Background(), stop.Add(g.grace))
	defer cancel()
	var next atomic.Int64
	parts := make([]window, g.clients)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(part *window) {
			defer wg.Done()
			part.details = map[int]*detail{}
			v := newVerifier(g.refs)
			var buf bytes.Buffer
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				s, d := g.do(ctx, v, &buf, i, sched[i%len(sched)], start)
				s.index = int32(i)
				part.samples = append(part.samples, s)
				if d != nil {
					part.details[i] = d
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	// Every index below next was taken by exactly one client.
	w := window{samples: make([]sample, next.Load()), details: map[int]*detail{}}
	for _, part := range parts {
		for _, s := range part.samples {
			w.samples[s.index] = s
			if s.outcome != unanswered && s.end > w.elapsed {
				w.elapsed = s.end
			}
		}
		for i, d := range part.details {
			w.details[i] = d
		}
	}
	if w.elapsed == 0 {
		w.elapsed = time.Duration(g.seconds * float64(time.Second))
	}
	return w
}

// requestID is the ID the benchmark mints for request i; the router keeps
// inbound IDs, so the stitched trace is fetched under it. The traced and
// untraced windows of one process use distinct IDs, so the flight
// recorders never mix their spans.
func (g *loadgen) requestID(i int) string {
	return fmt.Sprintf("bench-%d-%t-%d", g.seed, g.traced, i)
}

// do sends one request and records its outcome. The response is checked
// after the clock stops; in the traced run a sampled request's stitched
// trace is fetched right after.
func (g *loadgen) do(ctx context.Context, v *verifier, buf *bytes.Buffer, i int, a arrival, start time.Time) (sample, *detail) {
	s := sample{key: a.Key}
	fail := func(o outcome, err string) (sample, *detail) {
		s.outcome = o
		return s, &detail{err: err}
	}
	id := g.requestID(i)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url+"/v1/characterize", bytes.NewReader(g.bodies[a.Key]))
	if err != nil {
		return fail(failed, err.Error())
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	sent := time.Now()
	resp, err := g.client.Do(req)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	s.latency = end.Sub(sent)
	s.end = end.Sub(start)
	switch {
	case err != nil && ctx.Err() != nil:
		return fail(unanswered, err.Error())
	case err != nil:
		return fail(failed, err.Error())
	case resp.StatusCode == http.StatusTooManyRequests:
		return fail(refused, "429")
	case resp.StatusCode != http.StatusOK:
		return fail(failed, fmt.Sprintf("status %d: %.200s", resp.StatusCode, buf.Bytes()))
	}
	s.hit = resp.Header.Get("X-NSServe-Cache") == "hit"
	rep, err := v.check(int(a.Key), buf.Bytes(), s.hit)
	if err != nil {
		s.mismatch = true
		return fail(failed, err.Error())
	}
	s.outcome = ok
	var d *detail
	if rep != nil {
		d = &detail{report: rep}
	}
	if g.traced && a.Trace {
		if d == nil {
			d = &detail{}
		}
		d.trace = g.fetchTrace(ctx, id)
	}
	return s, d
}

// fetchTrace pulls the stitched trace of one finished request from the
// router and splits it by layer. A failed fetch yields an empty split,
// which counts against trace.coverage.
func (g *loadgen) fetchTrace(ctx context.Context, id string) *traceSplit {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url+"/v1/trace?format=json&request_id="+id, nil)
	if err != nil {
		return &traceSplit{}
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return &traceSplit{}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return &traceSplit{}
	}
	return splitTrace(b)
}
