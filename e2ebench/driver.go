package main

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own load driver. Load comes from this one process over
// at most conns keep-alive connections. Latency percentiles are computed
// from the raw per-request samples.

// newDriverClient returns an HTTP client that keeps at most conns
// connections to any one node.
func newDriverClient(conns int) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &http.Client{Transport: tr, Timeout: 30 * time.Second}, tr
}

// exchange is one request of an open-loop run.
type exchange struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
}

// send performs one request and reads the whole response.
func send(hc *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// openLoop sends n requests on a fixed schedule, request i due at
// start + i·interval regardless of how earlier requests fare. Each of the
// conns senders takes the next request in order, waits for its due time
// and sends it, so a request that finds every connection busy goes out
// late. Latency is timed from the due time — a stall is charged to every
// request it delays — and each exchange records how late it was sent.
func openLoop(hc *http.Client, n int, interval time.Duration, conns int, build func(i int) (*http.Request, error)) []exchange {
	out := make([]exchange, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				x := &out[i]
				x.due = start.Add(time.Duration(i) * interval)
				if d := time.Until(x.due); d > 0 {
					time.Sleep(d)
				}
				req, err := build(i)
				x.sent = time.Now()
				if err == nil {
					x.status, x.body, x.err = send(hc, req)
				} else {
					x.err = err
				}
				x.done = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps every one of conns connections busy for dur: each
// sender issues its next request as soon as the previous one completes.
// op performs sender w's k-th request and reports whether it succeeded.
// It returns the requests completed, the failures among them, and the
// phase's wall time.
func closedLoop(dur time.Duration, conns int, op func(w, k int) bool) (done, failed int64, elapsed time.Duration) {
	var nDone, nFailed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(deadline); k++ {
				if !op(w, k) {
					nFailed.Add(1)
				}
				nDone.Add(1)
			}
		}()
	}
	wg.Wait()
	return nDone.Load(), nFailed.Load(), time.Since(start)
}
