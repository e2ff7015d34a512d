package main

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one answered request: its client-side latency, status, and
// the part of the body the answer checker reads.
type outcome struct {
	lat    time.Duration
	status int
	body   []byte
	err    error
}

// drive sends bodies to url in order from conns closed-loop callers, each
// sending its next request only once the previous answer's last byte has
// arrived, and returns the outcomes in request order with the wall time
// from the first send to the last answer. keep copies out of each
// response body what the checker needs, so that decoding stays outside
// the measured window.
func drive(ctx context.Context, client *http.Client, url string, bodies [][]byte, conns int, keep func([]byte) []byte) ([]outcome, time.Duration) {
	out := make([]outcome, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := int(next.Add(1) - 1); i < len(bodies); i = int(next.Add(1) - 1) {
				out[i] = post(ctx, client, url, bodies[i], &buf, keep)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// post sends one request and reads its whole answer into buf.
func post(ctx context.Context, client *http.Client, url string, body []byte, buf *bytes.Buffer, keep func([]byte) []byte) outcome {
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{lat: lat, status: resp.StatusCode, body: keep(buf.Bytes())}
}

// optimizeSuffix ends every successful /v1/optimize answer.
const optimizeSuffix = `,"error":null}` + "\n"

// keepOptimize copies the solved fields of a /v1/optimize answer — the
// part after the echoed query — as a JSON object of their own. An answer
// of another shape is kept whole (at most 512 bytes) for the error
// report.
func keepOptimize(body []byte) []byte {
	i := bytes.LastIndex(body, []byte(`,"plan":[`))
	if i < 0 || !bytes.HasSuffix(body, []byte(optimizeSuffix)) || i+1 > len(body)-len(optimizeSuffix) {
		return keepAll(body[:min(len(body), 512)])
	}
	tail := body[i+1 : len(body)-len(optimizeSuffix)]
	return append(append(make([]byte, 0, len(tail)+1), '{'), tail...)
}

// keepAll copies the whole body.
func keepAll(body []byte) []byte { return append([]byte(nil), body...) }
