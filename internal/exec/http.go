package exec

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"
)

// callDocument is the HTTP wire format, both directions: the request
// carries the input block, the response the survivors plus the server's
// own processing-time measure.
type callDocument struct {
	Tuples           []Tuple `json:"tuples"`
	ProcessingMicros int64   `json:"processingMicros,omitempty"`
}

// HTTPBackend calls services over HTTP: POST {BaseURL}/call/{service} with
// a JSON tuple block, expecting the surviving block back. It is the
// production Backend; BackendHandler is its server half, so any Backend
// (including the deterministic mock) can be hosted remotely.
type HTTPBackend struct {
	// BaseURL is the service host's root, without a trailing slash.
	BaseURL string

	// Client is the HTTP client to use (nil = defaultClient, which keeps
	// a connection per concurrently calling stage alive). Per-call
	// timeouts arrive via the context, not the client.
	Client *http.Client
}

// maxIdleConnsPerHost is how many idle connections defaultClient keeps per
// service host. The executor calls every stage of a plan at once, so one
// host sees as many concurrent calls as the plan has stages; net/http's
// default of 2 would close and redial the rest after every call.
const maxIdleConnsPerHost = 64

// defaultClient serves every HTTPBackend without a Client. It is built once
// over a clone of http.DefaultTransport and never mutated.
var defaultClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = maxIdleConnsPerHost
	return &http.Client{Transport: t}
}()

func (hb *HTTPBackend) client() *http.Client {
	if hb.Client != nil {
		return hb.Client
	}
	return defaultClient
}

// Call implements Backend.
func (hb *HTTPBackend) Call(ctx context.Context, service string, in []Tuple) (CallResult, error) {
	body, err := json.Marshal(callDocument{Tuples: in})
	if err != nil {
		return CallResult{}, err
	}
	u := hb.BaseURL + "/call/" + url.PathEscape(service)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return CallResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hb.client().Do(req)
	if err != nil {
		return CallResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return CallResult{}, fmt.Errorf("exec: %s: status %d: %s", u, resp.StatusCode, msg)
	}
	var doc callDocument
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return CallResult{}, fmt.Errorf("exec: %s: decoding response: %w", u, err)
	}
	return CallResult{
		Tuples:     doc.Tuples,
		Processing: time.Duration(doc.ProcessingMicros) * time.Microsecond,
	}, nil
}

// BackendHandler serves b over HTTP in the wire format HTTPBackend speaks:
// POST /call/{service}. Backend errors map to 502 so the executor's retry
// and breaker paths see them as call failures.
func BackendHandler(b Backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /call/{service}", func(w http.ResponseWriter, r *http.Request) {
		service, err := url.PathUnescape(r.PathValue("service"))
		if err != nil || service == "" {
			http.Error(w, "bad service name", http.StatusBadRequest)
			return
		}
		var doc callDocument
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&doc); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		res, err := b.Call(r.Context(), service, doc.Tuples)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out := callDocument{Tuples: res.Tuples, ProcessingMicros: res.Processing.Microseconds()}
		if out.Tuples == nil {
			out.Tuples = []Tuple{} // an empty block is data, not null
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out)
	})
	return mux
}
