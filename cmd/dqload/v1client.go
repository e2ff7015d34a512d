package main

// dqload's client for dqserve's /v1 surface: one helper per endpoint, each
// reading the envelope — {"data":<payload>,"error":null} on success,
// {"data":null,"error":{"code","message",...}} on failure — through the
// same decoder.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"serviceordering/internal/adapt"
	"serviceordering/internal/serve"
)

// v1Error is the error half of a /v1 envelope. Reason is set on
// admission sheds only.
type v1Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	Reason  string `json:"reason"`
}

// readV1 decodes one /v1 envelope: the data payload as a T, or the error
// half when the server answered with one.
func readV1[T any](r io.Reader) (T, *v1Error, error) {
	var env struct {
		Data  T        `json:"data"`
		Error *v1Error `json:"error"`
	}
	err := json.NewDecoder(r).Decode(&env)
	return env.Data, env.Error, err
}

// statusError describes a non-200 answer from path, with the envelope's
// code and message when the body carries one.
func statusError(path string, resp *http.Response) error {
	if _, e, err := readV1[json.RawMessage](resp.Body); err == nil && e != nil {
		return fmt.Errorf("%s: status %d: %s: %s", path, resp.StatusCode, e.Code, e.Message)
	}
	return fmt.Errorf("%s: status %d", path, resp.StatusCode)
}

// readV1Data decodes a 200 answer's data payload as a T; any other answer
// is an error.
func readV1Data[T any](path string, resp *http.Response) (T, error) {
	var zero T
	if resp.StatusCode != http.StatusOK {
		return zero, statusError(path, resp)
	}
	data, e, err := readV1[T](resp.Body)
	switch {
	case err != nil:
		return zero, fmt.Errorf("%s: %w", path, err)
	case e != nil:
		return zero, fmt.Errorf("%s: %s: %s", path, e.Code, e.Message)
	}
	return data, nil
}

// postV1 posts body to path and decodes the answer's data as a T.
func postV1[T any](client *http.Client, baseURL, path string, body []byte) (T, error) {
	resp, err := client.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		var zero T
		return zero, err
	}
	defer resp.Body.Close()
	return readV1Data[T](path, resp)
}

// getV1 fetches path and decodes the answer's data as a T.
func getV1[T any](client *http.Client, baseURL, path string) (T, error) {
	resp, err := client.Get(baseURL + path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer resp.Body.Close()
	return readV1Data[T](path, resp)
}

// drainV1 posts body to path and discards a 200 answer undecoded — the
// unverified counterpart of the decoding helpers, keeping client work light
// and constant.
func drainV1(client *http.Client, baseURL, path string, body []byte) error {
	resp, err := client.Post(baseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(path, resp)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// postV1Optimize posts one instance to /v1/optimize and decodes the
// verification probe.
func postV1Optimize(client *http.Client, baseURL string, body []byte) (solvedProbe, error) {
	return postV1[solvedProbe](client, baseURL, "/v1/optimize", body)
}

// drainV1Optimize posts one instance to /v1/optimize and discards the
// answer.
func drainV1Optimize(client *http.Client, baseURL string, body []byte) error {
	return drainV1(client, baseURL, "/v1/optimize", body)
}

// postV1Batch posts a batch document to /v1/optimize/batch and decodes
// the per-instance probes.
func postV1Batch(client *http.Client, baseURL string, body []byte) (batchProbe, error) {
	return postV1[batchProbe](client, baseURL, "/v1/optimize/batch", body)
}

// postV1Observe posts an execution report to /v1/observe; the registry's
// outcome is checked for an error envelope and dropped.
func postV1Observe(client *http.Client, baseURL string, rep *adapt.Report) error {
	body, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = postV1[serve.ObserveResponse](client, baseURL, "/v1/observe", body)
	return err
}

// postV1Execute posts one execute request to /v1/execute and decodes the
// full response.
func postV1Execute(client *http.Client, baseURL string, body []byte) (serve.ExecuteResponse, error) {
	return postV1[serve.ExecuteResponse](client, baseURL, "/v1/execute", body)
}

// getV1Stats scrapes /v1/stats.
func getV1Stats(client *http.Client, baseURL string) (serve.StatsResponse, error) {
	return getV1[serve.StatsResponse](client, baseURL, "/v1/stats")
}

// getV1Healthz scrapes /v1/healthz.
func getV1Healthz(client *http.Client, baseURL string) (serve.HealthzResponse, error) {
	return getV1[serve.HealthzResponse](client, baseURL, "/v1/healthz")
}
