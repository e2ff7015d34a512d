package serviceordering_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"serviceordering"
)

// TestFacadeServeHandler exercises the consolidated ServeOptions
// constructor: /v1/optimize answers in the envelope with the solved plan.
func TestFacadeServeHandler(t *testing.T) {
	body := []byte(`{"query":{"services":[{"name":"a","cost":2,"selectivity":0.5},{"name":"b","cost":1,"selectivity":0.8}],"transfer":[[0,1],[2,0]]}}`)
	handler := serviceordering.NewServeHandler(serviceordering.NewPlanner(serviceordering.PlannerConfig{}), serviceordering.ServeOptions{})
	req := httptest.NewRequest("POST", "/v1/optimize", bytes.NewReader(body))
	w := httptest.NewRecorder()
	handler.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("/v1/optimize status %d: %s", w.Code, w.Body)
	}
	var env struct {
		Data struct {
			Plan    []int `json:"plan"`
			Optimal bool  `json:"optimal"`
		} `json:"data"`
		Error json.RawMessage `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || string(env.Error) != "null" {
		t.Fatalf("v1 envelope: %v %s", err, w.Body)
	}
	if len(env.Data.Plan) != 2 || !env.Data.Optimal {
		t.Fatalf("v1 payload %+v, want an optimal two-service plan", env.Data)
	}
}

// TestFacadeFleetPeer wires a two-peer fleet entirely through the facade:
// listeners, peers, validation.
func TestFacadeFleetPeer(t *testing.T) {
	s1, err := serviceordering.ListenFleetPeer("127.0.0.1:0", "facade-fleet")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s2, err := serviceordering.ListenFleetPeer("127.0.0.1:0", "facade-fleet")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addrs := []string{s1.Addr(), s2.Addr()}

	mk := func(self string, srv *serviceordering.PeerServer) *serviceordering.FleetPeer {
		t.Helper()
		fp, err := serviceordering.NewFleetPeer(serviceordering.FleetOptions{
			FleetID: "facade-fleet",
			Self:    self,
			Peers:   addrs,
			Planner: serviceordering.NewPlanner(serviceordering.PlannerConfig{}),
			Server:  srv,
		})
		if err != nil {
			t.Fatalf("NewFleetPeer(%s): %v", self, err)
		}
		fp.Run()
		return fp
	}
	p1 := mk(addrs[0], s1)
	p2 := mk(addrs[1], s2)
	t.Cleanup(func() { p1.Close(); p2.Close() })

	// Both facade-built peers compute the same owner for any signature.
	for b := 1; b < 64; b++ {
		sig := serviceordering.PlanSignature{byte(b), byte(b * 3)}
		if p1.Owner(sig) != p2.Owner(sig) {
			t.Fatal("facade peers disagree on ownership")
		}
	}

	if _, err := serviceordering.NewFleetPeer(serviceordering.FleetOptions{FleetID: "x", Self: "nowhere", Peers: addrs}); err == nil {
		t.Fatal("invalid fleet options accepted")
	}
}

// TestFacadeAdmissionController: the facade constructor produces a working
// controller usable in ServeOptions.
func TestFacadeAdmissionController(t *testing.T) {
	ctl := serviceordering.NewAdmissionController(serviceordering.AdmissionOptions{MaxConcurrent: 2, MaxQueue: 2})
	if ctl == nil {
		t.Fatal("nil controller")
	}
	h := serviceordering.NewServeHandler(serviceordering.NewPlanner(serviceordering.PlannerConfig{}), serviceordering.ServeOptions{Admission: ctl})
	req := httptest.NewRequest("GET", "/v1/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("healthz through admission-wired handler: %d", w.Code)
	}
}
