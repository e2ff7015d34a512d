package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"serviceordering/internal/adapt"
	"serviceordering/internal/admit"
	"serviceordering/internal/core"
	"serviceordering/internal/gen"
	"serviceordering/internal/model"
	"serviceordering/internal/planner"
)

// The HTTP face of overload survival: classification-priced admission,
// 429 + Retry-After with typed reasons, the stale-serve degraded mode
// with its background replan, and the /v1/stats overload block.

// typedReason reports whether r names one of the admission layer's typed
// shed reasons.
func typedReason(r string) bool {
	switch admit.Reason(r) {
	case admit.ReasonQueueFull, admit.ReasonColdShed, admit.ReasonTenantOverShare, admit.ReasonWaitTimeout:
		return true
	}
	return false
}

// namedInstance builds an instance whose services carry unique names so
// the adaptive registry can match drift reports to them.
func namedInstance(t testing.TB, n int, seed int64) *model.Instance {
	t.Helper()
	inst := genInstance(t, gen.Default(n, seed))
	for i := range inst.Query.Services {
		inst.Query.Services[i].Name = "svc-" + string(rune('a'+i))
	}
	return inst
}

// observeDrift feeds covering noise-free reports of truth into reg until
// a generation publishes.
func observeDrift(t testing.TB, reg *adapt.Registry, truth *model.Query) {
	t.Helper()
	n := truth.N()
	for s := 0; s < n; s++ {
		plan := make(model.Plan, n)
		for i := range plan {
			plan[i] = (s + i) % n
		}
		rep := &adapt.Report{}
		in := int64(100000)
		for pos, sv := range plan {
			if in <= 0 {
				break
			}
			svc := truth.Services[sv]
			out := int64(math.Round(float64(in) * svc.Selectivity))
			rep.Services = append(rep.Services, adapt.ServiceObservation{
				Name: svc.Name, TuplesIn: in, TuplesOut: out,
				BusyProcessing: svc.Cost * float64(in),
			})
			if pos+1 < len(plan) && out > 0 {
				rep.Transfers = append(rep.Transfers, adapt.TransferObservation{
					From: svc.Name, To: truth.Services[plan[pos+1]].Name,
					Tuples: out, BusySending: truth.Transfer[sv][plan[pos+1]] * float64(out),
				})
			}
			in = out
		}
		if _, err := reg.Observe(rep); err != nil {
			t.Fatal(err)
		}
	}
	if reg.Generation() == 0 {
		t.Fatal("covering observations did not publish a generation")
	}
}

// TestAdmissionShedsReturn429 drives the handler with admission capacity
// zero-ish (one slot held by a stuck request) and checks the refusal
// contract: status 429, a positive integer Retry-After header, and an
// overloaded error envelope carrying the typed reason.
func TestAdmissionShedsReturn429(t *testing.T) {
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 1, MaxWait: 20 * time.Millisecond})
	h := NewHandler(planner.New(planner.Config{}), Options{Admission: ctl})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Hold the only slot with a ticket taken out-of-band (simplest way to
	// pin the handler's capacity without a slow query).
	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ticket.Release()

	// First request queues and times out (wait-timeout); to get an
	// immediate shed, occupy the queue with a second in-flight request.
	errs := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(5, 1)))
		errs <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ctl.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	resp := postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(5, 2)))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	e := decodeError(t, resp)
	if e.Code != string(codeOverloaded) || e.RetryAfterSeconds != int64(retry) {
		t.Fatalf("shed envelope %+v, want code %s and retryAfterSeconds matching the header %d", e, codeOverloaded, retry)
	}
	switch admit.Reason(e.Reason) {
	case admit.ReasonQueueFull, admit.ReasonColdShed, admit.ReasonTenantOverShare:
	default:
		t.Fatalf("shed reason %q not a typed immediate-shed reason", e.Reason)
	}
	if code := <-errs; code != http.StatusOK && code != http.StatusTooManyRequests {
		t.Fatalf("queued request finished %d", code)
	}
}

// TestAdmissionWarmBypassesColdShed: with the cold queue exhausted, warm
// (cached) requests still get in.
func TestAdmissionWarmBypassesColdShed(t *testing.T) {
	p := planner.New(planner.Config{})
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 2, ColdQueueFrac: 0.5, MaxWait: 2 * time.Second})
	srv := httptest.NewServer(NewHandler(p, Options{Admission: ctl}))
	defer srv.Close()

	warm := genInstance(t, gen.Default(6, 42))
	if resp := postJSON(t, srv.URL+"/v1/optimize", warm); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime failed: %d", resp.StatusCode)
	}

	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	// Fill the cold queue allowance (ceil(0.5*2) = 1).
	coldDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(6, 43)))
		coldDone <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ctl.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cold request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	// Another cold arrival sheds...
	if resp := postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(6, 44))); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("cold over allowance: status %d, want 429", resp.StatusCode)
	}
	// ...but the warm (cached) query queues and is served once the slot
	// frees.
	warmDone := make(chan int, 1)
	go func() {
		resp := postJSON(t, srv.URL+"/v1/optimize", warm)
		warmDone <- resp.StatusCode
	}()
	for ctl.Stats().Queued < 2 {
		if time.Now().After(deadline) {
			t.Fatal("warm request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	ticket.Release()
	if code := <-warmDone; code != http.StatusOK {
		t.Fatalf("warm request under overload: status %d, want 200", code)
	}
	if code := <-coldDone; code != http.StatusOK {
		t.Fatalf("queued cold request: status %d, want 200", code)
	}
}

// TestStaleServeDegradedMode is the end-to-end degraded path: prime,
// drift, saturate admission, and require the response to be 200 with
// "stale":true, the old generation's plan, and a background replan
// visible in /v1/stats afterwards.
func TestStaleServeDegradedMode(t *testing.T) {
	reg := adapt.MustNew(adapt.Config{Alpha: 1, MinObservations: 1, DriftDelta: 0.05})
	p := planner.New(planner.Config{Adaptive: reg})
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 1, ColdQueueFrac: 1, MaxWait: 10 * time.Millisecond})
	srv := httptest.NewServer(NewHandler(p, Options{Admission: ctl, StaleServe: true}))
	defer srv.Close()

	inst := namedInstance(t, 8, 511)
	resp := postJSON(t, srv.URL+"/v1/optimize", inst)
	first := decodeData[OptimizeResponse](t, resp)
	if resp.StatusCode != http.StatusOK || first.Stale {
		t.Fatalf("prime: status %d stale %v", resp.StatusCode, first.Stale)
	}

	// Drift the world so the cached entry goes stale.
	truth := inst.Query.Clone()
	for i := range truth.Services {
		truth.Services[i].Cost *= 2
	}
	truth.Services[0].Selectivity *= 0.5
	observeDrift(t, reg, truth)

	// Saturate: hold the only slot and fill the queue so the (now cold)
	// re-optimize would be shed.
	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	qDone := make(chan struct{})
	go func() {
		defer close(qDone)
		postJSON(t, srv.URL+"/v1/optimize", genInstance(t, gen.Default(6, 99)))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for ctl.Stats().Queued == 0 {
		if time.Now().After(deadline) {
			t.Fatal("filler never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// The drifted query would shed — instead it serves stale.
	resp = postJSON(t, srv.URL+"/v1/optimize", inst)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stale-serve: status %d, want 200", resp.StatusCode)
	}
	raw, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(raw, []byte(`"stale":true`)) {
		t.Fatalf("degraded response missing \"stale\":true: %s", raw)
	}
	var env v1Envelope
	if err := json.Unmarshal(raw, &env); err != nil || env.Error != nil {
		t.Fatalf("degraded response is not a success envelope: %v %s", err, raw)
	}
	var degraded OptimizeResponse
	if err := json.Unmarshal(env.Data, &degraded); err != nil {
		t.Fatal(err)
	}
	if degraded.Cost != first.Cost {
		t.Fatalf("stale response cost %v, want the pre-drift answer %v", degraded.Cost, first.Cost)
	}
	if err := model.Plan(degraded.Plan).Validate(inst.Query); err != nil {
		t.Fatalf("stale plan invalid: %v", err)
	}

	// Free capacity; the background replan completes and /v1/stats shows
	// the full story.
	ticket.Release()
	<-qDone
	var overload *OverloadStats
	for time.Now().Before(deadline) {
		sresp, err := http.Get(srv.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		st := decodeData[StatsResponse](t, sresp)
		sresp.Body.Close()
		overload = st.Overload
		if overload != nil && overload.BackgroundReplans >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if overload == nil {
		t.Fatal("/v1/stats has no overload block with admission enabled")
	}
	if overload.StaleServed < 1 {
		t.Fatalf("staleServed = %d, want >= 1", overload.StaleServed)
	}
	if overload.BackgroundReplans < 1 {
		t.Fatalf("backgroundReplans = %d, want >= 1 (queue depth %d, dropped %d)",
			overload.BackgroundReplans, overload.ReplanQueueDepth, overload.ReplanDropped)
	}
	if overload.Admission.Sheds() < 0 {
		t.Fatal("impossible")
	}

	// After the replan lands, the same query serves fresh again.
	for time.Now().Before(deadline) {
		resp := postJSON(t, srv.URL+"/v1/optimize", inst)
		fresh := decodeData[OptimizeResponse](t, resp)
		if resp.StatusCode == http.StatusOK && fresh.Cached && !fresh.Stale {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("query never served fresh after the background replan")
}

// TestControlPlaneNeverGated: /v1/stats and /v1/healthz answer 200 while
// the admission controller is fully saturated.
func TestControlPlaneNeverGated(t *testing.T) {
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 1, MaxWait: time.Millisecond})
	srv := httptest.NewServer(NewHandler(planner.New(planner.Config{}), Options{Admission: ctl}))
	defer srv.Close()
	ticket, err := ctl.Acquire(context.Background(), admit.Warm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ticket.Release()
	for _, path := range []string{"/v1/stats", "/v1/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s under saturation: %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestTenantHeaderFairness: a stampeding tenant sheds with
// tenant-over-share while another tenant's request still queues.
func TestTenantHeaderFairness(t *testing.T) {
	ctl := admit.New(admit.Options{MaxConcurrent: 1, MaxQueue: 3, TenantBurst: 1, MaxWait: 10 * time.Second})
	p := planner.New(planner.Config{})
	srv := httptest.NewServer(NewHandler(p, Options{Admission: ctl}))
	defer srv.Close()

	warm := genInstance(t, gen.Default(6, 7))
	if resp := postJSON(t, srv.URL+"/v1/optimize", warm); resp.StatusCode != http.StatusOK {
		t.Fatal("prime failed")
	}
	post := func(tenant string, inst *model.Instance) *http.Response {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(inst); err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/optimize", &buf)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Tenant a holds the only slot; tenants a and b each queue one
	// request through the handler. Capacity is 1+3 = 4, so with two
	// active tenants the fair share is 2 — tenant a (slot + queued = 2)
	// is at its cap, tenant b (1) and newcomers are not.
	ta, err := ctl.Acquire(context.Background(), admit.Warm, "a")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	waitQueued := func(n int, who string) {
		t.Helper()
		for ctl.Stats().Queued < n {
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued (queued = %d, want %d)", who, ctl.Stats().Queued, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	bDone := make(chan int, 1)
	go func() { bDone <- post("b", warm).StatusCode }()
	waitQueued(1, "tenant b")
	aDone := make(chan int, 1)
	go func() { aDone <- post("a", warm).StatusCode }()
	waitQueued(2, "tenant a")

	// Tenant a is now at its share: its next request sheds typed.
	resp := post("a", warm)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant a over share: %d, want 429", resp.StatusCode)
	}
	if reason := decodeError(t, resp).Reason; reason != string(admit.ReasonTenantOverShare) {
		t.Fatalf("reason %q, want %q", reason, admit.ReasonTenantOverShare)
	}
	// A third tenant still gets the remaining queue spot: one tenant's
	// stampede does not close the node.
	cDone := make(chan int, 1)
	go func() { cDone <- post("c", warm).StatusCode }()
	waitQueued(3, "tenant c")

	ta.Release()
	for who, ch := range map[string]chan int{"b": bDone, "a": aDone, "c": cDone} {
		if code := <-ch; code != http.StatusOK {
			t.Fatalf("tenant %s queued request: %d, want 200", who, code)
		}
	}
}

// TestClientDisconnectCancelsSearch is satellite 1 end to end at the
// handler layer: a client that disconnects mid-search cancels the request
// context, the planner aborts the branch-and-bound run, and the handler
// surfaces the cancellation (408) instead of burning the search to
// completion. Driven through ServeHTTP with a cancelable request context
// (httptest clients cannot abandon a request mid-flight as precisely).
func TestClientDisconnectCancelsSearch(t *testing.T) {
	started := make(chan struct{})
	p := planner.New(planner.Config{
		// Disable every pruning rule so the search is guaranteed to still
		// be running when the disconnect lands (n=11 unpruned is tens of
		// millions of nodes — multiple seconds); a completed search would
		// answer 200, so the 408 below proves mid-search abort.
		Search: core.Options{
			DisableIncumbentPruning: true,
			DisableClosure:          true,
			DisableDominance:        true,
		},
		OnSearch: func(planner.Signature) { close(started) },
	})
	h := NewHandler(p, Options{})

	body, err := json.Marshal(genInstance(t, gen.Default(11, 424)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(rec, req)
	}()
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("search never started")
	}
	time.Sleep(10 * time.Millisecond) // let the node loop get going
	cancel()                          // the client vanishes mid-search
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("handler did not return after client disconnect: cancellation not propagated")
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("disconnected request: status %d, want %d (200 means the search ran to completion)",
			rec.Code, http.StatusRequestTimeout)
	}
}

// appendJSONString's fast path only fires on clean ASCII; everything
// else must match encoding/json byte for byte (responses splice these
// fragments into pre-serialized JSON, so a mismatch is corruption).
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	for _, s := range []string{
		"", "plain ascii", `quote " inside`, `back\slash`,
		"control\x01char", "html <b>&</b>", "unicodé   line sep",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString(nil, s); string(got) != string(want) {
			t.Errorf("appendJSONString(%q) = %s, want %s", s, got, want)
		}
	}
}
