package ensemble_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"foam/internal/core"
	"foam/internal/ensemble"
	"foam/internal/scenario"
)

// newTestServer boots a handler over a small scheduler.
func newTestServer(t *testing.T, workers int) (*httptest.Server, *ensemble.Scheduler) {
	t.Helper()
	s := ensemble.New(ensemble.Config{Workers: workers, MaxMembers: 32})
	srv := httptest.NewServer(ensemble.NewHandler(s))
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return srv, s
}

func doJSON(t *testing.T, srv *httptest.Server, method, path, body string, out any) int {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, srv.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(blob, out); err != nil {
			t.Fatalf("%s %s: bad response body %q: %v", method, path, blob, err)
		}
	}
	return resp.StatusCode
}

// configBody is a raw-config create body: the named scenario's compiled
// configuration and, when chk is non-empty, a checkpoint to resume from.
func configBody(t *testing.T, name string, chk []byte) string {
	t.Helper()
	cfg := mustScenario(name)
	blob, err := json.Marshal(ensemble.CreateRequest{Config: &cfg, Checkpoint: chk})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func createMember(t *testing.T, srv *httptest.Server) ensemble.Info {
	t.Helper()
	var info ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members", configBody(t, "r5-quick", nil), &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	return info
}

// TestHandlerTable pins the API's error contract: malformed bodies, bad
// configs, unknown and deleted members, and invalid advance counts must map
// to the right status codes — and none of them may panic the server.
func TestHandlerTable(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	live := createMember(t, srv)
	deleted := createMember(t, srv)
	if code := doJSON(t, srv, "DELETE", "/v1/members/"+deleted.ID, "", nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}

	// Checkpoints for the resume rows: the live member's own, the same with
	// one bit flipped, and one from the paper's resolution, which used to
	// panic inside Restore (index out of range) and reset the connection.
	var snap ensemble.SnapshotResponse
	if code := doJSON(t, srv, "POST", "/v1/members/"+live.ID+"/snapshot", "", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	r5Checkpoint := snap.Checkpoint
	corrupt := append([]byte(nil), r5Checkpoint...)
	corrupt[len(corrupt)/2] ^= 1
	paper, err := core.New(mustScenario("paper-foam"))
	if err != nil {
		t.Fatal(err)
	}
	defer paper.Close()
	var buf bytes.Buffer
	if err := paper.Checkpoint().Save(&buf); err != nil {
		t.Fatal(err)
	}
	r15Checkpoint := buf.Bytes()
	// The live member's checkpoint with its scheduler phase edited to one
	// no run reaches. A negative step, or one whose tick wraps negative a
	// few steps on, used to restore, and the member's first advance then
	// panicked in the executor on a worker goroutine, which ended the
	// daemon.
	phase := func(edit func(c *core.Checkpoint)) []byte {
		chk, err := core.LoadCheckpoint(bytes.NewReader(r5Checkpoint))
		if err != nil {
			t.Fatal(err)
		}
		edit(chk)
		var buf bytes.Buffer
		if err := chk.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Atmosphere latitude counts with no mirror-row pairing used to pass
	// Normalize and panic in BuildTables (0, -4) or run unpaired (odd).
	nlatBody := func(n int) string {
		cfg := mustScenario("r5-quick")
		cfg.Atm.NLat = n
		blob, err := json.Marshal(ensemble.CreateRequest{Config: &cfg})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"create malformed json", "POST", "/v1/members", `{"config": {"Oce`, http.StatusBadRequest},
		{"create wrong type", "POST", "/v1/members", `{"config": 7}`, http.StatusBadRequest},
		{"create without config", "POST", "/v1/members", `{"preset":"reduced"}`, http.StatusBadRequest},
		{"create empty body", "POST", "/v1/members", `{}`, http.StatusBadRequest},
		{"create overrides without config", "POST", "/v1/members", `{"ocean_lag":1,"flat":true}`, http.StatusBadRequest},
		{"create checkpoint without config", "POST", "/v1/members", `{"checkpoint":"AAAA"}`, http.StatusBadRequest},
		{"create invalid config", "POST", "/v1/members", `{"config":{"OceanEvery":-1}}`, http.StatusBadRequest},
		{"create zero atmosphere latitudes", "POST", "/v1/members", nlatBody(0), http.StatusBadRequest},
		{"create negative atmosphere latitudes", "POST", "/v1/members", nlatBody(-4), http.StatusBadRequest},
		{"create odd atmosphere latitudes", "POST", "/v1/members", nlatBody(15), http.StatusBadRequest},
		{"create bad checkpoint", "POST", "/v1/members", configBody(t, "r5-quick", []byte("not a checkpoint")), http.StatusBadRequest},
		{"create truncated checkpoint", "POST", "/v1/members", configBody(t, "r5-quick", r5Checkpoint[:len(r5Checkpoint)/2]), http.StatusBadRequest},
		{"create corrupt checkpoint", "POST", "/v1/members", configBody(t, "r5-quick", corrupt), http.StatusBadRequest},
		{"create checkpoint of another resolution", "POST", "/v1/members", configBody(t, "r5-quick", r15Checkpoint), http.StatusBadRequest},
		{"create checkpoint with negative step", "POST", "/v1/members", configBody(t, "r5-quick", phase(func(c *core.Checkpoint) { c.Step = -1 })), http.StatusBadRequest},
		{"create checkpoint with a step past any run", "POST", "/v1/members", configBody(t, "r5-quick", phase(func(c *core.Checkpoint) {
			c.Step = (math.MaxInt/live.CoupleEvery-1)*live.CoupleEvery + c.AccSteps
			c.Atm.Step = c.Step
		})), http.StatusBadRequest},
		{"create checkpoint with atmosphere step off the tick", "POST", "/v1/members", configBody(t, "r5-quick", phase(func(c *core.Checkpoint) { c.Atm.Step++ })), http.StatusBadRequest},
		{"create checkpoint with accumulated steps off the phase", "POST", "/v1/members", configBody(t, "r5-quick", phase(func(c *core.Checkpoint) { c.AccSteps++ })), http.StatusBadRequest},
		// A slab ocean holds only its surface layer, so a full ocean's
		// checkpoint does not fit it.
		{"create slab ocean from a full-ocean checkpoint", "POST", "/v1/members", configBody(t, "slab-ocean", r5Checkpoint), http.StatusBadRequest},
		{"create from its own checkpoint", "POST", "/v1/members", configBody(t, "r5-quick", r5Checkpoint), http.StatusCreated},
		{"info unknown", "GET", "/v1/members/m9999", "", http.StatusNotFound},
		{"advance unknown", "POST", "/v1/members/m9999/advance", `{"steps":1}`, http.StatusNotFound},
		{"advance deleted", "POST", "/v1/members/" + deleted.ID + "/advance", `{"steps":1}`, http.StatusNotFound},
		{"advance malformed json", "POST", "/v1/members/" + live.ID + "/advance", `steps=3`, http.StatusBadRequest},
		{"advance no count", "POST", "/v1/members/" + live.ID + "/advance", `{}`, http.StatusBadRequest},
		{"advance both counts", "POST", "/v1/members/" + live.ID + "/advance", `{"steps":1,"intervals":1}`, http.StatusBadRequest},
		{"advance negative", "POST", "/v1/members/" + live.ID + "/advance", `{"steps":-4}`, http.StatusBadRequest},
		{"advance trailing garbage", "POST", "/v1/members/" + live.ID + "/advance", `{"intervals":1}garbage`, http.StatusBadRequest},
		{"advance second value", "POST", "/v1/members/" + live.ID + "/advance", `{"intervals":1}{"steps":5}`, http.StatusBadRequest},
		{"advance trailing bracket", "POST", "/v1/members/" + live.ID + "/advance", `{"intervals":1}]`, http.StatusBadRequest},
		{"create trailing value", "POST", "/v1/members", configBody(t, "r5-quick", r5Checkpoint) + `{}`, http.StatusBadRequest},
		{"diag unknown", "GET", "/v1/members/m9999/diag", "", http.StatusNotFound},
		{"sst unknown", "GET", "/v1/members/m9999/sst", "", http.StatusNotFound},
		{"snapshot unknown", "POST", "/v1/members/m9999/snapshot", "", http.StatusNotFound},
		{"fork unknown", "POST", "/v1/members/m9999/fork", "", http.StatusNotFound},
		{"delete unknown", "DELETE", "/v1/members/m9999", "", http.StatusNotFound},
		{"delete deleted", "DELETE", "/v1/members/" + deleted.ID, "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := doJSON(t, srv, tc.method, tc.path, tc.body, nil); code != tc.want {
				t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, code, tc.want)
			}
		})
	}

	// The live member is untouched by all of the above, the daemon still
	// serves, and the only member added is the one valid resume.
	var info ensemble.Info
	if code := doJSON(t, srv, "GET", "/v1/members/"+live.ID, "", &info); code != http.StatusOK || info.Step != 0 {
		t.Fatalf("live member: status %d info %+v", code, info)
	}
	var members []ensemble.Info
	if code := doJSON(t, srv, "GET", "/v1/members", "", &members); code != http.StatusOK || len(members) != 2 {
		t.Fatalf("member list: status %d, %d members, want 2", code, len(members))
	}
	if code := doJSON(t, srv, "POST", "/v1/members/"+live.ID+"/advance", `{"intervals":1}`, &info); code != http.StatusOK || info.Step != live.CoupleEvery {
		t.Fatalf("advance after the table: status %d info %+v", code, info)
	}
}

// TestHandlerCreateOverrides: ocean_lag and flat on a create body override
// the config they ride with rather than being dropped.
func TestHandlerCreateOverrides(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	cfg := mustScenario("r5-quick")
	lag := 1 - cfg.OceanLag
	blob, err := json.Marshal(ensemble.CreateRequest{Config: &cfg, OceanLag: &lag})
	if err != nil {
		t.Fatal(err)
	}
	var info ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members", string(blob), &info); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if info.OceanLag != lag {
		t.Fatalf("member has lag %d, want the overriding %d", info.OceanLag, lag)
	}
}

// TestHandlerConcurrentAdvance pins the 409 contract: while one advance on
// a member is in flight, a second advance on the same member fails with
// StatusConflict and the first still completes.
func TestHandlerConcurrentAdvance(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	m := createMember(t, srv)
	steps := 6 * m.CoupleEvery
	if testing.Short() {
		steps = 3 * m.CoupleEvery
	}

	// One attempt: fire a long advance from a goroutine, wait until the
	// member is observably busy (its diag answers 409), then send a 1-step
	// advance. Every request but the long advance runs synchronously on this
	// goroutine, so nothing competes with the long advance at entry — it
	// must complete with 200 — and a busy member can only be busy with it:
	// the 1-step advance must draw the 409. The only retry is a long advance
	// that finishes before it is observed or before the second advance lands.
	attempt := func() bool {
		first := make(chan int, 1)
		go func() {
			body, _ := json.Marshal(ensemble.AdvanceRequest{Steps: steps})
			resp, err := srv.Client().Post(srv.URL+"/v1/members/"+m.ID+"/advance", "application/json", bytes.NewReader(body))
			if err != nil {
				first <- 0
				return
			}
			resp.Body.Close()
			first <- resp.StatusCode
		}()
		wantLongOK := func(code int) {
			t.Helper()
			if code != http.StatusOK {
				t.Fatalf("long advance: status %d", code)
			}
		}
		for inFlight := false; !inFlight; {
			select {
			case code := <-first:
				wantLongOK(code)
				return false // finished unobserved; retry
			default:
			}
			switch code := doJSON(t, srv, "GET", "/v1/members/"+m.ID+"/diag", "", nil); code {
			case http.StatusConflict:
				inFlight = true
			case http.StatusOK:
				time.Sleep(time.Millisecond) // not picked up by the worker yet
			default:
				t.Fatalf("diag: unexpected status %d", code)
			}
		}
		code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"steps":1}`, nil)
		wantLongOK(<-first)
		switch code {
		case http.StatusConflict:
			return true
		case http.StatusOK:
			return false // the long advance ended between the diag and this request
		}
		t.Fatalf("concurrent advance: unexpected status %d", code)
		return false
	}

	sawConflict := false
	for try := 0; try < 10 && !sawConflict; try++ {
		sawConflict = attempt()
	}
	if !sawConflict {
		t.Fatal("never observed a 409 for a concurrent advance on the same member")
	}
	// Afterwards the member advances normally again.
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"steps":1}`, nil); code != http.StatusOK {
		t.Fatalf("post-conflict advance: status %d", code)
	}
}

// TestHandlerScenarios drives the scenario surface of the API: the registry
// listing, creation by name (labelled in member info and stats), label
// inheritance through fork, resume onto the same scenario, and the 404/400
// contract for unknown names and bad checkpoints.
func TestHandlerScenarios(t *testing.T) {
	srv, _ := newTestServer(t, 2)

	var rows []scenario.Row
	if code := doJSON(t, srv, "GET", "/v1/scenarios", "", &rows); code != http.StatusOK {
		t.Fatalf("scenarios: status %d", code)
	}
	if len(rows) < 8 {
		t.Fatalf("scenario registry lists %d rows, want >= 8", len(rows))
	}
	found := false
	for _, r := range rows {
		if r.Name == "r5-quick" {
			found = true
		}
	}
	if !found {
		t.Fatal("registry listing is missing r5-quick")
	}

	if code := doJSON(t, srv, "POST", "/v1/scenarios/nonesuch/members", "", nil); code != http.StatusNotFound {
		t.Fatalf("unknown scenario: status %d, want 404", code)
	}
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", `{"checkpoint":"AAAA"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad checkpoint: status %d, want 400", code)
	}

	var m ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", "", &m); code != http.StatusCreated {
		t.Fatalf("create by scenario: status %d", code)
	}
	if m.Scenario != "r5-quick" {
		t.Fatalf("member scenario %q, want r5-quick", m.Scenario)
	}
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"intervals":1}`, &m); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}

	// A fork inherits the parent's scenario label.
	var fork ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/fork", "", &fork); code != http.StatusCreated {
		t.Fatalf("fork: status %d", code)
	}
	if fork.Scenario != "r5-quick" || fork.Parent != m.ID {
		t.Fatalf("fork info: %+v", fork)
	}

	// Resume a snapshot onto the same scenario name.
	var snap ensemble.SnapshotResponse
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/snapshot", "", &snap); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	body, err := json.Marshal(ensemble.CreateRequest{Checkpoint: snap.Checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	var resumed ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/scenarios/r5-quick/members", string(body), &resumed); code != http.StatusCreated {
		t.Fatalf("resume by scenario: status %d", code)
	}
	if resumed.Scenario != "r5-quick" || resumed.Step != m.Step {
		t.Fatalf("resumed info: %+v (want step %d)", resumed, m.Step)
	}

	// A raw-config member carries no label; stats count only labelled ones.
	createMember(t, srv)
	var st ensemble.Stats
	if code := doJSON(t, srv, "GET", "/v1/stats", "", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Members != 4 || st.Scenarios["r5-quick"] != 3 {
		t.Fatalf("stats: %+v, want 4 members with 3 x r5-quick", st)
	}
	if st.TableSets != 1 {
		t.Fatalf("stats: %d table sets, want 1 (the raw-config member runs r5-quick's config and shares its tables)", st.TableSets)
	}
}

// TestHandlerLifecycle drives the full API surface: create, advance by
// intervals, diagnostics, SST, snapshot, resume (snapshot POSTed back
// verbatim), fork — and checks the resumed member matches the original
// bit-for-bit after identical stepping.
func TestHandlerLifecycle(t *testing.T) {
	srv, s := newTestServer(t, 2)
	m := createMember(t, srv)

	var adv ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/advance", `{"intervals":1}`, &adv); code != http.StatusOK {
		t.Fatalf("advance: status %d", code)
	}
	if adv.Step != m.CoupleEvery || adv.LastWallSeconds <= 0 || adv.StepsPerSecond <= 0 {
		t.Fatalf("advance info: %+v", adv)
	}

	var d ensemble.Diag
	if code := doJSON(t, srv, "GET", "/v1/members/"+m.ID+"/diag", "", &d); code != http.StatusOK {
		t.Fatalf("diag: status %d", code)
	}
	if d.Info.Step != adv.Step || d.Model.MeanSSTModel == 0 {
		t.Fatalf("diag: %+v", d)
	}

	var sst ensemble.SSTField
	if code := doJSON(t, srv, "GET", "/v1/members/"+m.ID+"/sst", "", &sst); code != http.StatusOK {
		t.Fatalf("sst: status %d", code)
	}
	if len(sst.SST) != sst.NLat*sst.NLon || sst.NLat == 0 {
		t.Fatalf("sst: %d values for %dx%d", len(sst.SST), sst.NLat, sst.NLon)
	}

	// Snapshot, then resume by POSTing the snapshot body back verbatim.
	req, err := http.NewRequest("POST", srv.URL+"/v1/members/"+m.ID+"/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	snapBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d err %v", resp.StatusCode, err)
	}
	var snap ensemble.SnapshotResponse
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Checkpoint) == 0 {
		t.Fatal("snapshot carries no checkpoint")
	}
	var resumed ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members", string(snapBody), &resumed); code != http.StatusCreated {
		t.Fatalf("resume: status %d", code)
	}
	if resumed.Step != adv.Step {
		t.Fatalf("resumed member starts at step %d, want %d", resumed.Step, adv.Step)
	}

	// Fork the original; original, resumed and fork now step identically.
	var fork ensemble.Info
	if code := doJSON(t, srv, "POST", "/v1/members/"+m.ID+"/fork", "", &fork); code != http.StatusCreated {
		t.Fatalf("fork: status %d", code)
	}
	if fork.Parent != m.ID || fork.Step != adv.Step {
		t.Fatalf("fork info: %+v", fork)
	}

	ids := []string{m.ID, resumed.ID, fork.ID}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			if code := doJSON(t, srv, "POST", "/v1/members/"+id+"/advance", `{"intervals":2}`, nil); code != http.StatusOK {
				t.Errorf("advance %s: status %d", id, code)
			}
		}(id)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	ref := checkpointBytes(t, s, m.ID)
	for _, id := range ids[1:] {
		if !bytes.Equal(ref, checkpointBytes(t, s, id)) {
			t.Errorf("member %s diverged from %s after identical stepping", id, m.ID)
		}
	}

	var list []ensemble.Info
	if code := doJSON(t, srv, "GET", "/v1/members", "", &list); code != http.StatusOK || len(list) != 3 {
		t.Fatalf("list: status %d, %d members", code, len(list))
	}
	var st ensemble.Stats
	if code := doJSON(t, srv, "GET", "/v1/stats", "", &st); code != http.StatusOK || st.Members != 3 || st.TableSets != 1 {
		t.Fatalf("stats: status %d %+v", code, st)
	}
}

// TestHandlerChunkedEmptyBody: a body-less scenario create sent with
// chunked framing (no Content-Length reaches the server) is no body, as it
// is with Content-Length: 0.
func TestHandlerChunkedEmptyBody(t *testing.T) {
	srv, _ := newTestServer(t, 1)
	req, err := http.NewRequest("POST", srv.URL+"/v1/scenarios/r5-quick/members", io.MultiReader())
	if err != nil {
		t.Fatal(err)
	}
	req.TransferEncoding = []string{"chunked"}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("chunked empty body: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
}

// TestHandlerFalseContentLength: a request that claims 2^40 bytes and
// carries 100 is a 400 and costs a few MB at most. Memory goes only to
// bytes that have arrived (DESIGN.md sections 13 and 20).
func TestHandlerFalseContentLength(t *testing.T) {
	s := ensemble.New(ensemble.Config{Workers: 1})
	defer s.Close()
	h := ensemble.NewHandler(s)
	body := `{"checkpoint":"` + strings.Repeat("A", 85)
	if len(body) != 100 {
		t.Fatalf("body is %d bytes, want 100", len(body))
	}
	for _, path := range []string{"/v1/members", "/v1/scenarios/r5-quick/members", "/v1/members/m1/advance"} {
		req := httptest.NewRequest("POST", path, strings.NewReader(body))
		req.ContentLength = 1 << 40
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("POST %s: status %d, want 400", path, rec.Code)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("POST %s: allocated %d bytes for a 100-byte body", path, grew)
		}
	}
}
