package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

func newTestServer(t *testing.T, opts service.Options) (*service.Server, *httptest.Server) {
	t.Helper()
	svc := service.New(opts)
	ts := httptest.NewServer(newMux(svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) (*http.Response, service.JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

const smallSweep = `{"gen":"star","d":16,"algos":["trivial"],"seed":1,"trials":2}`

func TestSubmitGetLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Options{QueueCap: 4, Workers: 2})

	resp, st := submit(t, ts, smallSweep)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if st.ID == "" || st.State != service.StateQueued {
		t.Fatalf("unexpected accepted status %+v", st)
	}

	deadline := time.Now().Add(30 * time.Second)
	var got service.JobStatus
	for {
		if code := getJSON(t, ts, "/v1/sweeps/"+st.ID, &got); code != http.StatusOK {
			t.Fatalf("get status = %d, want 200", code)
		}
		if got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", got.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if got.State != service.StateDone || len(got.Trials) != 2 {
		t.Fatalf("terminal status %+v, want done with 2 trials", got)
	}

	var list []service.JobStatus
	if code := getJSON(t, ts, "/v1/sweeps", &list); code != http.StatusOK || len(list) != 1 {
		t.Fatalf("list: code %d, %d jobs, want 200 with 1", code, len(list))
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, service.Options{QueueCap: 4, Workers: 1})
	for _, body := range []string{
		`{not json`,
		`{"gen":"star","d":16,"algos":["trivial"],"bogus":1}`, // unknown field
		`{"gen":"nope","d":16,"algos":["trivial"]}`,           // unknown generator
		`{"gen":"star","d":16,"algos":["nope"]}`,              // unknown algorithm
	} {
		resp, _ := submit(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit(%s) status = %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestSubmitBodyLimits pins the request-body bounds of POST /v1/sweeps: a
// body over the size limit is refused with 413 and a message naming the
// limit, and trailing data after the spec object is a 400 rather than
// silently ignored.
func TestSubmitBodyLimits(t *testing.T) {
	_, ts := newTestServer(t, service.Options{QueueCap: 4, Workers: 1})
	cases := []struct {
		name, body string
		code       int
		errSub     string
	}{
		{"over-limit", `{"gen":"star","d":16,"algos":["trivial"],"seed":1,"trials":2}` + strings.Repeat(" ", maxSpecBytes),
			http.StatusRequestEntityTooLarge, "byte limit"},
		{"over-limit-string", `{"gen":"` + strings.Repeat("a", maxSpecBytes) + `"}`,
			http.StatusRequestEntityTooLarge, "byte limit"},
		{"trailing-object", smallSweep + `{"gen":"star"}`, http.StatusBadRequest, "trailing data"},
		{"trailing-garbage", smallSweep + ` xyz`, http.StatusBadRequest, "decoding spec"},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		derr := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.code)
		}
		if derr != nil || !strings.Contains(e.Error, tc.errSub) {
			t.Errorf("%s: error body %q (decode err %v), want it to mention %q", tc.name, e.Error, derr, tc.errSub)
		}
	}
	// A spec followed only by whitespace is still exactly one spec.
	if resp, _ := submit(t, ts, smallSweep+"\n"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("spec + newline: status = %d, want 202", resp.StatusCode)
	}
}

func TestQueueFullGives429(t *testing.T) {
	const q = 2
	_, ts := newTestServer(t, service.Options{QueueCap: q, Workers: 1})
	// A long job pins the lone worker so subsequent submissions queue.
	blocker := `{"gen":"leftregular","nu":200,"nv":800,"d":16,"algos":["det"],"seed":1,"trials":4096}`
	resp, bst := submit(t, ts, blocker)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("blocker status = %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st service.JobStatus
		getJSON(t, ts, "/v1/sweeps/"+bst.ID, &st)
		if st.State == service.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("blocker never ran (state %s)", st.State)
		}
		time.Sleep(time.Millisecond)
	}

	accepted, rejected := 0, 0
	for i := 0; i < 4*q; i++ {
		resp, _ := submit(t, ts, smallSweep)
		switch resp.StatusCode {
		case http.StatusAccepted:
			accepted++
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			rejected++
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if accepted != q || rejected != 3*q {
		t.Fatalf("accepted %d rejected %d, want %d and %d", accepted, rejected, q, 3*q)
	}

	// DELETE cancels the blocker; it retires at a round boundary.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/"+bst.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	for {
		var st service.JobStatus
		getJSON(t, ts, "/v1/sweeps/"+bst.ID, &st)
		if st.State.Terminal() {
			if st.State != service.StateCancelled {
				t.Fatalf("blocker state = %s, want cancelled", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never cancelled")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, service.Options{QueueCap: 2, Workers: 1})
	if code := getJSON(t, ts, "/v1/sweeps/sweep-999", nil); code != http.StatusNotFound {
		t.Fatalf("get unknown = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sweeps/sweep-999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delete unknown = %d, want 404", resp.StatusCode)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	svc, ts := newTestServer(t, service.Options{QueueCap: 2, Workers: 1})
	if code := getJSON(t, ts, "/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	var st service.Stats
	if code := getJSON(t, ts, "/readyz", &st); code != http.StatusOK {
		t.Fatalf("readyz = %d", code)
	}
	if st.QueueCap != 2 || st.Workers != 1 || st.Draining {
		t.Fatalf("readyz stats %+v", st)
	}

	svc.Close() // drains: readyz flips to 503, submissions to 429
	if code := getJSON(t, ts, "/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	resp, _ := submit(t, ts, smallSweep)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit while draining = %d, want 429", resp.StatusCode)
	}
}
