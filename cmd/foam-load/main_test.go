package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"foam/internal/ensemble"
)

// TestRunLoad drives the three phases against the real handler: every
// request of a 4-member, 2-advance run must succeed and be counted.
func TestRunLoad(t *testing.T) {
	s := ensemble.New(ensemble.Config{Workers: 2, MaxMembers: 8})
	defer s.Close()
	srv := httptest.NewServer(ensemble.NewHandler(s))
	defer srv.Close()

	rep, err := runLoad(&client{base: srv.URL, http: srv.Client()}, "r5-quick", 4, 2, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.create.count != 4 || rep.advance.count != 8 || rep.diag.count != 4 {
		t.Fatalf("counted %d creates, %d advances, %d diags; want 4, 8, 4",
			rep.create.count, rep.advance.count, rep.diag.count)
	}
	if rep.stepsPerAdvance <= 0 || rep.stepsPerSecond <= 0 || rep.workers != 2 {
		t.Fatalf("report %+v", rep)
	}
	if st := s.Stats(); st.Members != 4 || st.Scenarios["r5-quick"] != 4 {
		t.Fatalf("server holds %+v, want 4 r5-quick members", st)
	}
}

// TestRunLoadFailedRequest: a server that answers 500 must surface as an
// error (main turns it into a non-zero exit), not as a summary.
func TestRunLoadFailedRequest(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer srv.Close()
	if _, err := runLoad(&client{base: srv.URL, http: srv.Client()}, "r5-quick", 4, 2, 0, 3); err == nil {
		t.Fatal("runLoad reported success against a server answering 500")
	}
}

func TestSummarizeMs(t *testing.T) {
	if got := summarizeMs(nil); got != (latency{}) {
		t.Fatalf("empty sample set summarized to %+v", got)
	}
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted
	}
	got := summarizeMs(samples)
	want := latency{count: 100, p50: 50, p90: 90, p99: 99, max: 100}
	if got != want {
		t.Fatalf("summarizeMs = %+v, want %+v", got, want)
	}
}
