package amester

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"

	"agsim/internal/obs"
	"agsim/internal/tsdb"
)

// testAPI builds an API over a hand-populated recorder: two sources, a
// power series on each, a droop storm on chip0, and a manifest.
func testAPI(t testing.TB) (*API, *obs.Recorder) {
	t.Helper()
	rec := obs.New("t", 256)
	rec.EnableTimeSeries(tsdb.DefaultSpec())
	a := rec.Source("chip0")
	b := rec.Source("chip1")
	for i := int64(0); i < 40; i++ {
		rec.Series(a, "power_w").Push(i*1000, 100+float64(i))
		rec.Series(b, "power_w").Push(i*1000, 50)
	}
	rec.SetGauge(a, obs.GTimeSec, 1)
	rec.Add(a, obs.CDidtEvents, 200) // 200/s: a critical droop storm
	manifest := obs.NewManifest("t", 7)
	api := NewAPI(APIConfig{
		Recorder: rec,
		Manifest: manifest,
		Mu:       &sync.Mutex{},
		SimTime:  func() float64 { return 1.5 },
	})
	return api, rec
}

func get(t *testing.T, h http.Handler, url string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
	return w
}

func decode(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, w.Body.String())
	}
}

func TestAPIMetricsAndManifest(t *testing.T) {
	api, _ := testAPI(t)
	h := api.Handler()

	w := get(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{"agsim_didt_events_total", "agsim_series_registered", "agsim_shard_events_lost"} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}

	var m struct {
		Name       string  `json:"name"`
		SimSeconds float64 `json:"sim_seconds"`
	}
	decode(t, get(t, h, "/manifest"), &m)
	if m.Name != "t" || m.SimSeconds != 1.5 {
		t.Fatalf("manifest %+v", m)
	}
}

func TestAPITimeseries(t *testing.T) {
	api, _ := testAPI(t)
	h := api.Handler()

	// Inventory: one merged name per (source, series) registration.
	var inv struct {
		Series []seriesInfo `json:"series"`
	}
	decode(t, get(t, h, "/timeseries"), &inv)
	if len(inv.Series) != 2 {
		t.Fatalf("inventory %+v, want two power_w rows", inv.Series)
	}
	for _, s := range inv.Series {
		if s.Name != "power_w" || len(s.Spec.Levels) != 3 {
			t.Fatalf("inventory row %+v", s)
		}
	}

	// A named fetch merges both sources: 40 pushes each, same stamps.
	var body seriesBody
	decode(t, get(t, h, "/timeseries?name=power_w"), &body)
	if len(body.Levels) != 3 {
		t.Fatalf("want 3 levels, got %d", len(body.Levels))
	}
	var n int64
	for _, w := range body.Levels[0] {
		n += w.Cnt
	}
	if n != 80 {
		t.Fatalf("finest level holds %d samples, want 80", n)
	}

	// res= narrows to one level.
	decode(t, get(t, h, "/timeseries?name=power_w&res=2"), &body)
	if len(body.Levels) != 1 || body.Spec.Levels[0].WidthUS != 1_024_000 {
		t.Fatalf("res=2 body %+v", body.Spec)
	}

	if w := get(t, h, "/timeseries?name=nope"); w.Code != http.StatusNotFound {
		t.Fatalf("unknown series status %d", w.Code)
	}
	if w := get(t, h, "/timeseries?name=power_w&res=9"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad res status %d", w.Code)
	}
}

func TestAPIHealth(t *testing.T) {
	api, _ := testAPI(t)
	var body struct {
		Status   string          `json:"status"`
		Findings []healthFinding `json:"findings"`
	}
	decode(t, get(t, api.Handler(), "/health"), &body)
	if body.Status != "critical" || len(body.Findings) != 1 {
		t.Fatalf("health %+v", body)
	}
	f := body.Findings[0]
	if f.Detector != "droop-storm" || f.Source != "chip0" || f.Value != 200 {
		t.Fatalf("finding %+v", f)
	}
}

func TestAPIStream(t *testing.T) {
	api, _ := testAPI(t)
	srv := httptest.NewServer(api.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	readFrame := func(r *bufio.Reader) streamFrame {
		t.Helper()
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var f streamFrame
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &f); err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	br := bufio.NewReader(resp.Body)

	// The first frame arrives without any Publish.
	f0 := readFrame(br)
	if f0.Seq != 0 || f0.Series != 2 || f0.SimSeconds != 1.5 || f0.Status != "critical" {
		t.Fatalf("first frame %+v", f0)
	}

	api.Publish()
	if f1 := readFrame(br); f1.Seq != 1 {
		t.Fatalf("second frame %+v", f1)
	}
}

// TestAPIPprof smoke-checks the profiler mount.
func TestAPIPprof(t *testing.T) {
	api, _ := testAPI(t)
	w := get(t, api.Handler(), "/debug/pprof/cmdline")
	if w.Code != http.StatusOK {
		t.Fatalf("pprof status %d", w.Code)
	}
	if _, err := io.ReadAll(w.Result().Body); err != nil {
		t.Fatal(err)
	}
}

// FuzzTimeseriesQuery feeds arbitrary name/res pairs to /timeseries: a
// query string must only ever yield the inventory or a series (200, with a
// JSON body), an out-of-range or malformed res (400) or an unknown name
// (404).
func FuzzTimeseriesQuery(f *testing.F) {
	for _, seed := range [][2]string{
		{"", ""},
		{"power_w", "1"},
		{"power_w", "-1"},
		{"power_w", "99999999999999999999"},
		{"nope", "0"},
	} {
		f.Add(seed[0], seed[1])
	}
	api, _ := testAPI(f)
	h := api.Handler()
	f.Fuzz(func(t *testing.T, name, res string) {
		q := url.Values{"name": {name}, "res": {res}}.Encode()
		w := get(t, h, "/timeseries?"+q)
		switch w.Code {
		case http.StatusOK:
			var v any
			if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
				t.Fatalf("%s: 200 body is not JSON: %v", q, err)
			}
		case http.StatusBadRequest, http.StatusNotFound:
		default:
			t.Fatalf("%s: status %d", q, w.Code)
		}
	})
}
