package amester

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/obs"
	"agsim/internal/tsdb"
)

// foldFreeBody is what /timeseries?name=NAME (&res=RES when res >= 0)
// serves, built without the recorder's fold: every registered series'
// windows copied per level and merged with tsdb.MergeWindows in the
// inventory's order, the first series of the name setting the spec and
// the level count.
func foldFreeBody(lg *obs.Log, handle func(obs.SeriesDump) *tsdb.Series, name string, res int) []byte {
	var body seriesBody
	body.Name = name
	for _, d := range lg.Series {
		if d.Name != name {
			continue
		}
		ts := handle(d)
		if body.Levels == nil {
			body.Spec, body.Levels = d.Spec, make([][]tsdb.Window, ts.Levels())
		}
		for li := range body.Levels {
			body.Levels[li] = tsdb.MergeWindows(body.Levels[li], ts.AppendWindows(nil, li))
		}
	}
	if res >= 0 {
		body.Spec = tsdb.Spec{Levels: body.Spec.Levels[res : res+1]}
		body.Levels = body.Levels[res : res+1]
	}
	w := httptest.NewRecorder()
	writeJSON(w, body)
	return w.Body.Bytes()
}

// foldFreeInventory is what /timeseries serves, with each row's spec read
// from its series.
func foldFreeInventory(lg *obs.Log, handle func(obs.SeriesDump) *tsdb.Series) []byte {
	infos := []seriesInfo{}
	for _, d := range lg.Series {
		infos = append(infos, seriesInfo{Name: d.Name, Source: d.Source, Spec: handle(d).Spec()})
	}
	sort.Slice(infos, func(i, j int) bool {
		if infos[i].Name != infos[j].Name {
			return infos[i].Name < infos[j].Name
		}
		return infos[i].Source < infos[j].Source
	})
	w := httptest.NewRecorder()
	writeJSON(w, map[string]any{"series": infos})
	return w.Body.Bytes()
}

// checkFoldFree serves the inventory and every metric's body, all levels
// and &res=1, and requires each to equal its fold-free reference byte for
// byte.
func checkFoldFree(t *testing.T, rec *obs.Recorder, handle func(obs.SeriesDump) *tsdb.Series, names []string) {
	t.Helper()
	h := NewAPI(APIConfig{Recorder: rec, Manifest: obs.NewManifest("t", 7), Mu: &sync.Mutex{}}).Handler()
	lg := rec.Snapshot()
	if got, want := get(t, h, "/timeseries").Body.Bytes(), foldFreeInventory(&lg, handle); !bytes.Equal(got, want) {
		t.Fatalf("/timeseries differs from the fold-free inventory:\n%s\nwant\n%s", got, want)
	}
	for _, name := range names {
		for _, res := range []int{-1, 1} {
			url := "/timeseries?name=" + name
			if res >= 0 {
				url += fmt.Sprintf("&res=%d", res)
			}
			w := get(t, h, url)
			if want := foldFreeBody(&lg, handle, name, res); w.Code != 200 || !bytes.Equal(w.Body.Bytes(), want) {
				t.Fatalf("%s: status %d, body differs from the fold-free merge:\n%.2000s\nwant\n%.2000s", url, w.Code, w.Body.Bytes(), want)
			}
		}
	}
}

// TestTimeseriesMatchesFoldFreeReference holds the served series to the
// merge the recorder no longer keeps per source, on amesterd's own
// scenario and on a sharded recorder whose sources misalign and disagree
// on level count.
func TestTimeseriesMatchesFoldFreeReference(t *testing.T) {
	t.Run("amesterd", func(t *testing.T) {
		srv, rec, err := Scenario{Workload: "raytrace", Threads: 8, Mode: "undervolt", Borrow: true, Seed: 7, Timeseries: true}.Build()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 600; i++ {
			srv.Step(chip.DefaultStepSec)
		}
		handle := func(d obs.SeriesDump) *tsdb.Series { return rec.Series(rec.Source(d.Source), d.Name) }
		checkFoldFree(t, rec, handle, []string{"power_w", "freq_mhz", "rail_mv", "margin_bits"})
	})
	t.Run("sharded", func(t *testing.T) {
		rec := obs.New("fleet", 0)
		rec.EnableTimeSeries(tsdb.CompactSpec())
		handles := map[string]*tsdb.Series{}
		for n, shard := range []string{"node02", "node00", "node01"} {
			sh := rec.Shard(shard)
			if shard == "node01" {
				sh.EnableTimeSeries(tsdb.Spec{Levels: tsdb.CompactSpec().Levels[:2]})
			}
			for c := 0; c < 2; c++ {
				src := fmt.Sprintf("p%d", c)
				for _, name := range []string{"power_w", "rail_mv"} {
					ts := sh.Series(sh.Source(src), name)
					handles[shard+"/"+src+"/"+name] = ts
					// node02 starts 70 ms late, half a step off the grid.
					start := int64(1_000)
					if shard == "node02" {
						start = 70_500
					}
					for tUS := start; tUS <= 1_500_000; tUS += 1_000 {
						ts.Push(tUS, 90+0.37*float64(n+c)+float64(tUS%13_000)/7_000)
					}
				}
			}
		}
		handle := func(d obs.SeriesDump) *tsdb.Series { return handles[d.Source+"/"+d.Name] }
		checkFoldFree(t, rec, handle, []string{"power_w", "rail_mv"})
	})
}
