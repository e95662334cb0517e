package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text-exposition exporter (version 0.0.4 format): counters and
// gauges labelled by source, histograms in cumulative-bucket form. All
// metric families carry the agsim_ prefix; cmd/amesterd serves this from
// /metrics and `agsim run -metrics-out` archives it per experiment.

// WriteProm renders the log in Prometheus text exposition format.
func (l *Log) WriteProm(w io.Writer) error {
	for c := 0; c < NumCounters; c++ {
		m := counterMeta[c]
		if err := promHeader(w, "agsim_"+m.name+"_total", m.help, "counter"); err != nil {
			return err
		}
		for i := range l.Sources {
			if _, err := fmt.Fprintf(w, "agsim_%s_total{source=%s} %d\n",
				m.name, promLabel(l.Sources[i].Name), l.Sources[i].Counters[c]); err != nil {
				return err
			}
		}
	}
	for g := 0; g < NumGauges; g++ {
		m := gaugeMeta[g]
		if err := promHeader(w, "agsim_"+m.name, m.help, "gauge"); err != nil {
			return err
		}
		for i := range l.Sources {
			if _, err := fmt.Fprintf(w, "agsim_%s{source=%s} %s\n",
				m.name, promLabel(l.Sources[i].Name), promFloat(l.Sources[i].Gauges[g])); err != nil {
				return err
			}
		}
	}
	for h := 0; h < NumHists; h++ {
		m := histMeta[h]
		name := "agsim_" + m.name
		if err := promHeader(w, name, m.help, "histogram"); err != nil {
			return err
		}
		cum := uint64(0)
		for b, upper := range l.Hists[h].Buckets {
			cum += l.Hists[h].Counts[b]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%s} %d\n",
				name, promLabel(promFloat(upper)), cum); err != nil {
				return err
			}
		}
		cum += l.Hists[h].Counts[len(l.Hists[h].Buckets)]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n",
			name, promFloat(l.Hists[h].Sum), name, l.Hists[h].Count); err != nil {
			return err
		}
	}
	if err := promHeader(w, "agsim_events_recorded", "structured events in the flight recorder ring", "gauge"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "agsim_events_recorded %d\n", l.EventsKept); err != nil {
		return err
	}
	if err := promHeader(w, "agsim_events_lost", "structured events overwritten by ring wrap", "gauge"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "agsim_events_lost %d\n", l.EventsLost); err != nil {
		return err
	}
	// Per-shard bookkeeping: a single wrapped ring under-reports silently
	// inside the merged total, so expose where the loss happened and how
	// many time-series each shard carries.
	if err := promHeader(w, "agsim_shard_events_lost", "events overwritten by ring wrap, per recorder shard", "gauge"); err != nil {
		return err
	}
	for i := range l.Shards {
		if _, err := fmt.Fprintf(w, "agsim_shard_events_lost{shard=%s} %d\n",
			promLabel(l.Shards[i].Name), l.Shards[i].EventsLost); err != nil {
			return err
		}
	}
	if err := promHeader(w, "agsim_shard_series", "registered time-series, per recorder shard", "gauge"); err != nil {
		return err
	}
	for i := range l.Shards {
		if _, err := fmt.Fprintf(w, "agsim_shard_series{shard=%s} %d\n",
			promLabel(l.Shards[i].Name), l.Shards[i].Series); err != nil {
			return err
		}
	}
	if err := promHeader(w, "agsim_series_registered", "registered time-series across the recorder tree", "gauge"); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "agsim_series_registered %d\n", len(l.Series))
	return err
}

func promHeader(w io.Writer, name, help, kind string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
	return err
}

// promLabel quotes and escapes a label value.
func promLabel(v string) string {
	v = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(v)
	return `"` + v + `"`
}

// promFloat renders a float the way Prometheus parsers expect.
func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
