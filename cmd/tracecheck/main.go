// Command tracecheck validates a Chrome trace_event JSON file (the JSON
// Object Format) the way Perfetto's loader would: the document must parse,
// carry a traceEvents array, and every record must satisfy the schema —
// a known phase, a name, a non-negative timestamp, positive pid, and a
// non-negative duration on complete ("X") slices. make ci runs it against
// the smoke experiment's trace so a malformed exporter fails the build
// rather than the first person to open the file.
//
// With -attrib the checker additionally validates the telemetry plane's
// round-trip through the exporter: the guardband-attribution stream must
// surface as a "margin (bits)" counter track whose every sample carries a
// numeric "bits" series, and any health-detector firings must surface as
// "health: <detector>" global instants carrying numeric value/threshold
// args with a known detector name.
//
// Usage:
//
//	tracecheck [-attrib] trace.json [more.json ...]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// traceDoc mirrors the trace_event JSON Object Format envelope.
type traceDoc struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

type traceEvent struct {
	Name string          `json:"name"`
	Ph   string          `json:"ph"`
	TS   *float64        `json:"ts"`
	Dur  *float64        `json:"dur"`
	PID  int             `json:"pid"`
	TID  *int            `json:"tid"`
	S    string          `json:"s"`
	Args json.RawMessage `json:"args"`
}

// knownPhases are the trace_event phases the validator accepts — the ones
// the simulator's exporter emits plus the rest of the common set, so the
// checker stays useful if the exporter grows.
var knownPhases = map[string]bool{
	"B": true, "E": true, "X": true, // duration events
	"i": true, "I": true, // instants
	"C": true,                       // counters
	"M": true,                       // metadata
	"b": true, "e": true, "n": true, // async
	"s": true, "t": true, "f": true, // flow
}

func main() {
	attrib := flag.Bool("attrib", false, "require the guardband-attribution counter track and validate health instants")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-attrib] trace.json [more.json ...]")
		os.Exit(2)
	}
	failed := false
	for _, path := range flag.Args() {
		if err := check(path, *attrib); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

// healthDetectors are the detector names internal/obs can pack into a
// KindHealth payload — the only suffixes a well-formed exporter produces.
var healthDetectors = map[string]bool{
	"droop-storm":        true,
	"throttle-residency": true,
	"margin-exhaustion":  true,
	"slo-breach":         true,
}

func check(path string, attrib bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not valid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("no traceEvents")
	}
	var slices, instants, counters int
	var marginSamples, healthInstants int
	for i, ev := range doc.TraceEvents {
		where := func(field, problem string) error {
			return fmt.Errorf("traceEvents[%d] (%q): %s %s", i, ev.Name, field, problem)
		}
		if ev.Name == "margin (bits)" {
			if ev.Ph != "C" {
				return where("ph", "margin track must be a counter event")
			}
			var args struct {
				Bits *float64 `json:"bits"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil || args.Bits == nil {
				return where("args", "margin sample carries no numeric bits series")
			}
			marginSamples++
		}
		if det, ok := strings.CutPrefix(ev.Name, "health: "); ok {
			if ev.Ph != "i" && ev.Ph != "I" {
				return where("ph", "health firing must be an instant event")
			}
			if ev.S != "g" {
				return where("s", "health instant must be global scope")
			}
			if !healthDetectors[det] {
				return where("name", fmt.Sprintf("unknown detector %q", det))
			}
			var args struct {
				Value     *float64 `json:"value"`
				Threshold *float64 `json:"threshold"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil || args.Value == nil || args.Threshold == nil {
				return where("args", "health instant carries no numeric value/threshold")
			}
			healthInstants++
		}
		if !knownPhases[ev.Ph] {
			return where("ph", fmt.Sprintf("unknown phase %q", ev.Ph))
		}
		if ev.Name == "" {
			return where("name", "missing")
		}
		if ev.PID < 1 {
			return where("pid", "must be positive")
		}
		if ev.TS == nil {
			return where("ts", "missing")
		}
		if *ev.TS < 0 {
			return where("ts", "negative")
		}
		switch ev.Ph {
		case "X":
			slices++
			if ev.Dur == nil || *ev.Dur < 0 {
				return where("dur", "missing or negative on complete slice")
			}
		case "i", "I":
			instants++
		case "C":
			counters++
			if len(ev.Args) == 0 {
				return where("args", "counter event carries no series")
			}
		}
	}
	if attrib && marginSamples == 0 {
		return fmt.Errorf("no \"margin (bits)\" counter samples: the guardband-attribution stream did not round-trip")
	}
	fmt.Printf("tracecheck: %s: ok (%d events: %d slices, %d instants, %d counter samples; %d margin samples, %d health firings)\n",
		path, len(doc.TraceEvents), slices, instants, counters, marginSamples, healthInstants)
	return nil
}
