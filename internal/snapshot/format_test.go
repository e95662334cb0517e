package snapshot_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/fleet"
	"agsim/internal/obs"
	"agsim/internal/server"
	"agsim/internal/snapshot"
	"agsim/internal/traffic"
	"agsim/internal/tsdb"
	"agsim/internal/workload"
)

// recordedChip builds a chip with a recorder shard carrying events,
// counters and CompactSpec series, so its image holds every kind of
// recorder state next to the chip's own.
func recordedChip(seed uint64) *chip.Chip {
	rec := obs.New("pin", 64)
	rec.EnableTimeSeries(tsdb.CompactSpec())
	return testChip(seed, rec.Shard("chip"))
}

// servePair is a serving fleet and its request generator, imaged together
// because they share one recorder tree.
type servePair struct {
	F *fleet.Fleet
	G *traffic.Generator
}

// newServePair builds an undervolted websearch fleet of the given size with
// a traffic generator, both recording into one tree with 256-event rings
// and CompactSpec series.
func newServePair(nodes int, seed uint64) *servePair {
	rec := obs.New("serve", 256)
	rec.EnableTimeSeries(tsdb.CompactSpec())
	return servePairOn(rec, nodes, seed)
}

// servePairOn builds the pair recording into rec.
func servePairOn(rec *obs.Recorder, nodes int, seed uint64) *servePair {
	f := fleet.MustNew(fleet.Config{
		Nodes:    nodes,
		Template: server.DefaultConfig(seed),
		Workers:  1,
		Recorder: rec.Shard("fleet"),
	})
	d := workload.MustGet("websearch")
	f.ForEachNode(func(i int, s *server.Server) {
		s.MustSubmit("serve", d, server.ConsolidatedPlacements(8), 1e9)
		s.SetMode(firmware.Undervolt)
	})
	cfg := traffic.DefaultConfig(nodes, seed)
	cfg.Recorder = rec.Shard("traffic")
	return &servePair{F: f, G: traffic.New(cfg)}
}

// serve runs epochs of traffic, each admitted at the nodes' current
// capacity and followed by a fleet advance to the epoch boundary.
func (p *servePair) serve(epochs int, epochSec float64) {
	caps := make([]float64, p.F.Nodes())
	for ep := 0; ep < epochs; ep++ {
		for i := range caps {
			caps[i] = math.Max(1, math.Round(p.F.NodeMIPS(i)/1000))
		}
		p.G.Epoch(p.F.Pool(), epochSec, caps)
		p.F.Advance(epochSec)
	}
}

// settledServePair is an 8-node pair settled 1 s and served 2 s.
func settledServePair(seed uint64) *servePair {
	p := newServePair(8, seed)
	p.F.Advance(1)
	p.serve(8, 0.25)
	return p
}

func sha(img []byte) string {
	sum := sha256.Sum256(img)
	return hex.EncodeToString(sum[:])
}

// TestWireFormatPinned holds deterministic images to SHA-256 hashes
// recorded from the field-by-field reflective walk: the walker's fast
// paths may make encoding faster but must not change a byte. A deliberate
// format change bumps codecVersion (or layoutVersion) and re-records
// these hashes in the same commit.
func TestWireFormatPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hashes recorded on amd64; other architectures may fuse multiply-adds and simulate different bits")
	}
	c := recordedChip(5)
	c.Settle(0.5)
	chipImg, err := snapshot.Save(c, snapshot.Meta{Seed: 5, Revision: "pin"})
	if err != nil {
		t.Fatal(err)
	}
	p := settledServePair(9)
	defer p.F.Close()
	pairImg, err := snapshot.Save(p, snapshot.Meta{Seed: 9, Revision: "pin", TimeSec: p.F.Time()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"chip+recorder", chipImg, pinChipSHA},
		{"8-node fleet+generator", pairImg, pinFleetSHA},
	} {
		if got := sha(tc.img); got != tc.want {
			t.Errorf("%s image (%d bytes) hashes %s, want %s", tc.name, len(tc.img), got, tc.want)
		}
	}
}

const (
	pinChipSHA  = "eb149182d4abffe11f3a473399000529e0e0593ded224d72fcbc950404d8948a"
	pinFleetSHA = "db3729a364559a0418822bfaf954c7d53c22f85ff55caf57d814c82184471228"
)
