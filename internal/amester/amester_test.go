package amester

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"agsim/internal/chip"
	"agsim/internal/firmware"
	"agsim/internal/server"
	"agsim/internal/workload"
)

func startService(t *testing.T, probes ...Probe) (*Service, string) {
	t.Helper()
	svc := NewService(probes...)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(l)
	t.Cleanup(func() { svc.Close() })
	return svc, l.Addr().String()
}

func TestServiceValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for nil reader")
			}
		}()
		NewService(Probe{Name: "x"})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for duplicate")
			}
		}()
		r := func() float64 { return 0 }
		NewService(Probe{Name: "x", Read: r}, Probe{Name: "x", Read: r})
	}()
}

func TestProtocolRoundTrips(t *testing.T) {
	v := 1.0
	svc, addr := startService(t,
		Probe{Name: "power_w", Read: func() float64 { return v }},
		Probe{Name: "freq_mhz", Read: func() float64 { return 4200 }},
	)
	svc.Publish()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	names, err := c.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "freq_mhz" || names[1] != "power_w" {
		t.Errorf("List = %v", names)
	}
	got, err := c.Get("power_w")
	if err != nil || got != 1 {
		t.Errorf("Get = %v, %v", got, err)
	}
	if _, err := c.Get("nope"); err == nil {
		t.Error("expected error for unknown sensor")
	}

	// Snapshot semantics: new probe values appear only after Publish.
	v = 42
	if got, _ := c.Get("power_w"); got != 1 {
		t.Errorf("unpublished value leaked: %v", got)
	}
	seqBefore, _ := c.Seq()
	svc.Publish()
	if got, _ := c.Get("power_w"); got != 42 {
		t.Errorf("published value missing: %v", got)
	}
	seqAfter, _ := c.Seq()
	if seqAfter != seqBefore+1 {
		t.Errorf("seq %d -> %d", seqBefore, seqAfter)
	}

	all, err := c.GetAll()
	if err != nil {
		t.Fatal(err)
	}
	if all["power_w"] != 42 || all["freq_mhz"] != 4200 {
		t.Errorf("GetAll = %v", all)
	}
}

func TestUnknownCommand(t *testing.T) {
	_, addr := startService(t, Probe{Name: "x", Read: func() float64 { return 0 }})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("BOGUS\nGET\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(buf[:n]), "ERR") {
		t.Errorf("response = %q", string(buf[:n]))
	}
}

func TestConcurrentClients(t *testing.T) {
	svc, addr := startService(t, Probe{Name: "x", Read: func() float64 { return 7 }})
	svc.Publish()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for j := 0; j < 50; j++ {
				if v, err := c.Get("x"); err != nil || v != 7 {
					t.Errorf("Get = %v, %v", v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestEndToEndWithSimulatedChip(t *testing.T) {
	// The real workflow: a simulated chip steps while the service
	// publishes on the firmware cadence and a remote client samples power,
	// just as the paper's AMESTER host did.
	c := chip.MustNew(chip.DefaultConfig("P0", 51))
	d := workload.MustGet("raytrace")
	for i := 0; i < 4; i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
	c.SetMode(firmware.Undervolt)

	svc, addr := startService(t, ChipProbes("", c)...)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	var power []float64
	since := 0.0
	for i := 0; i < 3000; i++ {
		c.Step(chip.DefaultStepSec)
		since += chip.DefaultStepSec
		if since >= firmware.TickSeconds {
			since = 0
			svc.Publish()
			v, err := client.Get("power_w")
			if err != nil {
				t.Fatal(err)
			}
			power = append(power, v)
		}
	}
	if len(power) < 80 {
		t.Fatalf("only %d samples", len(power))
	}
	last := power[len(power)-1]
	if last < 40 || last > 160 {
		t.Errorf("sampled power = %v", last)
	}
	// Undervolting must be visible remotely.
	if uv, err := client.Get("undervolt_mv"); err != nil || uv <= 0 {
		t.Errorf("remote undervolt = %v, %v", uv, err)
	}
}

// TestCloseUnblocksIdleClient pins shutdown with a client attached: a
// handler parked reading an idle connection must not hold Close up, and
// the client must see its connection end.
func TestCloseUnblocksIdleClient(t *testing.T) {
	svc := NewService(Probe{Name: "x", Read: func() float64 { return 0 }})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(l)
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.conn.Close()
	// One round trip proves the handler is up and waiting on the client.
	if _, err := c.Seq(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- svc.Close() }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close still blocked on an idle client after 2s")
	}
	if _, err := c.Seq(); err == nil {
		t.Fatal("Seq succeeded after Close")
	}
}

// remoteMeans steps a simulation, publishes once per firmware tick and
// reads every probe back through GETALL, returning each probe's mean over
// the remote reads.
func remoteMeans(t *testing.T, svc *Service, addr string, step func(dtSec float64), steps int) map[string]float64 {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sums := map[string]float64{}
	reads := 0
	perTick := int(firmware.TickSeconds / chip.DefaultStepSec)
	for i := 1; i <= steps; i++ {
		step(chip.DefaultStepSec)
		if i%perTick != 0 {
			continue
		}
		svc.Publish()
		all, err := c.GetAll()
		if err != nil {
			t.Fatal(err)
		}
		for name, v := range all {
			sums[name] += v
		}
		reads++
	}
	for name := range sums {
		sums[name] /= float64(reads)
	}
	return sums
}

func TestChipProbesRecordPlausibleValues(t *testing.T) {
	c := chip.MustNew(chip.DefaultConfig("p0", 3))
	d := workload.MustGet("raytrace")
	for i := 0; i < 4; i++ {
		c.Place(i, workload.NewThread(d, 1e9, nil))
	}
	c.SetMode(firmware.Undervolt)
	svc, addr := startService(t, ChipProbes("", c)...)
	m := remoteMeans(t, svc, addr, c.Step, 3000)
	if len(m) != 9 {
		t.Fatalf("GETALL returned %d probes, want 9: %v", len(m), m)
	}
	if p := m["power_w"]; p < 40 || p > 160 {
		t.Errorf("power = %v", p)
	}
	if v := m["rail_mv"]; v < 1000 || v > 1300 {
		t.Errorf("rail = %v", v)
	}
	if uv := m["undervolt_mv"]; uv <= 0 {
		t.Errorf("undervolt = %v", uv)
	}
}

func TestServerProbes(t *testing.T) {
	srv := server.MustNew(server.DefaultConfig(5))
	srv.MustSubmit("j", workload.MustGet("mcf"), server.BorrowedPlacements(2, 2), 1e9)
	srv.SetMode(firmware.Static)
	svc, addr := startService(t, ServerProbes(srv)...)
	m := remoteMeans(t, svc, addr, srv.Step, 2000)
	if len(m) != 19 {
		t.Fatalf("GETALL returned %d probes, want 19: %v", len(m), m)
	}
	total := m["total_power_w"]
	parts := m["p0_power_w"] + m["p1_power_w"]
	if total < 0.99*parts || total > 1.01*parts {
		t.Errorf("total %v != parts %v", total, parts)
	}
}
