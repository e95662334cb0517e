// Package amester provides the out-of-band measurement service of the
// reproduction: the paper reads its sensors with IBM AMESTER, a tool that
// talks to the server's service processor over the network and samples
// CPMs, power and voltage at a 32 ms cadence (§4.1).
//
// The Service side publishes snapshots of telemetry probes; the simulation
// loop calls Publish after stepping, and remote clients read the latest
// snapshot over a line-based TCP protocol. Publishing decouples the
// simulator (single-goroutine, deterministic) from concurrent network
// readers — exactly the role the real service processor plays between the
// running machine and the measurement host.
//
// Protocol (one request per line, responses terminated by "END" where
// multi-line):
//
//	PING            -> "OK"
//	LIST            -> one sensor name per line, then "END"
//	GET <name>      -> "<value>" or "ERR unknown sensor"
//	GETALL          -> "<name> <value>" per line, then "END"
//	SEQ             -> "<sequence>" of the current snapshot
//	QUIT            -> "BYE", connection closes
package amester

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Service publishes telemetry snapshots to network clients.
type Service struct {
	probes []Probe

	mu   sync.RWMutex
	vals map[string]float64
	seq  uint64

	listener net.Listener
	wg       sync.WaitGroup
	closed   chan struct{}

	connMu sync.Mutex // guards conns
	conns  map[net.Conn]struct{}
}

// NewService creates a service over the given probes. Probe names must be
// unique.
func NewService(probes ...Probe) *Service {
	seen := map[string]bool{}
	for _, p := range probes {
		if p.Read == nil {
			panic(fmt.Sprintf("amester: probe %q has no reader", p.Name))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("amester: duplicate probe %q", p.Name))
		}
		seen[p.Name] = true
	}
	return &Service{
		probes: probes,
		vals:   map[string]float64{},
		closed: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
	}
}

// Publish snapshots every probe. Call it from the simulation goroutine
// (typically once per firmware tick); clients always see a consistent
// snapshot.
func (s *Service) Publish() {
	fresh := make(map[string]float64, len(s.probes))
	for _, p := range s.probes {
		fresh[p.Name] = p.Read()
	}
	s.mu.Lock()
	s.vals = fresh
	s.seq++
	s.mu.Unlock()
}

// Seq returns the current snapshot sequence number.
func (s *Service) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// Start begins serving on the listener; it returns immediately. Close
// stops the service.
func (s *Service) Start(l net.Listener) {
	s.listener = l
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				select {
				case <-s.closed:
					return
				default:
					// Transient accept error; keep serving.
					continue
				}
			}
			if !s.track(conn) {
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				defer s.untrack(conn)
				s.handle(conn)
			}()
		}
	}()
}

// track registers a live connection so Close can unblock its handler. It
// closes conn and reports false once Close has begun.
func (s *Service) track(conn net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	select {
	case <-s.closed:
		conn.Close()
		return false
	default:
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Service) untrack(conn net.Conn) {
	s.connMu.Lock()
	delete(s.conns, conn)
	s.connMu.Unlock()
}

// Close stops accepting, closes every live connection (a handler blocked
// reading an idle client would otherwise never return) and waits for the
// handlers to finish.
func (s *Service) Close() error {
	close(s.closed)
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	s.connMu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Service) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	w := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch strings.ToUpper(fields[0]) {
		case "PING":
			fmt.Fprintln(w, "OK")
		case "SEQ":
			fmt.Fprintln(w, s.Seq())
		case "LIST":
			s.mu.RLock()
			names := make([]string, 0, len(s.vals))
			for n := range s.vals {
				names = append(names, n)
			}
			s.mu.RUnlock()
			sort.Strings(names)
			for _, n := range names {
				fmt.Fprintln(w, n)
			}
			fmt.Fprintln(w, "END")
		case "GET":
			if len(fields) != 2 {
				fmt.Fprintln(w, "ERR usage: GET <name>")
				break
			}
			s.mu.RLock()
			v, ok := s.vals[fields[1]]
			s.mu.RUnlock()
			if !ok {
				fmt.Fprintln(w, "ERR unknown sensor")
				break
			}
			fmt.Fprintf(w, "%g\n", v)
		case "GETALL":
			s.mu.RLock()
			type kv struct {
				k string
				v float64
			}
			all := make([]kv, 0, len(s.vals))
			for k, v := range s.vals {
				all = append(all, kv{k, v})
			}
			s.mu.RUnlock()
			sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
			for _, e := range all {
				fmt.Fprintf(w, "%s %g\n", e.k, e.v)
			}
			fmt.Fprintln(w, "END")
		case "QUIT":
			fmt.Fprintln(w, "BYE")
			w.Flush()
			return
		default:
			fmt.Fprintln(w, "ERR unknown command")
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Client talks to a Service.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
}

// Dial connects to a service address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests).
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, r: bufio.NewReader(conn)}
}

// Close terminates the session politely.
func (c *Client) Close() error {
	fmt.Fprintln(c.conn, "QUIT")
	return c.conn.Close()
}

func (c *Client) roundTrip(cmd string) (string, error) {
	if _, err := fmt.Fprintln(c.conn, cmd); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

func (c *Client) readToEnd(first string) ([]string, error) {
	var out []string
	line := first
	for {
		if line == "END" {
			return out, nil
		}
		if strings.HasPrefix(line, "ERR") {
			return nil, errors.New(line)
		}
		out = append(out, line)
		next, err := c.r.ReadString('\n')
		if err != nil {
			return nil, err
		}
		line = strings.TrimSpace(next)
	}
}

// Ping checks the service is alive.
func (c *Client) Ping() error {
	resp, err := c.roundTrip("PING")
	if err != nil {
		return err
	}
	if resp != "OK" {
		return fmt.Errorf("amester: unexpected ping response %q", resp)
	}
	return nil
}

// Seq returns the service's snapshot sequence number.
func (c *Client) Seq() (uint64, error) {
	resp, err := c.roundTrip("SEQ")
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(resp, 10, 64)
}

// List returns the sensor names.
func (c *Client) List() ([]string, error) {
	first, err := c.roundTrip("LIST")
	if err != nil {
		return nil, err
	}
	return c.readToEnd(first)
}

// Get reads one sensor.
func (c *Client) Get(name string) (float64, error) {
	resp, err := c.roundTrip("GET " + name)
	if err != nil {
		return 0, err
	}
	if strings.HasPrefix(resp, "ERR") {
		return 0, errors.New(resp)
	}
	return strconv.ParseFloat(resp, 64)
}

// GetAll reads every sensor in one round trip.
func (c *Client) GetAll() (map[string]float64, error) {
	first, err := c.roundTrip("GETALL")
	if err != nil {
		return nil, err
	}
	lines, err := c.readToEnd(first)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(lines))
	for _, line := range lines {
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err != nil {
			return nil, fmt.Errorf("amester: malformed GETALL line %q", line)
		}
		out[name] = v
	}
	return out, nil
}
