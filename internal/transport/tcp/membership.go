package tcp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"sherman/internal/transport"
)

// Membership defaults: pings every defaultHeartbeatInterval, and a server
// that fails to answer one within defaultHeartbeatTimeout is declared dead.
// The timeout matches the remote lock manager's lease (200ms): by the time
// a stalled server's locks become reclaimable, the membership service has
// also excised it, so lease reclamation and failover promotion observe the
// same death.
const (
	defaultHeartbeatInterval = 50 * time.Millisecond
	defaultHeartbeatTimeout  = 200 * time.Millisecond
)

// membership is the cluster's liveness service: one goroutine per memory
// server pings it on a real-time interval over a dedicated connection with
// hard read/write deadlines. A missed deadline — connection refused, reset,
// or a process that holds its sockets open but stops answering (SIGSTOP) —
// declares the death through the same injector path an I/O error on a
// client verb does, so deaths are detected even when no client verb
// happens to touch the dead server.
type membership struct {
	c        *Cluster
	interval time.Duration
	timeout  time.Duration

	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

func startMembership(c *Cluster, interval, timeout time.Duration) *membership {
	if interval <= 0 {
		interval = defaultHeartbeatInterval
	}
	if timeout <= 0 {
		timeout = defaultHeartbeatTimeout
	}
	m := &membership{c: c, interval: interval, timeout: timeout, done: make(chan struct{})}
	for ms := range c.endpoints {
		m.wg.Add(1)
		go m.watch(ms)
	}
	return m
}

func (m *membership) stop() {
	m.once.Do(func() { close(m.done) })
	m.wg.Wait()
}

// watch heartbeats one memory server until it dies or the service stops.
func (m *membership) watch(ms int) {
	defer m.wg.Done()
	var conn net.Conn
	var r *bufio.Reader
	defer func() {
		if conn != nil {
			conn.Close()
		}
	}()
	tick := time.NewTicker(m.interval)
	defer tick.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-tick.C:
		}
		if !m.c.MSAlive(ms) {
			return
		}
		if conn == nil {
			c, err := net.DialTimeout("tcp", m.c.endpoints[ms], m.timeout)
			if err != nil {
				m.c.Faults().KillMS(ms)
				return
			}
			conn, r = c, bufio.NewReader(c)
		}
		if !m.ping(conn, r) {
			m.c.Faults().KillMS(ms)
			return
		}
	}
}

// ping sends one Ping frame under a hard deadline covering both directions.
func (m *membership) ping(conn net.Conn, r *bufio.Reader) bool {
	if err := conn.SetDeadline(time.Now().Add(m.timeout)); err != nil {
		return false
	}
	if err := writeFrame(conn, 0, opPing, nil); err != nil {
		return false
	}
	_, status, _, err := readFrame(r)
	return err == nil && status == statusOK
}

// LockstepRead times n round trips of one size-byte READ at a on the memory
// server at endpoint, the way the heartbeat pings: on a connection of its
// own, one writeFrame then one readFrame, so no mux, window, parking or
// wake-up sits between the request and its answer. It returns each round
// trip's duration; set next to a depth-1 verb through the mux, the gap is
// the mux's own share of that verb.
func LockstepRead(endpoint string, a transport.Addr, size, n int) ([]time.Duration, error) {
	conn, err := net.DialTimeout("tcp", endpoint, dialTimeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	req := appendU32(appendU64(nil, uint64(a)), uint32(size))
	rtts := make([]time.Duration, n)
	for i := range rtts {
		start := time.Now()
		if err := writeFrame(conn, 0, opRead, req); err != nil {
			return nil, err
		}
		_, status, payload, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if status != statusOK || len(payload) != size {
			return nil, fmt.Errorf("tcp: lockstep read at %v: status %d, %d of %d bytes", a, status, len(payload), size)
		}
		rtts[i] = time.Since(start)
	}
	return rtts, nil
}
