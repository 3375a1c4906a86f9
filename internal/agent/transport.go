// TCP transport: the Broccoli analogue (§6) carrying parsed events and
// periodic distributed-state updates (collectd snapshots + watcher
// status) from node agents to the analyzer service as kind-tagged,
// length-prefixed frames (frame.go). TCP preserves per-agent ordering,
// which the event receiver relies on (§5.2).
//
// The plane is self-healing: the sender spools frames into a bounded
// in-memory ring and a background loop redials with exponential backoff,
// replaying the ring on reconnect so a broker/analyzer blip loses
// nothing up to the ring bound (overflow is shed oldest-first and
// counted). The receiver deduplicates replayed frames by per-agent
// sequence number, records explicit gap records for frames that never
// arrived, skips corrupt frames via CRC + magic resync instead of
// dropping the connection, and declares agents down when heartbeats
// stop — all surfaced on the Health channel so the analyzer can degrade
// gracefully (core.Analyzer.NodeGap).

package agent

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gretel/internal/seglog"
	"gretel/internal/telemetry"
	"gretel/internal/trace"
)

// Transport telemetry. frames_shed counts spool-ring overflow on a
// disconnected sender (the only sender-side loss); frames_missed is the
// receiver-side count of sequence numbers that never arrived (the
// ground truth for "zero silent loss": delivered + missed = assigned).
var (
	mFramesSent     = telemetry.GetCounter("transport.frames_sent")
	mFramesReplayed = telemetry.GetCounter("transport.frames_replayed")
	mFramesRecv     = telemetry.GetCounter("transport.frames_received")
	mBatches        = telemetry.GetCounter("transport.batches")
	mFramesDropped  = telemetry.GetCounter("transport.frames_dropped")
	mFramesShed     = telemetry.GetCounter("transport.frames_shed")
	mFramesDup      = telemetry.GetCounter("transport.frames_dup")
	mFramesMissed   = telemetry.GetCounter("transport.frames_missed")
	mGaps           = telemetry.GetCounter("transport.gaps")
	mReconnects     = telemetry.GetCounter("transport.reconnects")
	mConnsDropped   = telemetry.GetCounter("transport.connections_dropped")
	mDecodeErrors   = telemetry.GetCounter("transport.decode_errors")
	mCRCErrors      = telemetry.GetCounter("transport.crc_errors")
	mResyncs        = telemetry.GetCounter("transport.resyncs")
	mBytesSkipped   = telemetry.GetCounter("transport.bytes_skipped")
	mHeartbeats     = telemetry.GetCounter("transport.heartbeats")
	mAgentDown      = telemetry.GetCounter("transport.agent_down")
	mAgentUp        = telemetry.GetCounter("transport.agent_up")
	mHealthDropped  = telemetry.GetCounter("transport.health_dropped")
	mActiveConns    = telemetry.GetGauge("transport.active_connections")
)

// SenderConfig tunes the resilient sender. The zero value (plus Addr)
// is production-ready; tests tighten the timers.
type SenderConfig struct {
	// Addr is the analyzer's event listener address.
	Addr string
	// Resolve, when set, is consulted before every dial attempt and
	// overrides Addr — the federation hook: a coordinator can move the
	// agent to a replacement analyzer and the next redial lands there,
	// with the spill ring replaying everything retained. Errors and
	// empty results fall back to Addr (or count as a failed attempt when
	// Addr is empty) and go through the normal backoff.
	Resolve func() (string, error)
	// Session names this sender incarnation in hello frames (default:
	// wall-clock nanoseconds at DialConfig). A receiver that has never seen
	// the session — a fresh replacement analyzer, or the same analyzer
	// after an agent restart — adopts the hello's base sequence instead
	// of misreading the unseen history as a gap.
	Session uint64
	// Agent names this agent in hello/heartbeat frames; the receiver
	// keys sequence tracking and liveness by it. Default "agent".
	Agent string
	// Ring bounds the in-memory spill ring in frames (default 4096).
	// The ring retains recent frames even after they are written, so a
	// reconnect can replay everything a dying connection may have lost.
	Ring int
	// WriteTimeout is the deadline of each socket write (default 10s),
	// armed when buffered frames actually go to the socket; a stalled
	// analyzer surfaces as a write error and triggers a redial.
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the exponential redial backoff
	// (defaults 50ms and 3s); each delay adds seeded jitter.
	BackoffMin, BackoffMax time.Duration
	// Heartbeat is the liveness frame period (default 1s, negative
	// disables). Heartbeats carry the sender's sequence high-water mark
	// so the receiver can detect shed frames even on an idle stream.
	Heartbeat time.Duration
	// DrainTimeout bounds Close's final flush (default 2s).
	DrainTimeout time.Duration
	// Seed drives backoff jitter (default 1).
	Seed int64
	// Dialer overrides the TCP dial (tests, chaos injection).
	Dialer func(addr string, timeout time.Duration) (net.Conn, error)
}

func (c *SenderConfig) defaults() {
	if c.Agent == "" {
		c.Agent = "agent"
	}
	if c.Ring <= 0 {
		c.Ring = 4096
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 3 * time.Second
	}
	if c.Heartbeat == 0 {
		c.Heartbeat = time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Session == 0 {
		c.Session = uint64(time.Now().UnixNano())
	}
	if c.Dialer == nil {
		c.Dialer = func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if tc, ok := conn.(*net.TCPConn); ok {
				_ = tc.SetWriteBuffer(sockBufBytes) // advisory: a refusal leaves the kernel default
			}
			return conn, err
		}
	}
}

// dialTimeout bounds one dial attempt.
const dialTimeout = 3 * time.Second

// sockBufBytes bounds each byte-counted buffer of a transport connection:
// the sender's stage, its kernel write buffer (set by the default
// Dialer), the kernel read buffer (set on accept) and the receiver's
// reader. The plane bounds what is in flight in frames — the spill ring,
// the receiver's batch queue — but these bound it in bytes, and every
// compact frame queued there is report lag. The faster the producer, the
// smaller the bound has to be: an agent that outruns the analyzer keeps
// every queue between them full, and by Little's law that standing
// backlog is the lag. And the smaller the frame, the smaller the bound:
// 56 KiB of 116-byte frames is the some four hundred events per buffer
// that 64 KiB of 132-byte ones was, so a fast consumer never starves
// (DESIGN.md "Kernel buffers are part of the backlog" has the sweeps).
const sockBufBytes = 56 << 10

// recvEventBuffer bounds, in events, the other standing queue ahead of
// the analyzer — decoded, not yet ingested — by the same argument: enough
// to ride out a consumer stall of a millisecond or two, and no more. It
// is recvBatchQueue queued batches plus the one a connection is filling.
//
// recordHint sizes a hand-off's record once, when it is first kept: a
// full batch of bodies under 128 bytes, the common event's, so a fresh
// receiver does not grow each record in steps.
const (
	recvEventBuffer = 512
	recvBatchMax    = 128
	recvBatchQueue  = recvEventBuffer/recvBatchMax - 1
	recordHint      = recvBatchMax * 128
)

// slot is one entry of the spill ring: a sealed frame in a buffer the
// ring owns and reuses. spool encodes into it and takeFrames copies out
// of it, both under s.mu, so its bytes are never read while rewritten.
type slot struct {
	seq  uint64
	data []byte
}

const (
	// A slot's buffer starts at slotMin bytes — room for an ordinary event
	// frame, so it is allocated once — and one over slotKeep (a state
	// update's) is let go at the slot's next event, not pinned Ring times.
	slotMin, slotKeep = 192, 512
	// takeBytes is what the writer copies out of the ring per lock
	// acquisition. Send waits a take out, so it is kept short.
	takeBytes = 8 << 10
	// yieldFrames paces a producer that outruns the writer. A kick
	// readies the writer on the producer's own processor, where it waits
	// until the producer blocks, and a tap never does: so every
	// yieldFrames frames spooled and not yet taken, spool yields the
	// processor once. On two cores that let wire-steady's frames flow as
	// they are made rather than stand in the ring (DESIGN.md "A faster
	// tap lengthens the closed loop's standing queue").
	yieldFrames = 64
)

// SenderStats is a point-in-time view of the sender's sequence space.
type SenderStats struct {
	// Assigned is the highest sequence number handed out.
	Assigned uint64
	// Flushed is the highest sequence number written and flushed to a
	// socket at least once (delivery is confirmed only by the receiver).
	Flushed uint64
	// Shed counts frames evicted from the ring before they were ever
	// written — the sender's only deliberate loss, taken oldest-first
	// when a disconnection outlasts the ring.
	Shed uint64
}

// Sender streams events to the analyzer, surviving analyzer restarts
// and network faults. Send and SendState never block and never fail:
// frames enter a bounded ring drained by a background writer that
// redials with backoff and replays the ring after every reconnect.
// Safe for concurrent use.
type Sender struct {
	cfg SenderConfig

	mu      sync.Mutex
	ring    []slot
	head, n int    // circular: ring[head..head+n) holds contiguous seqs
	nextSeq uint64 // last assigned sequence number
	cursor  uint64 // next seq to write on the current connection
	flushed uint64 // highest seq flushed to a socket
	maxSent uint64 // highest seq ever taken for writing (replay detection)
	shed    uint64
	lastErr error
	closed  bool

	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	firstConn chan struct{}
	connOnce  sync.Once
	lastAddr  atomic.Value // string: most recently resolved target
}

// target is the address the sender is currently aimed at — the last
// Resolve result, falling back to the static Addr. For messages.
func (s *Sender) target() string {
	if a, ok := s.lastAddr.Load().(string); ok && a != "" {
		return a
	}
	return s.cfg.Addr
}

// DialConfig starts a sender for the analyzer's event listener. Dialing
// is lazy: the sender is usable immediately and connects (and keeps
// reconnecting) in the background — use WaitConnected to bound startup
// ordering.
func DialConfig(cfg SenderConfig) (*Sender, error) {
	cfg.defaults()
	if cfg.Addr == "" && cfg.Resolve == nil {
		return nil, fmt.Errorf("agent: sender needs an address or a resolver")
	}
	s := &Sender{
		cfg:       cfg,
		ring:      make([]slot, cfg.Ring),
		cursor:    1,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		firstConn: make(chan struct{}),
	}
	go s.run()
	return s, nil
}

// WaitConnected blocks until the sender establishes its first
// connection, or the timeout passes.
func (s *Sender) WaitConnected(timeout time.Duration) error {
	select {
	case <-s.firstConn:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("agent: no connection to %s within %v: %v", s.target(), timeout, s.err())
	}
}

// Stats returns a snapshot of the sequence space.
func (s *Sender) Stats() SenderStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SenderStats{Assigned: s.nextSeq, Flushed: s.flushed, Shed: s.shed}
}

func (s *Sender) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

func (s *Sender) setErr(err error) {
	s.mu.Lock()
	s.lastErr = err
	s.mu.Unlock()
}

// Send spools one event. It never blocks and never fails; if the ring
// is full the oldest unsent frame is shed and counted. It may yield the
// processor to the writer (yieldFrames).
func (s *Sender) Send(ev trace.Event) { s.spool(&ev, nil) }

// SendState spools one state update.
func (s *Sender) SendState(u StateUpdate) {
	body, err := json.Marshal(&u)
	if err != nil {
		mFramesDropped.Inc()
		telemetry.LogFirst("transport.encode", "agent: encoding frame: %v; dropping", err)
		return
	}
	s.spool(nil, append(make([]byte, frameHdrLen, frameHdrLen+len(body)), body...))
}

// spool assigns the next sequence number and puts one frame in the ring:
// ev, encoded straight into the slot's own buffer, or else state, a state
// frame already built but for its header. A state frame is per-period and
// large, so it brings its buffer; the slot drops it at its next event.
func (s *Sender) spool(ev *trace.Event, state []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		mFramesDropped.Inc()
		return
	}
	s.nextSeq++
	if s.n == len(s.ring) {
		old := s.ring[s.head].seq
		s.head = (s.head + 1) % len(s.ring)
		s.n--
		if old >= s.cursor {
			// Evicted before it was ever written: deliberate, counted
			// loss. The receiver will see the sequence gap too.
			s.cursor = old + 1
			mFramesShed.Inc()
			if s.shed++; s.shed == 1 { // not per frame: the arguments alone allocate
				telemetry.LogFirst("transport.shed",
					"agent: spill ring full (%d frames) while disconnected from %s; shedding oldest", len(s.ring), s.target())
			}
		}
	}
	sl := &s.ring[(s.head+s.n)%len(s.ring)]
	s.n++
	sl.seq = s.nextSeq
	if ev == nil {
		seglog.Seal(state, frameState, sl.seq)
		sl.data = state
	} else {
		if need := frameHdrLen + trace.EventSizeHint(ev); cap(sl.data) < need || cap(sl.data) > slotKeep {
			sl.data = make([]byte, 0, max(need, slotMin))
		}
		sl.data = appendEventFrame(sl.data[:0], ev, sl.seq)
	}
	untaken := s.nextSeq - s.cursor + 1
	s.mu.Unlock()
	select {
	case s.kick <- struct{}{}:
	default:
	}
	if untaken%yieldFrames == 0 {
		runtime.Gosched()
	}
}

// takeFrames appends the next run of contiguous unwritten frames to stage
// — takeBytes of them, or until it holds sockBufBytes — and moves the
// cursor past them, under one lock acquisition. The writer sends its own
// copy: the ring is free to overwrite a slot the moment the lock drops.
func (s *Sender) takeFrames(stage []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return stage
	}
	oldest := s.ring[s.head].seq
	first := max(s.cursor, oldest)
	limit := min(len(stage)+takeBytes, sockBufBytes)
	for s.cursor = first; s.cursor <= s.nextSeq && len(stage) < limit; s.cursor++ {
		stage = append(stage, s.ring[(s.head+int(s.cursor-oldest))%len(s.ring)].data...)
	}
	replayed := min(s.cursor, max(s.maxSent+1, first)) - first
	mFramesReplayed.Add(replayed)
	mFramesSent.Add(s.cursor - first - replayed)
	s.maxSent = max(s.maxSent, s.cursor-1)
	return stage
}

// rewind points the write cursor at the oldest retained frame — called
// on every reconnect so frames a dying connection may have swallowed
// are replayed (the receiver deduplicates by sequence number) — and
// returns the hello's base: the sequence number immediately before it,
// or the full assigned space when the ring is empty. Frames at or below
// the base are gone from this sender for good (shed, or consumed by a
// previous session) — a receiver meeting this session for the first time
// starts counting after it instead of calling the unseen prefix a gap.
func (s *Sender) rewind() (base uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cursor = s.nextSeq + 1
	if s.n > 0 {
		s.cursor = s.ring[s.head].seq
	}
	return s.cursor - 1
}

// errSenderStopped signals an orderly stop through the writer loop.
var errSenderStopped = fmt.Errorf("agent: sender stopped")

// errNoSession refuses a hello that names no sender incarnation: the
// receiver could not tell a reconnect from a restart.
var errNoSession = fmt.Errorf("hello carries no session")

// run is the background writer: dial with backoff, stream the ring,
// redial on error. One goroutine per sender.
func (s *Sender) run() {
	defer close(s.done)
	rng := rand.New(rand.NewSource(s.cfg.Seed))
	first := true
	for {
		conn := s.dialLoop(rng)
		if conn == nil {
			return
		}
		if !first {
			mReconnects.Inc()
		}
		first = false
		s.connOnce.Do(func() { close(s.firstConn) })
		err := s.stream(conn)
		conn.Close()
		if err == errSenderStopped {
			return
		}
		s.setErr(err)
		telemetry.LogFirst("transport.send",
			"agent: connection to %s failed: %v; spooling and redialing", s.target(), err)
	}
}

// dialLoop dials until it succeeds or the sender stops, backing off
// exponentially with jitter between attempts. The target address is
// re-resolved before every attempt, so a reassignment takes effect on
// the very next redial.
func (s *Sender) dialLoop(rng *rand.Rand) net.Conn {
	backoff := s.cfg.BackoffMin
	for {
		select {
		case <-s.stop:
			return nil
		default:
		}
		addr := s.cfg.Addr
		var err error
		if s.cfg.Resolve != nil {
			if a, rerr := s.cfg.Resolve(); rerr == nil && a != "" {
				addr = a
			} else if addr == "" {
				if rerr == nil {
					rerr = fmt.Errorf("agent: resolver returned no address")
				}
				err = rerr
			}
		}
		if err == nil {
			s.lastAddr.Store(addr)
			var conn net.Conn
			conn, err = s.cfg.Dialer(addr, dialTimeout)
			if err == nil {
				return conn
			}
		}
		s.setErr(err)
		telemetry.LogFirst("transport.dial",
			"agent: dialing %s: %v; retrying with backoff", s.target(), err)
		delay := backoff + time.Duration(rng.Int63n(int64(backoff)+1))
		select {
		case <-s.stop:
			return nil
		case <-time.After(delay):
		}
		if backoff *= 2; backoff > s.cfg.BackoffMax {
			backoff = s.cfg.BackoffMax
		}
	}
}

// stream drives one connection: hello, ring replay, live frames, and
// idle heartbeats, until a write fails or the sender stops. Frames reach
// the socket from stage, the writer's own buffer, a write at a time: when
// it is full, and whenever the ring has been drained.
func (s *Sender) stream(conn net.Conn) error {
	w := &deadlineConn{Conn: conn, write: s.cfg.WriteTimeout}
	hello, _ := json.Marshal(helloBody{Agent: s.cfg.Agent, Session: s.cfg.Session, Base: s.rewind()})
	// A take stops at the first frame that reaches the bound: room for it.
	stage := seglog.AppendRecord(make([]byte, 0, sockBufBytes+4096), frameHello, 0, hello)

	var hbC <-chan time.Time
	if s.cfg.Heartbeat > 0 {
		t := time.NewTicker(s.cfg.Heartbeat)
		defer t.Stop()
		hbC = t.C
	}
	for {
		had := len(stage)
		stage = s.takeFrames(stage)
		took := len(stage) > had
		if took && len(stage) < sockBufBytes {
			continue // frames are flowing: keep filling
		}
		if len(stage) > 0 {
			if _, err := w.Write(stage); err != nil {
				return err
			}
			stage = stage[:0]
		}
		if took {
			continue
		}
		// Drained, and everything taken has reached the socket: say so
		// (Drain and the callers' in-flight accounting read it), then wait.
		s.mu.Lock()
		s.flushed = max(s.flushed, s.cursor-1)
		s.mu.Unlock()
		select {
		case <-s.kick:
		case <-hbC:
			s.mu.Lock()
			seq, shed := s.nextSeq, s.shed
			drained := s.cursor > s.nextSeq || s.n == 0
			s.mu.Unlock()
			if !drained {
				continue // frames are flowing; they carry liveness
			}
			body, _ := json.Marshal(heartbeatBody{Agent: s.cfg.Agent, Shed: shed})
			if _, err := w.Write(seglog.AppendRecord(stage, frameHeartbeat, seq, body)); err != nil {
				return err
			}
			mHeartbeats.Inc()
		case <-s.stop:
			return errSenderStopped
		}
	}
}

// deadlineConn arms a connection's timeouts where the socket is actually
// touched: frames pass through sockBufBytes of buffer on both sides (the
// sender's stage, the receiver's bufio.Reader), so a deadline per frame
// is a clock read and a timer update for nothing on all but one frame in
// hundreds.
type deadlineConn struct {
	net.Conn
	read, write time.Duration // <= 0: that direction is never armed
	// armRead, set by the reader's owner at each frame boundary, makes the
	// next socket read arm the deadline; later reads inside the same frame
	// leave it standing, so it bounds the whole frame.
	armRead bool
}

func (c *deadlineConn) Read(p []byte) (int, error) {
	if c.armRead && c.read > 0 {
		c.armRead = false
		c.Conn.SetReadDeadline(time.Now().Add(c.read))
	}
	return c.Conn.Read(p)
}

func (c *deadlineConn) Write(p []byte) (int, error) {
	if c.write > 0 {
		c.Conn.SetWriteDeadline(time.Now().Add(c.write))
	}
	return c.Conn.Write(p)
}

// Drain blocks until every frame spooled so far has been written and
// flushed to a socket at least once, or the timeout passes (e.g. the
// analyzer is unreachable and frames are still spooled). A timeout <= 0
// means the configured DrainTimeout, as for Close.
func (s *Sender) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	s.mu.Lock()
	target := s.nextSeq
	s.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		s.mu.Lock()
		flushed, shed := s.flushed, s.shed
		s.mu.Unlock()
		// Shed frames can never flush; they are accounted, not awaited.
		if flushed+shed >= target {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agent: drain timed out with %d frames unflushed (analyzer %s unreachable?)",
				target-flushed, s.target())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Close drains spooled frames (bounded by DrainTimeout), stops the
// writer, and returns the drain error if the flush was incomplete.
func (s *Sender) Close() error {
	err := s.Drain(s.cfg.DrainTimeout)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		<-s.done
		return err
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	return err
}

// HealthKind classifies a monitoring-plane health record.
type HealthKind uint8

const (
	// HealthGap records frames lost for an agent (Missing counts them).
	HealthGap HealthKind = iota + 1
	// HealthDown marks an agent that stopped heartbeating.
	HealthDown
	// HealthUp marks an agent that resumed after being down.
	HealthUp
)

// String implements fmt.Stringer.
func (k HealthKind) String() string {
	switch k {
	case HealthGap:
		return "gap"
	case HealthDown:
		return "down"
	case HealthUp:
		return "up"
	default:
		return "unknown"
	}
}

// Health is one monitoring-plane health record: an explicit gap in an
// agent's frame sequence, or a liveness transition.
type Health struct {
	Kind    HealthKind
	Agent   string
	Missing uint64
	At      time.Time
}

// AgentStat is the receiver's view of one agent's stream.
type AgentStat struct {
	// LastSeq is the sequence high-water mark seen (frames or
	// heartbeat marks).
	LastSeq uint64
	// Missing counts sequence numbers that never arrived — every one
	// was surfaced as a HealthGap record.
	Missing uint64
	// Dups counts replayed frames deduplicated after reconnects.
	Dups uint64
	// Down reports whether the agent is currently declared down.
	Down bool
}

// agentState tracks one agent across connections. session pins the
// sender incarnation the sequence accounting belongs to; counters are
// receiver-lifetime totals and survive session changes.
type agentState struct {
	session  uint64
	lastSeq  uint64
	missing  uint64
	dups     uint64
	lastSeen time.Time
	down     bool
}

// ReceiverConfig tunes the hardened receiver.
type ReceiverConfig struct {
	// Addr is the listen address (e.g. ":6166").
	Addr string
	// DownAfter declares an agent down when no frame (heartbeats
	// included) arrives for this long. 0 disables liveness tracking.
	DownAfter time.Duration
	// ReadTimeout is the read deadline (default 30s, negative disables),
	// armed per socket read: at the first one a frame needs, and standing
	// for the rest of that frame. It bounds how long a corrupt length
	// prefix can stall a connection: the read times out, the connection
	// drops, and the sender replays through a fresh one.
	ReadTimeout time.Duration
}

// Receiver accepts agent connections and forwards their events, in
// per-connection arrival order, to a single handler goroutine. Corrupt
// frames are skipped via CRC + resync, replayed frames are
// deduplicated per agent, and losses surface as Health records rather
// than silence.
//
// The unit of hand-off is a Batch — what one socket read delivered,
// reused (Batches, Recycle) — and Events a per-event view of it. A
// receiver has one event consumer: Batches or Events, never both.
type Receiver struct {
	ln        net.Listener
	cfg       ReceiverConfig
	batches   chan *Batch
	free      chan *Batch      // recycled hand-offs
	records   atomic.Bool      // KeepRecords was called
	events    chan trace.Event // the Events view, fed once it is asked for
	viewOnce  sync.Once
	states    chan StateUpdate
	health    chan Health
	wg        sync.WaitGroup
	closing   chan struct{}
	closeOnce sync.Once

	mu       sync.Mutex
	agents   map[string]*agentState
	conns    map[net.Conn]struct{}
	shutdown bool
}

// ListenConfig starts a receiver on cfg.Addr.
func ListenConfig(cfg ReceiverConfig) (*Receiver, error) {
	if cfg.ReadTimeout == 0 {
		cfg.ReadTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("agent: listening on %s: %w", cfg.Addr, err)
	}
	r := &Receiver{
		ln:      ln,
		cfg:     cfg,
		batches: make(chan *Batch, recvBatchQueue),    // the events bound above
		free:    make(chan *Batch, recvBatchQueue+2),  // + being ingested, being filled
		events:  make(chan trace.Event, recvBatchMax), // the view's consumer runs while it fetches the next batch
		states:  make(chan StateUpdate, 64),
		health:  make(chan Health, 256),
		closing: make(chan struct{}),
		agents:  make(map[string]*agentState),
		conns:   make(map[net.Conn]struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	if cfg.DownAfter > 0 {
		r.wg.Add(1)
		go r.liveness()
	}
	return r, nil
}

// Addr returns the bound listen address.
func (r *Receiver) Addr() string { return r.ln.Addr().String() }

// Batch is one hand-off from Batches.
type Batch struct {
	// Events are what one socket read delivered (at most recvBatchMax),
	// in per-connection arrival order, deduplicated.
	Events []trace.Event
	// Record, once KeepRecords was called, is Events' wire bodies — each
	// checked against its frame's CRC and decoded into its event — laid
	// out as one batch record: seglog.StartBatch's room, then an entry per
	// event (seglog.AppendEntry), ready for wal.Log.AppendRecord to seal
	// and write. It is empty when not asked for, and when replayed
	// duplicates were compacted out of Events, since its entries would no
	// longer match them. Hand-offs close before it would pass
	// seglog.BatchBytes.
	Record []byte
}

// Batches is the merged event stream, a Batch per hand-off. The Batch
// is the consumer's until handed back with Recycle. Closes after Close,
// once all connections drain.
func (r *Receiver) Batches() <-chan *Batch { return r.batches }

// KeepRecords makes every hand-off begun from now on carry its events'
// bodies as Batch.Record, for a consumer that writes them to a log: the
// bodies are copied as they are read, and never encoded again. Without
// it the receiver keeps no bodies.
func (r *Receiver) KeepRecords() { r.records.Store(true) }

// Recycle returns a Batch taken from Batches for reuse: the receiver
// will overwrite it (strings in copied-out events stay valid).
func (r *Receiver) Recycle(b *Batch) {
	select {
	case r.free <- b:
	default: // more hand-offs than can be in flight: let this one go
	}
}

// batch returns an empty hand-off, recycled if one is free, with its
// record begun if records are kept.
func (r *Receiver) batch() *Batch {
	var b *Batch
	select {
	case b = <-r.free:
		b.Events = b.Events[:0]
	default:
		b = &Batch{Events: make([]trace.Event, 0, recvBatchMax)}
	}
	b.Record = b.Record[:0]
	if r.records.Load() {
		if b.Record == nil {
			b.Record = make([]byte, 0, recordHint)
		}
		b.Record = seglog.StartBatch(b.Record)
	}
	return b
}

// Events is the merged event stream one event at a time: a view over
// Batches, started by the first call and ending on its own once Close has
// closed the batch stream. Close drops whatever the view has not yet
// handed over.
func (r *Receiver) Events() <-chan trace.Event {
	r.viewOnce.Do(func() {
		go func() {
			defer close(r.events)
			for b := range r.batches {
				for i := range b.Events {
					select {
					case r.events <- b.Events[i]:
					case <-r.closing:
						return
					}
				}
				r.Recycle(b)
			}
		}()
	})
	return r.events
}

// States is the merged state-update stream. It closes with the receiver.
func (r *Receiver) States() <-chan StateUpdate { return r.states }

// Health is the stream of gap and liveness records. It closes with the
// receiver; if nobody consumes it, records are dropped (and counted)
// rather than blocking ingest — totals stay available via AgentStats.
func (r *Receiver) Health() <-chan Health { return r.health }

// AgentStats snapshots per-agent stream accounting.
func (r *Receiver) AgentStats() map[string]AgentStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]AgentStat, len(r.agents))
	for name, st := range r.agents {
		out[name] = AgentStat{LastSeq: st.lastSeq, Missing: st.missing, Dups: st.dups, Down: st.down}
	}
	return out
}

func (r *Receiver) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return // listener closed
		}
		r.mu.Lock()
		if r.shutdown {
			r.mu.Unlock()
			conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(sockBufBytes) // advisory, like the sender's write buffer
		}
		r.wg.Add(1)
		go r.serve(conn)
	}
}

// emit delivers a health record without ever blocking ingest.
func (r *Receiver) emit(h Health) {
	select {
	case r.health <- h:
	default:
		mHealthDropped.Inc()
	}
}

// touchLocked returns the tracker for an agent that has just been heard
// from: liveness refreshed, a down agent flipped back up. r.mu must be held.
func (r *Receiver) touchLocked(agent string, now time.Time) *agentState {
	st := r.agents[agent]
	if st == nil {
		st = &agentState{}
		r.agents[agent] = st
	}
	st.lastSeen = now
	if st.down {
		st.down = false
		mAgentUp.Inc()
		r.emit(Health{Kind: HealthUp, Agent: agent, At: now})
	}
	return st
}

// hello folds a connection's hello frame into the agent's tracker. A
// session this receiver has not seen — the agent restarted, or it was
// reassigned here from another analyzer whose history we never received
// — adopts the hello's base sequence outright: the stream genuinely
// starts there, and the unseen prefix is not this receiver's loss. A
// repeated hello for the session already being tracked is a reconnect;
// a base that moved past lastSeq means frames were shed from the ring
// while disconnected and can never be replayed, which is a real gap.
// session is never 0: the connection loop refuses a session-less hello.
func (r *Receiver) hello(agent string, session, base uint64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.touchLocked(agent, now)
	if st.session != session {
		st.session = session
		st.lastSeq = base
		return
	}
	r.skipTo(st, agent, base, now)
}

// skipTo moves an agent's high-water mark up to mark, declaring every
// sequence number passed over lost: one gap record. r.mu must be held.
func (r *Receiver) skipTo(st *agentState, agent string, mark uint64, now time.Time) {
	if mark <= st.lastSeq {
		return
	}
	miss := mark - st.lastSeq
	st.lastSeq = mark
	st.missing += miss
	mGaps.Inc()
	mFramesMissed.Add(miss)
	r.emit(Health{Kind: HealthGap, Agent: agent, Missing: miss, At: now})
}

// admitRun applies per-agent sequence tracking to a run of payload
// frames — seqs[i] carried evs[i]; a state frame is a run of one with no
// evs — under one lock acquisition and one clock read. Duplicates
// (replays already seen) are compacted out of evs, gaps are recorded and
// surfaced, unsequenced frames (seq 0) always pass; evs[:kept] are the
// admitted frames' events, in order.
func (r *Receiver) admitRun(agent string, seqs []uint64, evs []trace.Event) (kept int) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.touchLocked(agent, now)
	for i, seq := range seqs {
		if seq != 0 {
			if seq <= st.lastSeq {
				continue
			}
			r.skipTo(st, agent, seq-1, now)
			st.lastSeq = seq
		}
		if kept != i && evs != nil {
			evs[kept] = evs[i]
		}
		kept++
	}
	dups := uint64(len(seqs) - kept)
	st.dups += dups
	mFramesDup.Add(dups)
	return kept
}

// noteHeartbeat folds a liveness frame in: the heartbeat's sequence is
// the sender's high-water mark, so a receiver behind it has lost frames
// that will never be replayed on this connection — an explicit gap.
func (r *Receiver) noteHeartbeat(agent string, seq uint64) {
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.touchLocked(agent, now)
	r.skipTo(st, agent, seq, now)
}

// liveness declares agents down when their frames stop.
func (r *Receiver) liveness() {
	defer r.wg.Done()
	period := r.cfg.DownAfter / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-r.closing:
			return
		case <-tick.C:
			now := time.Now()
			r.mu.Lock()
			for name, st := range r.agents {
				if !st.down && now.Sub(st.lastSeen) > r.cfg.DownAfter {
					st.down = true
					mAgentDown.Inc()
					telemetry.LogFirst("transport.down",
						"agent: %s went dark (no frames for %v)", name, r.cfg.DownAfter)
					r.emit(Health{Kind: HealthDown, Agent: name, At: now})
				}
			}
			r.mu.Unlock()
		}
	}
}

// serve reads one connection. Event frames are decoded straight into the
// next slot of a reused batch, handed over under one rule: never wait on
// the socket while holding decoded, undelivered events. So it goes out
// when the reader does not already hold a whole next frame, when it is
// full, before any non-event frame (per-connection order is the wire's),
// and on exit: a socket read's worth at a time from a busy stream,
// single events with no added delay from a sparse one. A batch keeping a
// record also goes out before the next body would take the record past
// seglog.BatchBytes; a body joins the record only once it has decoded.
func (r *Receiver) serve(conn net.Conn) {
	defer r.wg.Done()
	defer func() {
		conn.Close()
		r.mu.Lock()
		delete(r.conns, conn)
		r.mu.Unlock()
	}()
	mActiveConns.Add(1)
	defer mActiveConns.Add(-1)
	dc := &deadlineConn{Conn: conn, read: r.cfg.ReadTimeout}
	br := bufio.NewReaderSize(dc, sockBufBytes)
	// Until a hello identifies the agent, track by remote address.
	agent := "conn:" + conn.RemoteAddr().String()
	// Per-connection decode state: the frame body buffer is reused (every
	// decode below copies out of it) and the event decoder interns the
	// connection's repeating strings. seqs[i] is b.Events[i]'s frame
	// sequence.
	var (
		buf  []byte
		dec  trace.Decoder
		b    *Batch
		seqs = make([]uint64, 0, recvBatchMax)
	)
	flush := func() { // admit the batch, hand over what survives
		if b == nil || len(b.Events) == 0 {
			return
		}
		kept := r.admitRun(agent, seqs, b.Events)
		seqs = seqs[:0]
		if kept == 0 { // all duplicates
			r.Recycle(b)
			b = nil
			return
		}
		if kept < len(b.Events) {
			b.Events, b.Record = b.Events[:kept], b.Record[:0]
		}
		mBatches.Inc()
		select {
		case r.batches <- b:
		case <-r.closing: // Close also closes conn: the next read ends serve
		}
		b = nil
	}
	defer flush()
	for {
		if b != nil && len(b.Events) == recvBatchMax || !seglog.Buffered(br) {
			flush()
		}
		dc.armRead = true
		kind, seq, body, skipped, err := seglog.ReadRecord(br, frameKinds, buf, seglog.Socket)
		if skipped.Bytes > 0 {
			mResyncs.Inc()
			mBytesSkipped.Add(uint64(skipped.Bytes))
			mCRCErrors.Add(uint64(skipped.CRC))
			telemetry.LogFirst("transport.resync",
				"agent: corrupt bytes from %s (%s): skipped %d resynchronizing", conn.RemoteAddr(), agent, skipped.Bytes)
		}
		if err != nil {
			if err != io.EOF {
				mConnsDropped.Inc()
				telemetry.LogFirst("transport.drop",
					"agent: dropping connection from %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		buf = body
		mFramesRecv.Inc()
		if kind == frameEvent {
			if b != nil && len(b.Record) > 0 && !seglog.BatchFits(b.Record, len(body)) {
				flush()
			}
			if b == nil {
				b = r.batch()
			}
			n := len(b.Events)
			b.Events = b.Events[:n+1]
			if derr := dec.Decode(kind, body, &b.Events[n]); derr != nil {
				b.Events = b.Events[:n]
				mDecodeErrors.Inc()
				telemetry.LogFirst("transport.decode",
					"agent: undecodable event frame from %s: %v; skipping", conn.RemoteAddr(), derr)
				continue
			}
			if len(b.Record) > 0 {
				b.Record = seglog.AppendEntry(b.Record, body)
			}
			seqs = append(seqs, seq)
			continue
		}
		flush()
		switch kind {
		case frameHello:
			var h helloBody
			derr := json.Unmarshal(body, &h)
			if derr == nil && h.Session == 0 {
				derr = errNoSession
			}
			if derr != nil {
				mDecodeErrors.Inc()
				telemetry.LogFirst("transport.decode",
					"agent: refused hello from %s: %v; skipping", conn.RemoteAddr(), derr)
				continue
			}
			if h.Agent != "" {
				agent = h.Agent
			}
			r.hello(agent, h.Session, h.Base)
		case frameHeartbeat:
			var h heartbeatBody
			if json.Unmarshal(body, &h) == nil && h.Agent != "" {
				agent = h.Agent
			}
			mHeartbeats.Inc()
			r.noteHeartbeat(agent, seq)
		case frameState:
			var u StateUpdate
			if derr := json.Unmarshal(body, &u); derr != nil {
				mDecodeErrors.Inc()
				telemetry.LogFirst("transport.decode",
					"agent: undecodable state frame from %s: %v; skipping", conn.RemoteAddr(), derr)
				continue
			}
			if r.admitRun(agent, []uint64{seq}, nil) == 0 {
				continue
			}
			select {
			case r.states <- u:
			case <-r.closing:
				return
			}
		}
	}
}

// Close stops accepting, terminates connection readers (even ones
// blocked handing frames to a consumer that already stopped reading, or
// fed a steady heartbeat stream that would otherwise keep them reading
// forever), and closes the event, state, and health channels once they
// exit. Senders see the closed connections as a failure and redial —
// with a Resolve hook, onto whatever replacement they are assigned.
// Idempotent: failover paths close a dead member's receiver from both
// the kill site and the shutdown sweep.
func (r *Receiver) Close() {
	r.closeOnce.Do(r.close)
}

func (r *Receiver) close() {
	close(r.closing)
	r.ln.Close()
	r.mu.Lock()
	r.shutdown = true
	for c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	close(r.batches) // and with it the Events view, if anyone started one
	close(r.states)
	close(r.health)
}
