// Package tape holds a recorded packet stream in a form the garbage
// collector does not have to walk: one byte arena for every payload,
// fixed-size pointer-free records, and a small table of interned node
// and address strings. A lap over the tape materialises cluster.Packets
// by value and allocates nothing, so the load generator's heap stays out
// of the measured program's GC work.
package tape

import (
	"time"

	"gretel/internal/agent"
	"gretel/internal/cluster"
)

// rec is one packet. It holds no pointers: strings are indices into the
// tape's intern table and the payload is an offset into the arena.
type rec struct {
	timeNs  int64
	connID  uint64
	off     uint64
	n       uint32
	srcNode uint32
	dstNode uint32
	srcAddr uint32
	dstAddr uint32
}

// State is one distributed-state update recorded in line: it was
// collected after After packets had been tapped.
type State struct {
	After  int
	Update agent.StateUpdate
}

// Tape is an append-only recording. Record with Append and AppendState
// during set-up; after that it is read-only and safe to share.
type Tape struct {
	arena  []byte
	recs   []rec
	strs   []string
	intern map[string]uint32
	states []State
}

// New returns an empty tape.
func New() *Tape {
	return &Tape{intern: make(map[string]uint32)}
}

func (t *Tape) id(s string) uint32 {
	if i, ok := t.intern[s]; ok {
		return i
	}
	i := uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.intern[s] = i
	return i
}

// Append records one tapped packet, copying its payload into the arena.
func (t *Tape) Append(p cluster.Packet) {
	t.recs = append(t.recs, rec{
		timeNs:  p.Time.UnixNano(),
		connID:  p.ConnID,
		off:     uint64(len(t.arena)),
		n:       uint32(len(p.Payload)),
		srcNode: t.id(p.SrcNode),
		dstNode: t.id(p.DstNode),
		srcAddr: t.id(p.SrcAddr),
		dstAddr: t.id(p.DstAddr),
	})
	t.arena = append(t.arena, p.Payload...)
}

// AppendState records a state update at the current tape position.
func (t *Tape) AppendState(u agent.StateUpdate) {
	t.states = append(t.states, State{After: len(t.recs), Update: u})
}

// Len is the number of packets.
func (t *Tape) Len() int { return len(t.recs) }

// PayloadBytes is the total payload size.
func (t *Tape) PayloadBytes() int { return len(t.arena) }

// States returns the in-line state updates in tape order.
func (t *Tape) States() []State { return t.states }

// TimeNs is packet i's capture time in Unix nanoseconds.
func (t *Tape) TimeNs(i int) int64 { return t.recs[i].timeNs }

// Packet materialises packet i. The payload aliases the arena and the
// strings alias the intern table; nothing is allocated. Consumers must
// not mutate the payload (the same rule cluster.TapFn states).
func (t *Tape) Packet(i int) cluster.Packet {
	r := &t.recs[i]
	return cluster.Packet{
		Time:    time.Unix(0, r.timeNs).UTC(),
		SrcNode: t.strs[r.srcNode],
		DstNode: t.strs[r.dstNode],
		SrcAddr: t.strs[r.srcAddr],
		DstAddr: t.strs[r.dstAddr],
		ConnID:  r.connID,
		Payload: t.arena[r.off : r.off+uint64(r.n) : r.off+uint64(r.n)],
	}
}
