package rt

import (
	"encoding/binary"
	"fmt"

	"cvm/internal/core"
	"cvm/internal/transport"
)

// DSM message types carried in transport.Message.Type. Requests carry a
// request id the reply echoes, so replies route back to the blocked
// worker without the dispatcher knowing who asked.
const (
	msgPageReq   uint8 = iota + 1 // reqID, pg          -> home
	msgPageRep                    // reqID, pg, data    <- home
	msgDiffReq                    // reqID, pg, runs    -> home
	msgDiffAck                    // reqID              <- home
	msgLockReq                    // reqID, lock        -> manager
	msgLockGrant                  // reqID              <- manager
	msgLockRel                    // lock               -> manager
	msgArrive                     // meet [, op, value] -> manager (node 0)
	msgRelease                    // meet [, result]    <- manager
)

// msgTypes is what the dispatcher knows about a type before it reads a
// byte of it: its name in errors, its Table 2 accounting class (page and
// diff traffic is ClassDiff, matching the simulator's classification of
// data-carrying messages), and the payload length handle may index
// without checking — min bytes, or min+val when a reduction's value
// rides along. A page reply's min grows by the page size.
var msgTypes = [...]struct {
	name     string
	class    transport.Class
	min, val int
}{
	msgPageReq:   {"page request", transport.ClassDiff, 8, 0},
	msgPageRep:   {"page reply", transport.ClassDiff, 8, 0},
	msgDiffReq:   {"diff request", transport.ClassDiff, 8, 0},
	msgDiffAck:   {"diff ack", transport.ClassDiff, 4, 0},
	msgLockReq:   {"lock request", transport.ClassLock, 8, 0},
	msgLockGrant: {"lock grant", transport.ClassLock, 4, 0},
	msgLockRel:   {"lock release", transport.ClassLock, 4, 0},
	msgArrive:    {"arrival", transport.ClassBarrier, 4, 9},
	msgRelease:   {"release", transport.ClassBarrier, 4, 8},
}

// checkFrame rejects a message handle could not index: an unknown type,
// a payload shorter than the type's fixed fields (PageSize more for a
// page reply) or cut inside a reduction's value, or a page or diff
// request for a page that has no master copy here.
func (n *rnode) checkFrame(m transport.Message) error {
	if int(m.Type) >= len(msgTypes) || msgTypes[m.Type].name == "" {
		return fmt.Errorf("unknown message type %d from node %d", m.Type, m.From)
	}
	t, size := &msgTypes[m.Type], len(m.Payload)
	min := t.min
	if m.Type == msgPageRep {
		min += n.c.cfg.PageSize
	}
	if size < min || (size > min && size < min+t.val) {
		return fmt.Errorf("short %s from node %d: %d bytes", t.name, m.From, size)
	}
	if m.Type == msgPageReq || m.Type == msgDiffReq {
		pg, why := le.Uint32(m.Payload[4:]), ""
		if pg >= uint32(len(n.pages)) {
			why = fmt.Sprintf("outside the %d allocated pages", len(n.pages))
		} else if !n.pages[pg].home {
			why = "not homed here"
		}
		if why != "" {
			return fmt.Errorf("%s for page %d (%s) from node %d", t.name, pg, why, m.From)
		}
	}
	return nil
}

// le is the payload encoding: little-endian fixed-width fields,
// mirroring the page data encoding the Worker accessors use.
var le = binary.LittleEndian

// encodeReq builds a (reqID, arg) payload shared by page requests
// (arg = page) and lock requests (arg = lock id).
func encodeReq(reqID, arg uint32) []byte {
	return le.AppendUint32(le.AppendUint32(make([]byte, 0, 8), reqID), arg)
}

// encodePageRep builds a page reply: reqID, page id, page contents.
func encodePageRep(reqID uint32, pg core.PageID, data []byte) []byte {
	b := make([]byte, 0, 8+len(data))
	b = le.AppendUint32(b, reqID)
	b = le.AppendUint32(b, uint32(pg))
	return append(b, data...)
}

// encodeDiff builds a diff flush straight from a dirty page and its
// twin: reqID, page id, then the runs where cur differs from twin in the
// compressed wire form (run-length + xor8 prefilter, core.EncodeDiff),
// one allocation however many runs — and nil when the page is clean. It
// clobbers twin where it differed. The encoding is self-contained, so the
// home applies it whatever its own page holds (applyDiff).
func encodeDiff(reqID uint32, pg core.PageID, twin, cur []byte) []byte {
	var head [8]byte
	le.PutUint32(head[:], reqID)
	le.PutUint32(head[4:], uint32(pg))
	b, _ := core.EncodeDiff(head[:], twin, cur)
	return b
}

// applyDiff writes an encodeDiff payload's runs into the master copy mp
// from the wire (core.ApplyRuns): nothing is decoded into runs first,
// and a payload that does not parse, or puts a run outside the page,
// writes nothing.
func applyDiff(mp, payload []byte) error {
	if err := core.ApplyRuns(mp, payload[8:]); err != nil {
		return fmt.Errorf("diff payload for page %d: %w", le.Uint32(payload[4:]), err)
	}
	return nil
}
