package rt

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"cvm/internal/core"
	"cvm/internal/sim"
	"cvm/internal/transport"
)

const framePageSize = 64

// failureOf sends node 0 of a two-node loopback mesh one message from
// node 1 and returns the failure it ends in. A panic in the dispatcher
// would end the process, and the test with it.
func failureOf(t *testing.T, typ uint8, payload []byte) string {
	t.Helper()
	cfg := DefaultConfig(2, 1)
	cfg.PageSize = framePageSize
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.MustAlloc("four pages", 4*framePageSize) // node 0 homes pages 0 and 2
	conns := transport.NewLoopback(2)
	defer conns[0].Close()
	node := newNode(c, conns[0], sim.NewWallClock(), nil)
	go node.dispatch()
	if err := conns[1].Send(transport.Message{To: 0, Type: typ, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-node.failCh:
	case <-time.After(10 * time.Second):
		t.Fatal("node did not fail")
	}
	return node.failure().Error()
}

// TestShortFrames sends every message type at every length short of
// what handle indexes. Each must fail the node with an error naming the
// type, the sender and the length; none may panic the dispatcher.
func TestShortFrames(t *testing.T) {
	full := map[uint8][]int{ // the lengths a well-formed payload has
		msgPageReq:   {8},
		msgPageRep:   {8 + framePageSize},
		msgDiffReq:   {8},
		msgDiffAck:   {4},
		msgLockReq:   {8},
		msgLockGrant: {4},
		msgLockRel:   {4},
		msgArrive:    {4, 13},
		msgRelease:   {4, 12},
	}
	if len(full) != len(msgTypes)-1 {
		t.Fatalf("table covers %d message types, wire.go has %d", len(full), len(msgTypes)-1)
	}
	for typ, lens := range full {
		short := make(map[int]bool)
		for n := 0; n < lens[len(lens)-1]; n++ {
			short[n] = true
		}
		for _, n := range lens {
			delete(short, n)
		}
		for n := range short {
			t.Run(fmt.Sprintf("%s/%d", msgTypes[typ].name, n), func(t *testing.T) {
				want := fmt.Sprintf("rt: node 0: short %s from node 1: %d bytes", msgTypes[typ].name, n)
				if got := failureOf(t, typ, make([]byte, n)); got != want {
					t.Errorf("failure %q, want %q", got, want)
				}
			})
		}
	}
}

// TestBadFrames: frames long enough to index but wrong inside fail the
// node with the sender named, too — an unknown type, a diff whose runs
// do not parse, a diff run that would be copied past the page, a diff
// with bytes after its runs, and a page or diff request for a page node
// 0 holds no master copy of (it used to conjure one).
func TestBadFrames(t *testing.T) {
	// diff is a diff request for page pg whose one run is bytes [off,
	// off+8) — cut by MakeDiff from a page 4 bytes longer than the
	// frame's, so that a run can reach past the end of a real page.
	diff := func(pg uint32, off int) []byte {
		twin, cur := make([]byte, framePageSize+4), make([]byte, framePageSize+4)
		for i := off; i < off+8; i++ {
			cur[i] = 1
		}
		return core.EncodeRuns(encodeReq(1, pg), core.MakeDiff(0, twin, cur))
	}
	outside := diff(0, framePageSize-4)
	for _, tc := range []struct {
		name    string
		typ     uint8
		payload []byte
		want    string
	}{
		{"unknown type", 200, nil, "unknown message type 200 from node 1"},
		{"no runs", msgDiffReq, make([]byte, 8), "diff payload for page 0: core: diff run count:"},
		{"run outside the page", msgDiffReq, outside,
			"diff payload for page 0: core: diff run 0 [60,+8) outside the 64-byte page from node 1"},
		{"bytes after the runs", msgDiffReq, append(diff(0, 0), 7),
			"diff payload for page 0: core: 1 bytes after the diff runs from node 1"},
		{"page request, peer's page", msgPageReq, encodeReq(1, 1),
			"rt: node 0: page request for page 1 (not homed here) from node 1"},
		{"page request, no such page", msgPageReq, encodeReq(1, 4),
			"rt: node 0: page request for page 4 (outside the 4 allocated pages) from node 1"},
		{"diff request, peer's page", msgDiffReq, diff(3, 0),
			"rt: node 0: diff request for page 3 (not homed here) from node 1"},
		{"diff request, no such page", msgDiffReq, diff(1<<20, 0),
			"rt: node 0: diff request for page 1048576 (outside the 4 allocated pages) from node 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := failureOf(t, tc.typ, tc.payload); !strings.Contains(got, tc.want) {
				t.Errorf("failure %q, want it to say %q", got, tc.want)
			}
		})
	}
}
