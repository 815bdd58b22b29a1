package apps

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cvm"
	"cvm/internal/netsim"
)

var updateManyWriter = flag.Bool("update-manywriter", false, "rewrite testdata/manywriter.golden")

// TestManyWriterGolden pins the many-writer fault path end to end:
// scaleout at 192x1 and 48x3 small, where every lock holder fetches and
// orders one diff per concurrent writer of the accumulator page, on the
// sequential engine and on the windowed one with two workers. Wall time,
// messages and bytes per class, diffs created and used and every node's
// counters are compared against testdata/manywriter.golden. A host-time
// change to the fault, the diff order, the barrier release or the event
// queue must leave the file byte-identical; regenerate (`go test
// ./internal/apps -run TestManyWriterGolden -update-manywriter`) only
// when the protocol is meant to move.
func TestManyWriterGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("192-node scaleout skipped in -short")
	}
	var got bytes.Buffer
	for _, shape := range []struct{ nodes, threads int }{{192, 1}, {48, 3}} {
		for _, workers := range []int{0, 2} {
			cfg := cvm.DefaultConfig(shape.nodes, shape.threads)
			cfg.EngineWorkers = workers
			st, sum, err := RunConfig("scaleout", SizeSmall, cfg)
			if err != nil {
				t.Fatalf("%dx%d workers=%d: %v", shape.nodes, shape.threads, workers, err)
			}
			fmt.Fprintf(&got, "scaleout %dx%d small workers=%d wall=%d checksum=%x\n",
				shape.nodes, shape.threads, workers, int64(st.Wall), sum)
			for _, c := range netsim.Classes() {
				fmt.Fprintf(&got, "  %s msgs=%d bytes=%d\n", c, st.Net.Msgs[c], st.Net.Bytes[c])
			}
			fmt.Fprintf(&got, "  diffs created=%d used=%d\n", st.Total.DiffsCreated, st.Total.DiffsUsed)
			for i, n := range st.Nodes {
				fmt.Fprintf(&got, "  n%d %s\n", i, nodeLine(n))
			}
		}
	}

	path := filepath.Join("testdata", "manywriter.golden")
	if *updateManyWriter {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-manywriter)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("many-writer statistics moved at line %d\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("many-writer statistics moved: %d lines, golden has %d", len(gl), len(wl))
	}
}

// nodeLine is one node's counters, every field of NodeStats in order.
func nodeLine(n cvm.NodeStats) string {
	return fmt.Sprintf("sw=%d rf=%d lf=%d rl=%d ll=%d of=%d ol=%d bsp=%d bsl=%d dc=%d du=%d user=%d fault=%d lock=%d barrier=%d",
		n.ThreadSwitches, n.RemoteFaults, n.LocalFaults, n.RemoteLocks, n.LocalLockAcquires,
		n.OutstandingFaults, n.OutstandingLocks, n.BlockSamePage, n.BlockSameLock,
		n.DiffsCreated, n.DiffsUsed, int64(n.UserTime), int64(n.FaultWait), int64(n.LockWait), int64(n.BarrierWait))
}
