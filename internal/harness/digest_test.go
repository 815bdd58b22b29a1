package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/grid_digests.golden from the current grid")

// digest is a trace.Tracer that folds every event it receives, in
// emission order, into a 64-bit FNV-1a hash of its fields. Seq is left
// out: the Recorder assigns it, so a bare tracer always sees zero.
type digest struct {
	events int
	sum    uint64
}

func (d *digest) Emit(e trace.Event) {
	const prime = 1099511628211
	d.events++
	for _, v := range [...]uint64{uint64(e.T), uint64(e.Dur), uint64(e.Aux), uint64(e.Arg), uint64(e.Kind),
		uint64(e.Node), uint64(e.Thread), uint64(e.Page), uint64(e.Sync), uint64(e.Peer)} {
		for i := 0; i < 64; i += 8 {
			d.sum = (d.sum ^ (v >> i & 0xff)) * prime
		}
	}
}

// TestGridDigests pins every cell of cvm-bench's shared grid at test size
// (seven apps × 4 and 8 nodes × T = 1..4) by the digest of its whole
// event stream, so a change that claims to move nothing is checked on
// every event of every cell, not on the rounded tables alone. A cell
// whose line differs is named. Regenerate with
// `go test ./internal/harness -run TestGridDigests -update` after an
// intentional protocol or timing change, and say which cells moved.
func TestGridDigests(t *testing.T) {
	cells, err := GridCells(AppOrder, apps.SizeTest, GridShapes([]int{4, 8}, ThreadLevels))
	if err != nil {
		t.Fatal(err)
	}
	digests := make([]digest, len(cells))
	for i := range cells {
		d := &digests[i]
		cells[i] = cells[i].With(func(cfg *cvm.Config) { cfg.Tracer = d })
	}
	if _, err := RunCells(cells, apps.SizeTest, nil, 0); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for i, c := range cells {
		fmt.Fprintf(&got, "%s %dx%d events=%d digest=%016x\n", c.App, c.Nodes, c.Threads, digests[i].events, digests[i].sum)
	}

	golden := filepath.Join("testdata", "grid_digests.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d cells)", golden, len(cells))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells, %s has %d", len(cells), golden, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell moved:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
