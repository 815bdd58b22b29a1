package harness

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"cvm"
	"cvm/internal/apps"
	"cvm/internal/netsim"
)

var updateAdaptGolden = flag.Bool("update", false, "rewrite testdata/adapt_small.golden")

// TestAdaptiveGolden pins what -adapt does: the seven paper applications
// at 8x2 small with Config.Adapt on, every virtual time, per-class
// traffic count, adaptation counter and checksum compared against
// testdata/adapt_small.golden. A refactor of the adaptive machinery
// must leave the file byte-identical; regenerate (`go test
// ./internal/harness -run TestAdaptiveGolden -update`) only for an
// intentional change to the classifier, the modes, or the
// calibration they run on.
func TestAdaptiveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("small-size adaptive grid skipped in -short")
	}
	if raceEnabled {
		t.Skip("small-size adaptive grid skipped under the race detector; TestGuardDeterminismAdaptive covers -adapt there")
	}
	lines, err := runJobs(AppOrder, runtime.GOMAXPROCS(0), func(app string) (string, error) {
		cfg := cvm.DefaultConfig(8, 2)
		cfg.Adapt = true
		st, sum, err := apps.RunConfig(app, apps.SizeSmall, cfg)
		if err != nil {
			return "", fmt.Errorf("%s: %w", app, err)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "%s wall=%v barrier=%v fault=%v lock=%v\n", app,
			st.Wall, st.Total.BarrierWait, st.Total.FaultWait, st.Total.LockWait)
		fmt.Fprintf(&b, "  ns wall=%d barrier=%d fault=%d lock=%d\n",
			int64(st.Wall), int64(st.Total.BarrierWait), int64(st.Total.FaultWait), int64(st.Total.LockWait))
		for _, c := range []netsim.Class{netsim.ClassBarrier, netsim.ClassLock, netsim.ClassDiff, netsim.ClassUpdate} {
			fmt.Fprintf(&b, "  %s msgs=%d bytes=%d\n", c, st.Net.Msgs[c], st.Net.Bytes[c])
		}
		fmt.Fprintf(&b, "  total msgs=%d bytes=%d\n", st.Net.TotalMsgs(), st.Net.TotalBytes())
		fmt.Fprintf(&b, "  modes=%d pushes=%d hits=%d checksum=%x\n",
			st.Total.ModeChanges, st.Total.UpdatePushes, st.Total.UpdateHits, sum)
		return b.String(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, l := range lines {
		got.WriteString(l)
	}

	path := filepath.Join("testdata", "adapt_small.golden")
	if *updateAdaptGolden {
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
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-adapt behaviour changed — if intentional, regenerate with -update\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
