package rt_test

import (
	"testing"

	"cvm/internal/apps"
	"cvm/internal/harness"
	"cvm/internal/rt"
)

// TestTrafficInvariants is the proof that a change to the access path or
// the buffers did not move the protocol: over the benchmark's rt-loopback
// cells (the seven applications, size small, 4×2) two sums do not depend
// on scheduling, and both are what they were before the dense page table.
// Fault counts move ±0.5 % run to run with who wins the token; what is
// left when the faults' own messages and bytes are taken out does not —
// every other message is a lock, a barrier, a reduction or a diff the
// program's own releases caused.
func TestTrafficInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("seven applications at size small")
	}
	const nodes, threads = 4, 2
	var msgs, bytes, faults, diffBytes int64
	for _, name := range harness.AppOrder {
		app, err := apps.New(name, apps.SizeSmall)
		if err != nil {
			t.Fatal(err)
		}
		cfg := rt.DefaultConfig(nodes, threads)
		cfg.Metrics = rt.NewMetrics()
		c, err := rt.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := app.Setup(c); err != nil {
			t.Fatal(err)
		}
		res, err := c.RunLoopback(app.Main)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := app.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		msgs += res.Net.TotalMsgs()
		bytes += res.Net.TotalBytes()
		for _, n := range cfg.Metrics.Snapshot().Nodes {
			faults += n.FaultService.Count
			diffBytes += n.DiffBytes.Sum
		}
	}
	perFault := int64(rt.DefaultConfig(nodes, threads).PageSize + 16) // request 8, reply 8 + the page
	t.Logf("%d msgs, %d bytes, %d remote faults, %d diff bytes", msgs, bytes, faults, diffBytes)
	if got, want := msgs-2*faults, int64(16104); got != want {
		t.Errorf("messages other than page requests and replies: %d, want %d", got, want)
	}
	if got, want := bytes-perFault*faults-diffBytes, int64(93384); got != want {
		t.Errorf("bytes other than pages and diff runs: %d, want %d", got, want)
	}
}
