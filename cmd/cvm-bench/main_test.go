package main

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all_test.golden from the current output")

// TestAllGolden pins the bytes of every paper table: `-experiment all
// -size test -q` must match testdata/all_test.golden at any -parallel.
// Regenerate with -update only when a table is meant to change.
func TestAllGolden(t *testing.T) {
	const golden = "testdata/all_test.golden"
	for _, parallel := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-experiment", "all", "-size", "test", "-q", "-parallel", parallel}, &out); err != nil {
			t.Fatal(err)
		}
		if *update {
			if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("-parallel %s: output differs from %s (rerun with -update if intended)", parallel, golden)
		}
	}
}

// TestDocListsExperiments keeps the package comment's experiment list
// the one the dispatch table generates.
func TestDocListsExperiments(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	if want := "// Experiments: " + experimentNames() + ".\n"; !strings.Contains(string(src), want) {
		t.Errorf("package comment does not carry %q", want)
	}
}

func TestFlagValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"positional args", []string{"extra"}, "unexpected arguments"},
		{"bad size", []string{"-size", "huge"}, "huge"},
		{"unknown experiment", []string{"-experiment", "perf"}, "want one of: costs, fig1"},
		{"negative metrics-interval", []string{"-metrics-interval", "-1ms", "-report"}, "-metrics-interval"},
		{"malformed metrics-interval", []string{"-metrics-interval", "x"}, "invalid value"},
		{"zero metrics-top", []string{"-metrics-top", "0", "-report"}, "-metrics-top"},
		{"metrics without grid", []string{"-experiment", "table4", "-metrics", "m.json"}, "does not run it"},
		{"report without grid", []string{"-experiment", "scaleout", "-report"}, "does not run it"},
		{"orphan metrics-interval", []string{"-metrics-interval", "1ms"}, "-metrics-interval needs -metrics or -report"},
		{"orphan metrics-top", []string{"-metrics-top", "3"}, "-metrics-top needs -metrics or -report"},
		{"orphan scale-nodes", []string{"-experiment", "fig1", "-scale-nodes", "8"}, "-scale-nodes needs -experiment scaleout"},
		{"orphan scale-json", []string{"-scale-json", "x.json"}, "-scale-json needs -experiment scaleout"},
		{"removed with16", []string{"-with16=false"}, "not defined"},
		{"unwritable memprofile", []string{"-experiment", "costs", "-memprofile", "no-such-dir/mem.prof"}, "-memprofile: open no-such-dir"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q, want it to contain %q", tc.args, err, tc.want)
			}
		})
	}
}
