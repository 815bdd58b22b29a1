package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// roundTripRuns encodes runs, decodes them back, and fails on any
// mismatch or trailing bytes.
func roundTripRuns(t *testing.T, runs []Run) []byte {
	t.Helper()
	enc := EncodeRuns(nil, runs)
	if got := EncodedRunsSize(runs); got != len(enc) {
		t.Fatalf("EncodedRunsSize = %d, len(EncodeRuns) = %d", got, len(enc))
	}
	dec, rest, err := DecodeRuns(enc)
	if err != nil {
		t.Fatalf("DecodeRuns: %v", err)
	}
	if len(rest) != 0 {
		t.Fatalf("DecodeRuns left %d trailing bytes", len(rest))
	}
	if len(dec) != len(runs) {
		t.Fatalf("decoded %d runs, want %d", len(dec), len(runs))
	}
	if want := spansOf(runs); !runsEqual(dec, want) {
		t.Fatalf("decoded %+v, want %+v", spansOf(dec), want)
	}
	return enc
}

func TestEncodeRunsRoundTrip(t *testing.T) {
	cases := map[string][]runSpan{
		"empty":   nil,
		"one":     {{Off: 0, Data: []byte{1}}},
		"tail":    {{Off: 8191, Data: []byte{9}}},
		"full":    {{Off: 0, Data: bytes.Repeat([]byte{0xAB}, 8192)}},
		"back2":   {{Off: 0, Data: []byte{1, 2}}, {Off: 2, Data: []byte{3}}},
		"repeats": {{Off: 100, Data: append(bytes.Repeat([]byte{7}, 100), 1, 2, 3)}},
		"words": {
			{Off: 64, Data: []byte{1, 0, 0, 0, 0, 0, 0, 0}},
			{Off: 512, Data: []byte{2, 0, 0, 0, 0, 0, 0, 0}},
		},
	}
	for name, runs := range cases {
		t.Run(name, func(t *testing.T) { roundTripRuns(t, packRuns(runs)) })
	}
}

// TestEncodeRunsMatchesMakeDiff drives the codec with real MakeDiff
// output over a deterministic pseudo-random write workload: whatever the
// protocol can produce, the wire must round-trip bit-exactly.
func TestEncodeRunsMatchesMakeDiff(t *testing.T) {
	const pageSize = 4096
	rng := uint64(1)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	for trial := 0; trial < 200; trial++ {
		twin := make([]byte, pageSize)
		for i := range twin {
			twin[i] = byte(next())
		}
		cur := append([]byte(nil), twin...)
		writes := int(next() % 40)
		for w := 0; w < writes; w++ {
			off := int(next() % pageSize)
			ln := 1 + int(next()%64)
			if off+ln > pageSize {
				ln = pageSize - off
			}
			switch next() % 3 {
			case 0: // word write of a small value
				for i := 0; i < ln; i++ {
					cur[off+i] = 0
				}
				cur[off] = byte(next())
			case 1: // repeated fill
				b := byte(next())
				for i := 0; i < ln; i++ {
					cur[off+i] = b
				}
			default: // high-entropy splat
				for i := 0; i < ln; i++ {
					cur[off+i] = byte(next())
				}
			}
		}
		runs := MakeDiff(0, twin, cur)
		enc := roundTripRuns(t, runs)
		// Apply the decoded runs to a copy of the twin and compare pages:
		// end-to-end, wire form included, the receiver reconstructs cur.
		dec, _, _ := DecodeRuns(enc)
		got := append([]byte(nil), twin...)
		(&Diff{Runs: dec}).Apply(got, nil)
		if !bytes.Equal(got, cur) {
			t.Fatalf("trial %d: page reconstruction diverged", trial)
		}
	}
}

func TestDecodeRunsRejectsCorruption(t *testing.T) {
	runs := packRuns([]runSpan{{Off: 0, Data: bytes.Repeat([]byte{5}, 100)}, {Off: 200, Data: []byte{1, 2, 3}}})
	enc := EncodeRuns(nil, runs)
	if _, _, err := DecodeRuns(enc[:len(enc)-1]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, _, err := DecodeRuns(enc[:1]); err == nil {
		t.Error("header-only payload decoded without error")
	}
	// A run count far beyond anything legal must be rejected up front.
	huge := binary.AppendUvarint(nil, 1<<30)
	if _, _, err := DecodeRuns(huge); err == nil {
		t.Error("absurd run count decoded without error")
	}
	// No page limit is given, but a run must end by 65,535 bytes, the
	// furthest a Run reaches.
	for _, gap := range []uint64{math.MaxUint16 - 1, math.MaxUint16, 1 << 40} {
		src := binary.AppendUvarint([]byte{1}, gap)
		src = append(src, 2, 2, 9) // a one-byte run: its header, a literal token, the byte
		runs, _, err := DecodeRuns(src)
		if end := gap + 1; end <= math.MaxUint16 {
			if err != nil || int(runs[0].Off)+int(runs[0].Len) != math.MaxUint16 {
				t.Errorf("run ending at %d: %v, want it decoded", end, err)
			}
		} else if err == nil {
			t.Errorf("run ending at %d decoded without error", end)
		}
	}
}

func TestVClockRoundTrip(t *testing.T) {
	cases := []VClock{
		nil,
		{},
		{0, 0, 0, 0},
		{1, 2, 3},
		{0, 0, 7, 0, 0, 0, 9, 1 << 30, 0},
		make(VClock, 1024),
	}
	big := make(VClock, 1024)
	big[3] = 44
	big[1000] = 7
	cases = append(cases, big)
	for i, vt := range cases {
		enc := AppendVClock(nil, vt)
		if got := VClockEncodedSize(vt); got != len(enc) {
			t.Fatalf("case %d: VClockEncodedSize = %d, len = %d", i, got, len(enc))
		}
		dec, rest, err := DecodeVClock(enc)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if len(rest) != 0 || len(dec) != len(vt) {
			t.Fatalf("case %d: rest=%d len=%d want %d", i, len(rest), len(dec), len(vt))
		}
		for j := range vt {
			if dec[j] != vt[j] {
				t.Fatalf("case %d component %d: got %d want %d", i, j, dec[j], vt[j])
			}
		}
	}
	// A sparse 1024-node clock must cost bytes, not kilobytes.
	if got := VClockEncodedSize(big); got > 32 {
		t.Errorf("sparse 1024-component clock encodes to %d bytes", got)
	}
}

// wirePatternPages builds the (twin, cur) page pair for one of the
// named diff-wire workload patterns. The ratio caps, the allocation
// caps and the diff-wire benchmarks all share these fixtures, so the
// gated ratios measure exactly what the benchmarks do.
//
//   - "sparse": scattered clusters of word-aligned int64 counter updates
//     over a previously-written page (the common single-writer case:
//     1/8 of the page modified, word payloads with high zero-byte
//     content).
//   - "dense": bulk initialization — nearly every byte modified with
//     high-entropy values; the incompressible floor.
//   - "strided": a regular stride of float64 grid-point updates, the
//     nearest-neighbor relaxation shape (SOR, Ocean).
//   - "float": every float64 of the page nudged, so each word is one run
//     of its low bytes — the shape of most diffs the real runtime
//     flushes (a run per word, 5 to 7 bytes long, a literal each).
func wirePatternPages(pattern string, pageSize int) (twin, cur []byte) {
	twin = make([]byte, pageSize)
	cur = make([]byte, pageSize)
	switch pattern {
	case "sparse":
		for i := range twin {
			twin[i] = 0xFF // prior-epoch sentinel values
		}
		copy(cur, twin)
		for cluster := 0; cluster*512+64 <= pageSize; cluster++ {
			base := cluster * 512
			for w := 0; w < 8; w++ {
				binary.LittleEndian.PutUint64(cur[base+8*w:], uint64(cluster*8+w+1))
			}
		}
	case "dense":
		for i := range cur {
			cur[i] = byte(i)*167 + 13
		}
	case "strided":
		for w := 0; w*8+8 <= pageSize; w++ {
			v := 1.0 + float64(w)*0.25
			binary.LittleEndian.PutUint64(twin[w*8:], math.Float64bits(v))
			if w%4 == 0 {
				v += 0.5
			}
			binary.LittleEndian.PutUint64(cur[w*8:], math.Float64bits(v))
		}
	case "float":
		for w := 0; w*8+8 <= pageSize; w++ {
			v := 1.0 + float64(w)*0.37
			binary.LittleEndian.PutUint64(twin[w*8:], math.Float64bits(v))
			binary.LittleEndian.PutUint64(cur[w*8:], math.Float64bits(v*1.0001))
		}
	default:
		panic("core: unknown wire pattern " + pattern)
	}
	return twin, cur
}

// wirePatterns lists the diff-wire workload patterns in report order.
func wirePatterns() []string { return []string{"sparse", "dense", "strided", "float"} }

// TestWirePatternRatios pins the compression guarantees: ≤ 60% of raw
// on the sparse pattern, ≤ 90% on the strided one, ≤ 70% on the float
// one (its run headers shrink, its literals stay), never meaningfully
// inflating on the incompressible dense pattern.
func TestWirePatternRatios(t *testing.T) {
	const pageSize = 8 << 10
	caps := map[string]float64{"sparse": 0.60, "dense": 1.01, "strided": 0.90, "float": 0.70}
	for _, pattern := range wirePatterns() {
		twin, cur := wirePatternPages(pattern, pageSize)
		runs := MakeDiff(0, twin, cur)
		if len(runs) == 0 {
			t.Fatalf("%s: no runs", pattern)
		}
		raw := 0
		for _, r := range runs {
			raw += 8 + int(r.Len)
		}
		enc := roundTripRuns(t, runs)
		ratio := float64(len(enc)) / float64(raw)
		t.Logf("%s: raw %d encoded %d ratio %.3f", pattern, raw, len(enc), ratio)
		if cap, ok := caps[pattern]; !ok || ratio > cap {
			t.Errorf("%s: ratio %.3f exceeds cap %.2f (raw %d, encoded %d)",
				pattern, ratio, cap, raw, len(enc))
		}
	}
}

// TestWireBytesAccounting: WireBytes(false) is the legacy accounting,
// WireBytes(true) the compressed size, both as stamped from the
// creator's vector time.
func TestWireBytesAccounting(t *testing.T) {
	twin, cur := wirePatternPages("sparse", 8<<10)
	vt := VClock{3, 0, 0, 5}
	d := &Diff{Page: 1, Node: 0, Idx: 3, Runs: MakeDiff(1, twin, cur)}
	d.stamp(vt.wireBytes(), VClockEncodedSize(vt))
	payload := 0
	for _, r := range d.Runs {
		payload += int(r.Len)
	}
	if got, want := d.Bytes(), 16+vt.wireBytes()+8*len(d.Runs)+payload; got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
	if got, want := d.WireBytes(false), d.Bytes(); got != want {
		t.Errorf("WireBytes(false) = %d, want Bytes() = %d", got, want)
	}
	want := 16 + VClockEncodedSize(vt) + EncodedRunsSize(d.Runs)
	if got := d.WireBytes(true); got != want {
		t.Errorf("WireBytes(true) = %d, want %d", got, want)
	}
	if got := d.WireBytes(true); got != want {
		t.Errorf("repeated WireBytes(true) = %d, want %d", got, want)
	}
	if d.WireBytes(true) >= d.WireBytes(false) {
		t.Errorf("compressed %d not smaller than raw %d on the sparse pattern",
			d.WireBytes(true), d.WireBytes(false))
	}
}

// TestCompressDiffsEquivalence: compression changes message sizes (and
// therefore virtual timing) but must not change a single computed value
// or protocol decision. Run the same lock-counter workload both ways and
// compare final memory contents and protocol counts that are
// timing-independent.
func TestCompressDiffsEquivalence(t *testing.T) {
	run := func(compress bool) (int64, RunStats) {
		cfg := DefaultConfig(4, 2)
		cfg.CompressDiffs = compress
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := s.Alloc("counter", cfg.PageSize)
		var final int64
		runApp(t, s, func(w *Thread) {
			for r := 0; r < 5; r++ {
				w.Lock(1)
				w.WriteI64(addr, w.ReadI64(addr)+1)
				w.Unlock(1)
			}
			w.Barrier(0)
			if w.GlobalID() == 0 {
				w.Lock(1)
				final = w.ReadI64(addr)
				w.Unlock(1)
			}
		})
		return final, s.Stats()
	}
	vOff, stOff := run(false)
	vOn, stOn := run(true)
	if vOff != vOn || vOff != 40 {
		t.Fatalf("counter: off=%d on=%d want 40", vOff, vOn)
	}
	if stOn.Net.Bytes[ClassDiff] >= stOff.Net.Bytes[ClassDiff] {
		t.Errorf("compressed diff bytes %d not below raw %d",
			stOn.Net.Bytes[ClassDiff], stOff.Net.Bytes[ClassDiff])
	}
	if stOn.Net.Msgs != stOff.Net.Msgs {
		t.Errorf("message counts diverged: %v vs %v", stOn.Net.Msgs, stOff.Net.Msgs)
	}
}

// Benchmarks: the encoder/decoder on the gated wire patterns.
func benchmarkDiffEncode(b *testing.B, pattern string) {
	twin, cur := wirePatternPages(pattern, benchPageSize)
	runs := MakeDiff(0, twin, cur)
	raw := 0
	for _, r := range runs {
		raw += 8 + int(r.Len)
	}
	var dst []byte
	b.SetBytes(int64(benchPageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = EncodeRuns(dst[:0], runs)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(dst))/float64(raw), "ratio")
}

func BenchmarkDiffEncodeSparse(b *testing.B)  { benchmarkDiffEncode(b, "sparse") }
func BenchmarkDiffEncodeDense(b *testing.B)   { benchmarkDiffEncode(b, "dense") }
func BenchmarkDiffEncodeStrided(b *testing.B) { benchmarkDiffEncode(b, "strided") }

func benchmarkDiffDecode(b *testing.B, pattern string) {
	twin, cur := wirePatternPages(pattern, benchPageSize)
	enc := EncodeRuns(nil, MakeDiff(0, twin, cur))
	b.SetBytes(int64(benchPageSize))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeRuns(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffDecodeSparse(b *testing.B) { benchmarkDiffDecode(b, "sparse") }
func BenchmarkDiffDecodeDense(b *testing.B)  { benchmarkDiffDecode(b, "dense") }

// BenchmarkEncodeDiff is the real runtime's flush encoding on each wire
// pattern: the page and its twin straight to the wire. Each iteration
// also restores the twin EncodeDiff clobbered, a page-sized copy.
func BenchmarkEncodeDiff(b *testing.B) {
	for _, p := range wirePatterns() {
		b.Run(p, func(b *testing.B) {
			twin, cur := wirePatternPages(p, benchPageSize)
			scratch := make([]byte, len(twin))
			b.SetBytes(int64(benchPageSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(scratch, twin)
				EncodeDiff(nil, scratch, cur)
			}
		})
	}
}

// BenchmarkApplyRuns is the home's side of a flush: the wire applied to
// the master page.
func BenchmarkApplyRuns(b *testing.B) {
	for _, p := range wirePatterns() {
		b.Run(p, func(b *testing.B) {
			twin, cur := wirePatternPages(p, benchPageSize)
			enc := EncodeRuns(nil, MakeDiff(0, twin, cur))
			b.SetBytes(int64(benchPageSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ApplyRuns(twin, enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ensure the fixtures cover the documented shapes (a guard against
// silently editing a pattern into triviality).
func TestWirePatternShapes(t *testing.T) {
	for _, pattern := range wirePatterns() {
		twin, cur := wirePatternPages(pattern, 8<<10)
		if len(twin) != 8<<10 || len(cur) != 8<<10 {
			t.Fatalf("%s: wrong page sizes", pattern)
		}
		runs := MakeDiff(0, twin, cur)
		total := 0
		for _, r := range runs {
			total += int(r.Len)
		}
		switch pattern {
		case "sparse":
			if total < 512 || total > 2048 {
				t.Errorf("sparse modifies %d bytes, want ~1/8 of the page", total)
			}
		case "dense":
			if total < 8000 {
				t.Errorf("dense modifies only %d bytes", total)
			}
		case "strided":
			if len(runs) < 100 {
				t.Errorf("strided has %d runs, want a regular stride", len(runs))
			}
		case "float":
			if len(runs) < 1000 || total > 8*len(runs) {
				t.Errorf("float has %d runs of %d bytes, want one short run a word", len(runs), total)
			}
		}
	}
}

// TestCodecAllocCaps holds the diff kernels' allocation diet: allocs per
// call of each kernel on its fixed page pattern may not exceed the
// recorded cap. The real runtime's path — EncodeDiff at the writer,
// ApplyRuns at the home — allocates the payload and nothing more.
func TestCodecAllocCaps(t *testing.T) {
	makeDiff := func(pattern string) func() {
		twin, cur := benchPages(pattern)
		return func() { MakeDiff(0, twin, cur) }
	}
	encode := func(pattern string) func() {
		twin, cur := wirePatternPages(pattern, benchPageSize)
		runs := MakeDiff(0, twin, cur)
		var dst []byte
		return func() { dst = EncodeRuns(dst[:0], runs) }
	}
	decode := func(pattern string) func() {
		twin, cur := wirePatternPages(pattern, benchPageSize)
		enc := EncodeRuns(nil, MakeDiff(0, twin, cur))
		return func() {
			if _, _, err := DecodeRuns(enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeDiff := func(pattern string) func() {
		twin, cur := wirePatternPages(pattern, benchPageSize)
		scratch := make([]byte, len(twin))
		return func() { copy(scratch, twin); EncodeDiff(nil, scratch, cur) }
	}
	applyRuns := func(pattern string) func() {
		twin, cur := wirePatternPages(pattern, benchPageSize)
		enc := EncodeRuns(nil, MakeDiff(0, twin, cur))
		return func() {
			if err := ApplyRuns(twin, enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	apply := func() func() {
		twin, cur := benchPages("sparse")
		d := &Diff{Runs: MakeDiff(0, twin, cur)}
		dst, tw := make([]byte, benchPageSize), make([]byte, benchPageSize)
		return func() { d.Apply(dst, tw) }
	}
	for _, tc := range []struct {
		name string
		fn   func()
		cap  float64
	}{
		{"MakeDiff/clean", makeDiff("clean"), 0},
		{"MakeDiff/sparse", makeDiff("sparse"), 1}, // one pointer-free block
		{"MakeDiff/dense", makeDiff("dense"), 1},
		{"MakeDiff/alternating", makeDiff("alternating"), 1},
		{"DiffApply", apply(), 0},
		{"DiffEncode/sparse", encode("sparse"), 0}, // the xor8 trial fits the stack buffer
		{"DiffEncode/dense", encode("dense"), 0},
		{"DiffEncode/float", encode("float"), 0},
		{"DiffDecode/sparse", decode("sparse"), 1},     // one pointer-free block
		{"EncodeDiff/sparse", encodeDiff("sparse"), 1}, // the payload, nothing else
		{"EncodeDiff/dense", encodeDiff("dense"), 1},
		{"EncodeDiff/float", encodeDiff("float"), 1},
		{"ApplyRuns/sparse", applyRuns("sparse"), 0},
		{"ApplyRuns/float", applyRuns("float"), 0},
	} {
		got := testing.AllocsPerRun(20, tc.fn)
		t.Logf("%s: %.0f allocs/op (cap %.0f)", tc.name, got, tc.cap)
		if got > tc.cap {
			t.Errorf("%s: %.0f allocs/op exceeds cap %.0f", tc.name, got, tc.cap)
		}
	}
}
