package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestMakeDiffEmpty(t *testing.T) {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	if runs := MakeDiff(0, twin, cur); runs != nil {
		t.Errorf("identical pages produced %d runs, want none", len(runs))
	}
}

func TestMakeDiffSingleRun(t *testing.T) {
	twin := make([]byte, 128)
	cur := make([]byte, 128)
	copy(cur[10:], []byte{1, 2, 3})
	runs := MakeDiff(0, twin, cur)
	if len(runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(runs))
	}
	if got := spansOf(runs)[0]; got.Off != 10 || !bytes.Equal(got.Data, []byte{1, 2, 3}) {
		t.Errorf("run = %+v, want off=10 data=[1 2 3]", got)
	}
}

func TestMakeDiffMultipleRuns(t *testing.T) {
	twin := make([]byte, 64)
	cur := make([]byte, 64)
	cur[0] = 9
	cur[31] = 9
	cur[63] = 9
	runs := MakeDiff(0, twin, cur)
	if len(runs) != 3 {
		t.Fatalf("runs = %d, want 3", len(runs))
	}
}

func TestDiffApplyRoundTrip(t *testing.T) {
	// Property: applying MakeDiff(twin, cur) to a copy of twin yields cur.
	f := func(seed []byte) bool {
		const n = 256
		twin := make([]byte, n)
		cur := make([]byte, n)
		for i, b := range seed {
			twin[i%n] = b
		}
		copy(cur, twin)
		// Mutate cur at positions derived from the seed.
		for i, b := range seed {
			if b%3 == 0 {
				cur[(i*7)%n] ^= b | 1
			}
		}
		d := &Diff{Runs: MakeDiff(0, twin, cur)}
		got := make([]byte, n)
		copy(got, twin)
		d.Apply(got, nil)
		return bytes.Equal(got, cur)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffApplyToTwin(t *testing.T) {
	twin := make([]byte, 32)
	dst := make([]byte, 32)
	d := &Diff{Runs: packRuns([]runSpan{{Off: 4, Data: []byte{7, 8}}})}
	d.Apply(dst, twin)
	if dst[4] != 7 || twin[4] != 7 || dst[5] != 8 || twin[5] != 8 {
		t.Error("Apply did not update both destination and twin")
	}
}

// runSpan is a run as its offset and its own bytes: the form the
// references build and hand-written cases are written in.
type runSpan struct {
	Off  int32
	Data []byte
}

// packRuns lays spans out as MakeDiff lays out runs, the headers and
// their bytes in one block (newRuns): the one way a test builds runs
// whose bytes are read.
func packRuns(spans []runSpan) []Run {
	total := 0
	for _, s := range spans {
		total += len(s.Data)
	}
	runs, data := newRuns(len(spans), total)
	for k, s := range spans {
		runs[k] = Run{Off: uint16(s.Off), Len: uint16(len(s.Data))}
		data = data[copy(data, s.Data):]
	}
	return runs
}

// spansOf reads runs and their bytes back as spans.
func spansOf(runs []Run) []runSpan {
	data := runBytes(runs)
	spans := make([]runSpan, len(runs))
	for k, r := range runs {
		spans[k] = runSpan{Off: int32(r.Off), Data: data[:r.Len:r.Len]}
		data = data[r.Len:]
	}
	return spans
}

// packedTight reports whether runs' block holds their bytes and nothing
// more: one header's worth of room per 8 bytes of data, rounded up.
func packedTight(runs []Run) bool {
	total := 0
	for _, r := range runs {
		total += int(r.Len)
	}
	return cap(runs)-len(runs) == (total+runSize-1)/runSize
}

// makeDiffRef is the byte-at-a-time reference implementation MakeDiff's
// word-strided kernel must match exactly.
func makeDiffRef(twin, cur []byte) []runSpan {
	var runs []runSpan
	n := len(cur)
	i := 0
	for i < n {
		if twin[i] == cur[i] {
			i++
			continue
		}
		start := i
		for i < n && twin[i] != cur[i] {
			i++
		}
		data := make([]byte, i-start)
		copy(data, cur[start:i])
		runs = append(runs, runSpan{Off: int32(start), Data: data})
	}
	return runs
}

// runsEqual reports whether runs hold want's offsets and bytes.
func runsEqual(runs []Run, want []runSpan) bool {
	got := spansOf(runs)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Off != want[i].Off || !bytes.Equal(got[i].Data, want[i].Data) {
			return false
		}
	}
	return true
}

// TestMakeDiffMatchesReference is the golden test for the word-strided
// kernel: identical run boundaries and contents to the byte-wise scan on
// random pages, plus handcrafted word-boundary edge cases.
func TestMakeDiffMatchesReference(t *testing.T) {
	// Edge cases around 8-byte word boundaries and non-multiple-of-8
	// lengths.
	cases := [][2][]byte{}
	addCase := func(n int, mutate func(cur []byte)) {
		twin := make([]byte, n)
		cur := make([]byte, n)
		mutate(cur)
		cases = append(cases, [2][]byte{twin, cur})
	}
	addCase(64, func(cur []byte) {})                         // clean page
	addCase(64, func(cur []byte) { cur[0] = 1 })             // run at start
	addCase(64, func(cur []byte) { cur[63] = 1 })            // run at end
	addCase(64, func(cur []byte) { cur[7] = 1; cur[8] = 1 }) // run across a word boundary
	addCase(64, func(cur []byte) {
		for i := range cur {
			cur[i] = byte(i) | 1 // every byte differs
		}
	})
	addCase(64, func(cur []byte) {
		for i := 0; i < 64; i += 2 {
			cur[i] = 1 // alternating differ/match defeats whole-word runs
		}
	})
	for _, runs := range []int{21, 22, 23, 512} {
		addCase(3*runs+5, func(cur []byte) {
			for i := 0; i < runs; i++ {
				cur[3*i+1] = 1 // runs in every block, and one across each block boundary
			}
		})
	}
	addCase(200, func(cur []byte) {
		for i := 60; i < 140; i++ {
			cur[i] = 1 // one run over three blocks
		}
	})
	addCase(13, func(cur []byte) { cur[12] = 1 }) // tail shorter than a word
	addCase(7, func(cur []byte) { cur[3] = 1 })   // page shorter than a word
	addCase(1, func(cur []byte) { cur[0] = 1 })
	addCase(0, func(cur []byte) {})
	for i, c := range cases {
		twin, cur := c[0], c[1]
		got, want := MakeDiff(0, twin, cur), makeDiffRef(twin, cur)
		if !runsEqual(got, want) {
			t.Errorf("case %d: MakeDiff = %+v, want %+v", i, spansOf(got), want)
		}
		if !packedTight(got) {
			t.Errorf("case %d: %d runs in a block of %d Runs, want room for their bytes and no more", i, len(got), cap(got))
		}
	}

	// Property check over pseudo-random sparse and dense patterns.
	f := func(seed []byte, dense bool) bool {
		const n = 259 // deliberately not a multiple of 8
		twin := make([]byte, n)
		cur := make([]byte, n)
		for i, b := range seed {
			twin[i%n] = b
		}
		copy(cur, twin)
		step := 31
		if dense {
			step = 2
		}
		for i, b := range seed {
			cur[(i*step)%n] ^= b
		}
		return runsEqual(MakeDiff(0, twin, cur), makeDiffRef(twin, cur))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffOverlaps(t *testing.T) {
	a := &Diff{Runs: []Run{{Off: 0, Len: 8}}}
	b := &Diff{Runs: []Run{{Off: 8, Len: 8}}}
	c := &Diff{Runs: []Run{{Off: 4, Len: 8}}}
	if a.Overlaps(b) {
		t.Error("adjacent diffs reported overlapping")
	}
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("overlapping diffs reported disjoint")
	}
}

// TestDiffOverlapsAdjacent pins the aEnd == b.Off boundary: runs that
// touch but share no byte must not report an overlap, in either order.
func TestDiffOverlapsAdjacent(t *testing.T) {
	a := &Diff{Runs: []Run{{Off: 0, Len: 16}}} // [0,16)
	b := &Diff{Runs: []Run{{Off: 16, Len: 8}}} // [16,24)
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("adjacent-but-not-overlapping runs reported overlapping")
	}
	c := &Diff{Runs: []Run{{Off: 15, Len: 2}}} // [15,17) overlaps both
	if !a.Overlaps(c) || !b.Overlaps(c) {
		t.Error("one-byte overlap missed")
	}
}

// TestDiffOverlapsMergeWalk exercises the two-pointer merge with
// interleaved multi-run diffs, including a late overlap after several
// disjoint leading runs on both sides.
func TestDiffOverlapsMergeWalk(t *testing.T) {
	mk := func(spans ...[2]uint16) *Diff {
		d := &Diff{}
		for _, s := range spans {
			d.Runs = append(d.Runs, Run{Off: s[0], Len: s[1] - s[0]})
		}
		return d
	}
	a := mk([2]uint16{0, 4}, [2]uint16{10, 14}, [2]uint16{20, 24}, [2]uint16{40, 48})
	b := mk([2]uint16{4, 8}, [2]uint16{14, 18}, [2]uint16{24, 28})
	if a.Overlaps(b) || b.Overlaps(a) {
		t.Error("interleaved disjoint diffs reported overlapping")
	}
	c := mk([2]uint16{4, 8}, [2]uint16{14, 18}, [2]uint16{47, 50}) // last run hits a's last
	if !a.Overlaps(c) || !c.Overlaps(a) {
		t.Error("late overlap missed by merge walk")
	}
	empty := &Diff{}
	if a.Overlaps(empty) || empty.Overlaps(a) {
		t.Error("empty diff reported overlapping")
	}
}

// TestDiffOverlapsMatchesQuadratic cross-checks the merge walk against the
// all-pairs reference on random ascending run lists.
func TestDiffOverlapsMatchesQuadratic(t *testing.T) {
	quadratic := func(d, other *Diff) bool {
		for _, a := range d.Runs {
			for _, b := range other.Runs {
				aEnd, bEnd := int(a.Off)+int(a.Len), int(b.Off)+int(b.Len)
				if int(a.Off) < bEnd && int(b.Off) < aEnd {
					return true
				}
			}
		}
		return false
	}
	f := func(aSeed, bSeed []byte) bool {
		mk := func(seed []byte) *Diff {
			d := &Diff{}
			off := uint16(0)
			for _, b := range seed {
				off += uint16(b%37) + 1
				n := uint16(b%11) + 1
				d.Runs = append(d.Runs, Run{Off: off, Len: n})
				off += n
			}
			return d
		}
		a, b := mk(aSeed), mk(bSeed)
		return a.Overlaps(b) == quadratic(a, b) && b.Overlaps(a) == quadratic(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDiffBytes(t *testing.T) {
	d := &Diff{Runs: []Run{{Off: 0, Len: 100}}}
	d.stamp(NewVClock(4).wireBytes(), 0)
	want := 16 + 16 + 8 + 100
	if got := d.Bytes(); got != want {
		t.Errorf("Bytes() = %d, want %d", got, want)
	}
}

func TestConcurrentDiffMergeCommutes(t *testing.T) {
	// Property: two diffs over disjoint regions applied in either order
	// produce the same page (multi-writer merge correctness).
	f := func(aData, bData []byte) bool {
		const n = 128
		base := make([]byte, n)
		a := &Diff{Runs: MakeDiff(0, base, pageWith(base, 0, aData, n/2))}
		b := &Diff{Runs: MakeDiff(0, base, pageWith(base, n/2, bData, n/2))}
		p1 := make([]byte, n)
		a.Apply(p1, nil)
		b.Apply(p1, nil)
		p2 := make([]byte, n)
		b.Apply(p2, nil)
		a.Apply(p2, nil)
		return bytes.Equal(p1, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// pageWith returns a copy of base with data written at off (clamped to
// limit bytes).
func pageWith(base []byte, off int, data []byte, limit int) []byte {
	p := make([]byte, len(base))
	copy(p, base)
	if len(data) > limit {
		data = data[:limit]
	}
	copy(p[off:], data)
	return p
}

// TestRunScanMatchesByteLoop: the scanner's runs, in both senses, and its
// count — with and without a kept mask, and from pages shorter and longer
// than the mask — are what a byte loop finds, on seeded random pairs of
// every length to 300 bytes and some past 8 KB, equal and differing bytes
// mixed at densities from all-equal to all-different.
func TestRunScanMatchesByteLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 1200; trial++ {
		n := trial % 301
		if trial%100 == 99 {
			n = 8<<10 + rng.Intn(200)
		}
		a := make([]byte, n)
		rng.Read(a)
		b := append([]byte(nil), a...)
		density := rng.Intn(5)
		for i := range b {
			if rng.Intn(4) < density {
				b[i]++
			}
		}
		for _, eq := range []bool{false, true} {
			var want [][2]int
			for i := 0; i < n; {
				if (a[i] == b[i]) != eq {
					i++
					continue
				}
				j := i
				for j < n && (a[j] == b[j]) == eq {
					j++
				}
				want = append(want, [2]int{i, j})
				i = j
			}
			total := 0
			for _, r := range want {
				total += r[1] - r[0]
			}
			for _, mask := range [][]uint64{nil, make([]uint64, maskWords)} {
				s := newRunScan(a, b, eq, mask)
				if mask != nil {
					if runs, bytes := s.count(); runs != len(want) || bytes != total {
						t.Fatalf("trial %d eq %v: count %d runs %d bytes, want %d and %d", trial, eq, runs, bytes, len(want), total)
					}
				}
				for k := 0; ; k++ {
					start, end := s.next()
					if start == end {
						if start != n || k != len(want) {
							t.Fatalf("trial %d eq %v: ended at %d after %d runs, want %d after %d", trial, eq, start, k, n, len(want))
						}
						break
					}
					if k >= len(want) || want[k] != [2]int{start, end} {
						t.Fatalf("trial %d eq %v: run %d is [%d,%d), want %v", trial, eq, k, start, end, want)
					}
				}
			}
		}
	}
}

// TestRunLayoutNoPointer: a Run is 4 bytes and holds no pointer, so a
// diff's block is one the collector never scans.
func TestRunLayoutNoPointer(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
			return true
		case reflect.Array:
			return pointerFree(typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if !pointerFree(typ.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	if typ := reflect.TypeOf(Run{}); !pointerFree(typ) || typ.Size() != 4 || runSize != 4 {
		t.Fatalf("Run is %d bytes (runSize %d), pointer-free %v; want 4 bytes and no pointer", typ.Size(), runSize, pointerFree(typ))
	}
}

// layoutPages is the codec's page corpus plus the edges of the layout: a
// one-byte page, a whole page one run, and runs whose bytes end off a
// word.
func layoutPages() map[string][2][]byte {
	pages := codecPages()
	add := func(name string, n int, write func(cur []byte)) {
		twin, cur := make([]byte, n), make([]byte, n)
		write(cur)
		pages["layout/"+name] = [2][]byte{twin, cur}
	}
	add("one-byte", 1, func(cur []byte) { cur[0] = 1 })
	add("full", 8<<10, func(cur []byte) {
		for i := range cur {
			cur[i] = byte(i) | 1
		}
	})
	for _, n := range []int{3, 13, 1001} {
		add(fmt.Sprintf("odd/%d", n), n, func(cur []byte) {
			for i := 0; i < n; i += 5 {
				cur[i], cur[(i+1)%n] = 7, 9 // runs of 1 and 2 bytes
			}
		})
	}
	return pages
}

// TestRunLayoutRoundTrip: on every page pair, MakeDiff's runs and the
// runs DecodeRuns makes of their encoding are the byte-at-a-time scan's,
// packed tight, and applying either to the twin gives the page.
func TestRunLayoutRoundTrip(t *testing.T) {
	for name, pc := range layoutPages() {
		twin, cur := pc[0], pc[1]
		want := makeDiffRef(twin, cur)
		made := MakeDiff(0, twin, cur)
		dec, rest, err := DecodeRuns(EncodeRuns(nil, made))
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: DecodeRuns left %d bytes, error %v", name, len(rest), err)
		}
		for how, runs := range map[string][]Run{"MakeDiff": made, "DecodeRuns": dec} {
			if !runsEqual(runs, want) || !packedTight(runs) {
				t.Fatalf("%s: %s = %+v in a block of %d, want %+v packed tight", name, how, spansOf(runs), cap(runs), want)
			}
			page, tw := append([]byte(nil), twin...), append([]byte(nil), twin...)
			(&Diff{Runs: runs}).Apply(page, tw)
			if !bytes.Equal(page, cur) || !bytes.Equal(tw, cur) {
				t.Fatalf("%s: applying %s's runs did not make the page", name, how)
			}
		}
	}
}

// layoutSink keeps what a test allocates live past the compiler.
var layoutSink []Run

// TestRunLayoutSurvivesGC: 10k diffs, made and decoded, kept only by
// their runs through collections and a heap churned with other bytes,
// still apply to their pages — the block keeps its bytes alive.
func TestRunLayoutSurvivesGC(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const diffs, pageSize = 10000, 200
	twins, curs := make([][]byte, diffs), make([][]byte, diffs)
	runs := make([][]Run, diffs)
	for i := range runs {
		twin := make([]byte, pageSize)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		for w := 1 + rng.Intn(20); w > 0; w-- {
			cur[rng.Intn(pageSize)]++
		}
		twins[i], curs[i] = twin, cur
		runs[i] = MakeDiff(0, twin, cur)
		if i%2 == 1 {
			dec, _, err := DecodeRuns(EncodeRuns(nil, runs[i]))
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = dec
		}
	}
	for round := 0; round < 3; round++ {
		runtime.GC()
		for i := 0; i < diffs; i++ {
			layoutSink = make([]Run, 1+i%64)
			for k := range layoutSink {
				layoutSink[k] = Run{Off: math.MaxUint16, Len: math.MaxUint16}
			}
		}
	}
	for i, r := range runs {
		page := append([]byte(nil), twins[i]...)
		(&Diff{Runs: r}).Apply(page, nil)
		if !bytes.Equal(page, curs[i]) {
			t.Fatalf("diff %d no longer makes its page after a collection", i)
		}
	}
}

// TestRunLayoutHandBuiltPanics: runs built without their bytes behind
// them have none to read: Apply, EncodeRuns and EncodedRunsSize panic on
// a bounds check rather than read past the headers.
func TestRunLayoutHandBuiltPanics(t *testing.T) {
	bare := []Run{{Off: 0, Len: 4}, {Off: 8, Len: 4}}
	for name, use := range map[string]func(){
		"Apply":           func() { (&Diff{Runs: bare}).Apply(make([]byte, 64), nil) },
		"EncodeRuns":      func() { EncodeRuns(nil, bare) },
		"EncodedRunsSize": func() { EncodedRunsSize(bare) },
	} {
		func() {
			defer func() {
				if _, ok := recover().(runtime.Error); !ok {
					t.Errorf("%s read hand-built runs without a runtime panic", name)
				}
			}()
			use()
		}()
	}
}
