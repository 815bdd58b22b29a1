package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The decoder DecodeRuns replaced, verbatim but for the bound a Run can
// hold (no run ends past 65,535 bytes): one allocation per run, the
// payload grown by append. TestDecodeMatchesReference holds the slab
// decoder to its runs, its remainder and its error text, and
// TestApplyMatchesReference holds ApplyRuns to the page it makes.

func decodeRunsReference(src []byte) (runs []runSpan, rest []byte, err error) {
	count, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("core: diff run count: %w", err)
	}
	if count > 1<<20 {
		return nil, nil, fmt.Errorf("core: diff run count %d too large", count)
	}
	runs = make([]runSpan, 0, count)
	off := int64(0)
	for k := uint64(0); k < count; k++ {
		gap, s, err := readUvarint(src)
		if err != nil {
			return nil, nil, fmt.Errorf("core: diff run %d gap: %w", k, err)
		}
		lm, s, err := readUvarint(s)
		if err != nil {
			return nil, nil, fmt.Errorf("core: diff run %d header: %w", k, err)
		}
		length := int(lm >> 1)
		if length > 1<<24 {
			return nil, nil, fmt.Errorf("core: diff run %d length %d too large", k, length)
		}
		off += int64(gap)
		if gap > math.MaxUint16 || off+int64(length) > math.MaxUint16 {
			return nil, nil, fmt.Errorf("core: diff run %d [%d,+%d) outside the %d-byte page", k, off, length, math.MaxUint16)
		}
		data := make([]byte, 0, length)
		data, s, err = decodeRLEPayloadReference(data, s, length)
		if err != nil {
			return nil, nil, fmt.Errorf("core: diff run %d payload: %w", k, err)
		}
		if lm&1 != 0 {
			for i := 8; i < len(data); i++ {
				data[i] ^= data[i-8]
			}
		}
		runs = append(runs, runSpan{Off: int32(off), Data: data})
		off += int64(length)
		src = s
	}
	return runs, src, nil
}

func decodeRLEPayloadReference(dst, src []byte, want int) ([]byte, []byte, error) {
	for len(dst) < want {
		t, s, err := readUvarint(src)
		if err != nil {
			return nil, nil, err
		}
		src = s
		if t&1 != 0 {
			rep := int(t >> 1)
			if len(src) < 1 || len(dst)+rep > want {
				return nil, nil, fmt.Errorf("bad repeat token %d at %d/%d", t, len(dst), want)
			}
			b := src[0]
			src = src[1:]
			for k := 0; k < rep; k++ {
				dst = append(dst, b)
			}
		} else {
			lit := int(t >> 1)
			if len(src) < lit || len(dst)+lit > want {
				return nil, nil, fmt.Errorf("bad literal token %d at %d/%d", t, len(dst), want)
			}
			dst = append(dst, src[:lit]...)
			src = src[lit:]
		}
	}
	return dst, src, nil
}

// The encoder the run scanner replaced, verbatim but for names: every
// run tokenized byte at a time, sized twice and filtered into a grown
// scratch. TestEncodeMatchesReference holds EncodeRuns, EncodedRunsSize
// and EncodeDiff to its bytes.

func encodeRunsReference(dst []byte, runs []runSpan) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prevEnd := int32(0)
	var scratch []byte
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, uint64(r.Off-prevEnd))
		prevEnd = r.Off + int32(len(r.Data))

		plainLen := rlePayloadSizeReference(r.Data)
		scratch = xor8FilterReference(scratch[:0], r.Data)
		xorLen := rlePayloadSizeReference(scratch)
		if xorLen < plainLen {
			dst = binary.AppendUvarint(dst, uint64(len(r.Data))<<1|1)
			dst = appendRLEPayloadReference(dst, scratch)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(r.Data))<<1)
			dst = appendRLEPayloadReference(dst, r.Data)
		}
	}
	return dst
}

func xor8FilterReference(dst, data []byte) []byte {
	n := len(data)
	if n <= 8 {
		return append(dst, data...)
	}
	base := len(dst)
	dst = append(dst, data...)
	b := dst[base:]
	for i := n - 1; i >= 8; i-- {
		b[i] ^= b[i-8]
	}
	return dst
}

func appendRLEPayloadReference(dst, data []byte) []byte {
	i, litStart := 0, 0
	n := len(data)
	for i < n {
		j := i + 1
		for j < n && data[j] == data[i] {
			j++
		}
		if j-i >= minRepeat {
			if i > litStart {
				dst = binary.AppendUvarint(dst, uint64(i-litStart)<<1)
				dst = append(dst, data[litStart:i]...)
			}
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			dst = append(dst, data[i])
			litStart = j
		}
		i = j
	}
	if n > litStart {
		dst = binary.AppendUvarint(dst, uint64(n-litStart)<<1)
		dst = append(dst, data[litStart:]...)
	}
	return dst
}

func rlePayloadSizeReference(data []byte) int {
	return len(appendRLEPayloadReference(nil, data))
}

// codecPages is the page pairs the codec's differential tests diff: the
// wire and bench patterns, and seeded random pages — 0 to 17000 bytes,
// so past the 8 KB a stack mask covers, and at lengths off every word and
// block boundary — whose writes are word stores of small values, fills,
// high-entropy splats, single bytes and a float's low bytes.
func codecPages() map[string][2][]byte {
	pages := map[string][2][]byte{}
	for _, p := range wirePatterns() {
		for _, ps := range []int{4096, 8 << 10} {
			twin, cur := wirePatternPages(p, ps)
			pages[fmt.Sprintf("wire/%s/%d", p, ps)] = [2][]byte{twin, cur}
		}
	}
	for _, p := range []string{"clean", "sparse", "dense", "alternating"} {
		twin, cur := benchPages(p)
		pages["bench/"+p] = [2][]byte{twin, cur}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 1000, 4096, 8192, 8200, 17000}[trial%14] + trial%3
		twin := make([]byte, n)
		if trial%2 == 0 {
			rng.Read(twin)
		}
		cur := append([]byte(nil), twin...)
		for w := rng.Intn(3 + n/16); w > 0 && n > 0; w-- {
			off := rng.Intn(n)
			ln := min(n-off, 1+rng.Intn(80))
			seg := cur[off : off+ln]
			switch rng.Intn(5) {
			case 0:
				clear(seg)
				seg[0] = byte(rng.Intn(4))
			case 1:
				b := byte(rng.Intn(3))
				for i := range seg {
					seg[i] = b
				}
			case 2:
				rng.Read(seg)
			case 3:
				seg[0]++
			default:
				for i := range seg {
					if i%8 < 6 {
						seg[i] ^= byte(1 + rng.Intn(255))
					}
				}
			}
		}
		pages[fmt.Sprintf("random/%d/%d", trial, n)] = [2][]byte{twin, cur}
	}
	return pages
}

// TestEncodeMatchesReference: on every page pair of the corpus, EncodeRuns
// writes the replaced encoder's bytes for MakeDiff's runs, EncodedRunsSize
// counts them, and EncodeDiff writes its head and the same bytes from the
// page and twin alone — the run count with them, nil for a clean page,
// and the twin left as it was wherever it matched cur.
func TestEncodeMatchesReference(t *testing.T) {
	head := []byte{0xde, 0xad, 0xbe, 0xef}
	for name, pc := range codecPages() {
		twin, cur := pc[0], pc[1]
		spans := makeDiffRef(twin, cur)
		runs := packRuns(spans)
		want := encodeRunsReference(nil, spans)
		if got := EncodeRuns(nil, runs); !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeRuns = %x, reference %x", name, got, want)
		}
		if got := EncodedRunsSize(runs); got != len(want) {
			t.Fatalf("%s: EncodedRunsSize = %d, reference %d bytes", name, got, len(want))
		}
		scratch := append([]byte(nil), twin...)
		got, n := EncodeDiff(head, scratch, cur)
		switch {
		case n != len(runs):
			t.Fatalf("%s: EncodeDiff counts %d runs, reference %d", name, n, len(runs))
		case n == 0 && got != nil:
			t.Fatalf("%s: EncodeDiff of a clean page = %x, want nil", name, got)
		case n > 0 && !bytes.Equal(got, append(append([]byte(nil), head...), want...)):
			t.Fatalf("%s: EncodeDiff = %x, reference %x", name, got, want)
		}
		for i := range twin {
			if twin[i] == cur[i] && scratch[i] != twin[i] {
				t.Fatalf("%s: EncodeDiff wrote twin byte %d, which matched the page", name, i)
			}
		}
	}
}

// sameApply applies src to a copy of page both ways — ApplyRuns, and the
// replaced decoder's runs copied in when they all fit and nothing trails
// — and fails on any difference: the page's bytes, whether it failed,
// the error's text where the decoder has one (unless a run before the
// decoder's error already reached past the page), and a page written by
// a payload that failed.
func sameApply(t *testing.T, what string, page, src []byte) {
	t.Helper()
	want := append([]byte(nil), page...)
	runs, rest, wantErr := decodeRunsReference(src)
	fits := wantErr == nil && len(rest) == 0
	for _, r := range runs {
		fits = fits && r.Off >= 0 && int(r.Off)+len(r.Data) <= len(page)
	}
	if fits {
		for _, r := range runs {
			copy(want[r.Off:], r.Data)
		}
	}
	got := append([]byte(nil), page...)
	err := ApplyRuns(got, src)
	if (err == nil) != fits {
		t.Fatalf("%s: ApplyRuns error %v, reference error %v, runs fit %v", what, err, wantErr, fits)
	}
	if wantErr != nil && err.Error() != wantErr.Error() && !strings.Contains(err.Error(), "-byte page") {
		t.Fatalf("%s: ApplyRuns error %q, reference %q", what, err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: ApplyRuns made a different page (error %v)", what, err)
	}
}

// TestApplyMatchesReference: every payload of the decode corpus and the
// codec's page corpus, applied to pages of 8 KB, 4 KB and 100 bytes, plus
// every truncation, byte flip and trailing byte of the corpus payloads,
// gives the page the replaced decoder's runs give — and a payload that
// does not parse, trails bytes or reaches past the page changes nothing.
func TestApplyMatchesReference(t *testing.T) {
	corpus := decodeCorpus()
	for name, pc := range codecPages() {
		corpus["pages/"+name] = EncodeRuns(nil, packRuns(makeDiffRef(pc[0], pc[1])))
	}
	rng := rand.New(rand.NewSource(11))
	pages := [][]byte{make([]byte, 8<<10), make([]byte, 4096), make([]byte, 100)}
	for _, p := range pages {
		rng.Read(p)
	}
	for name, enc := range corpus {
		for _, page := range pages {
			sameApply(t, fmt.Sprintf("%s/page %d", name, len(page)), page, enc)
		}
		page := pages[0]
		sameApply(t, name+"/trailing", page, append(append([]byte(nil), enc...), 0))
		step := len(enc)/64 | 1
		for cut := 0; cut < len(enc); cut += step {
			sameApply(t, fmt.Sprintf("%s/cut %d", name, cut), page, enc[:cut])
		}
		bad := append([]byte(nil), enc...)
		for i := 0; i < len(enc); i += step {
			for _, x := range []byte{0x01, 0x80, 0xFF} {
				bad[i] = enc[i] ^ x
				sameApply(t, fmt.Sprintf("%s/byte %d ^ %#x", name, i, x), page, bad)
			}
			bad[i] = enc[i]
		}
	}
}

// decodeCorpus is every EncodeRuns payload the package's tests build: the
// round-trip cases, the gated wire patterns at both page sizes and the
// bench patterns.
func decodeCorpus() map[string][]byte {
	corpus := map[string][]byte{
		"empty":   EncodeRuns(nil, nil),
		"one":     EncodeRuns(nil, packRuns([]runSpan{{Off: 0, Data: []byte{1}}})),
		"tail":    EncodeRuns(nil, packRuns([]runSpan{{Off: 8191, Data: []byte{9}}})),
		"full":    EncodeRuns(nil, packRuns([]runSpan{{Off: 0, Data: bytes.Repeat([]byte{0xAB}, 8192)}})),
		"back2":   EncodeRuns(nil, packRuns([]runSpan{{Off: 0, Data: []byte{1, 2}}, {Off: 2, Data: []byte{3}}})),
		"repeats": EncodeRuns(nil, packRuns([]runSpan{{Off: 100, Data: append(bytes.Repeat([]byte{7}, 100), 1, 2, 3)}})),
	}
	for _, p := range wirePatterns() {
		for _, ps := range []int{4096, 8 << 10} {
			twin, cur := wirePatternPages(p, ps)
			corpus[fmt.Sprintf("wire/%s/%d", p, ps)] = EncodeRuns(nil, MakeDiff(0, twin, cur))
		}
	}
	for _, p := range []string{"sparse", "dense", "alternating"} {
		twin, cur := benchPages(p)
		corpus["bench/"+p] = EncodeRuns(nil, MakeDiff(0, twin, cur))
	}
	return corpus
}

// sameDecode decodes src both ways and fails on any difference: the runs
// byte for byte, the remainder, or the error's text.
func sameDecode(t *testing.T, what string, src []byte) {
	t.Helper()
	want, wantRest, wantErr := decodeRunsReference(src)
	got, rest, err := DecodeRuns(src)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, err, wantErr)
	}
	if !bytes.Equal(rest, wantRest) || (rest == nil) != (wantRest == nil) {
		t.Fatalf("%s: %d bytes left, reference %d", what, len(rest), len(wantRest))
	}
	if len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: %d runs, reference %d", what, len(got), len(want))
	}
	for i, g := range spansOf(got) {
		if g.Off != want[i].Off || !bytes.Equal(g.Data, want[i].Data) {
			t.Fatalf("%s: run %d is (%d, %x), reference (%d, %x)",
				what, i, g.Off, g.Data, want[i].Off, want[i].Data)
		}
	}
	if !packedTight(got) {
		t.Fatalf("%s: %d runs in a block of %d Runs, want room for their bytes and no more", what, len(got), cap(got))
	}
}

// TestDecodeMatchesReference: on every payload of the corpus, every
// truncation of it, the payload with bytes trailing, and the payload with
// any one byte changed (three ways), the slab decoder returns what the
// per-run decoder returned — or fails with the same words.
func TestDecodeMatchesReference(t *testing.T) {
	for name, enc := range decodeCorpus() {
		sameDecode(t, name, enc)
		sameDecode(t, name+"/overlong", append(append([]byte(nil), enc...), 0xFF, 0, 7))
		step := len(enc)/256 | 1 // long payloads: some 256 cuts and bytes, odd stride
		for cut := 0; cut < len(enc); cut += step {
			sameDecode(t, fmt.Sprintf("%s/cut %d", name, cut), enc[:cut])
		}
		bad := append([]byte(nil), enc...)
		for i := 0; i < len(enc); i += step {
			for _, x := range []byte{0x01, 0x80, 0xFF} {
				bad[i] = enc[i] ^ x
				sameDecode(t, fmt.Sprintf("%s/byte %d ^ %#x", name, i, x), bad)
			}
			bad[i] = enc[i]
		}
	}
}
