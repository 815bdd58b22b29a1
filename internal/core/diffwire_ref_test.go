package core

import (
	"bytes"
	"fmt"
	"testing"
)

// The decoder DecodeRuns replaced, verbatim: one allocation per run, the
// payload grown by append. TestDecodeMatchesReference holds the slab
// decoder to its runs, its remainder and its error text.

func decodeRunsReference(src []byte) (runs []Run, rest []byte, err error) {
	count, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("core: diff run count: %w", err)
	}
	if count > 1<<20 {
		return nil, nil, fmt.Errorf("core: diff run count %d too large", count)
	}
	runs = make([]Run, 0, count)
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
		runs = append(runs, Run{Off: int32(off), Data: data})
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

// decodeCorpus is every EncodeRuns payload the package's tests build: the
// round-trip cases, the gated wire patterns at both page sizes and the
// bench patterns.
func decodeCorpus() map[string][]byte {
	corpus := map[string][]byte{
		"empty":   EncodeRuns(nil, nil),
		"one":     EncodeRuns(nil, []Run{{Off: 0, Data: []byte{1}}}),
		"tail":    EncodeRuns(nil, []Run{{Off: 8191, Data: []byte{9}}}),
		"full":    EncodeRuns(nil, []Run{{Off: 0, Data: bytes.Repeat([]byte{0xAB}, 8192)}}),
		"back2":   EncodeRuns(nil, []Run{{Off: 0, Data: []byte{1, 2}}, {Off: 2, Data: []byte{3}}}),
		"repeats": EncodeRuns(nil, []Run{{Off: 100, Data: append(bytes.Repeat([]byte{7}, 100), 1, 2, 3)}}),
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
	for i := range want {
		if got[i].Off != want[i].Off || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: run %d is (%d, %x), reference (%d, %x)",
				what, i, got[i].Off, got[i].Data, want[i].Off, want[i].Data)
		}
		if cap(got[i].Data) != len(got[i].Data) {
			t.Fatalf("%s: run %d can grow into its neighbour (len %d cap %d)",
				what, i, len(got[i].Data), cap(got[i].Data))
		}
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
