package core

import (
	"encoding/binary"
	"fmt"
)

// Compressed diff encoding. Diffs dominate the DSM's coherence traffic
// (the paper classes all data-carrying messages as "diff messages"), and
// their natural encoding — 8 bytes of header plus raw payload per run —
// wastes most of its bytes on two kinds of redundancy: run headers carry
// absolute 32-bit offsets and lengths when pages are only 8 KB, and
// payloads are word-granular application data (counters, float64 grids)
// whose bytes repeat heavily. The wire form here addresses both:
//
//	uvarint(#runs)
//	per run:  uvarint(gap)              start − end of previous run
//	          uvarint(len<<1 | xor8)    payload length and filter flag
//	          RLE token stream          over the (possibly filtered) payload
//
// RLE tokens: uvarint(t) with t&1==1 meaning "next byte repeats t>>1
// times" and t&1==0 meaning "t>>1 literal bytes follow". The optional
// xor8 prefilter replaces byte i (i ≥ 8) with data[i]^data[i−8] before
// tokenizing, turning slowly-varying word streams into zero runs; the
// encoder tries the run both ways and keeps the smaller, so the flag
// costs one bit and never inflates. The encoding is self-contained —
// nothing is delta'd against receiver state — so decode works at any
// node regardless of its page contents, and DecodeRuns returns exactly
// the Run form MakeDiff produced: Apply semantics are untouched.
//
// The simulator uses the encoded size for netsim byte accounting when
// Config.CompressDiffs is set (default off: byte-identical legacy
// accounting); the real transport in internal/rt frames diff flushes
// with this encoding unconditionally, since nothing there is gated on
// byte-identity.

// minRepeat is the run length at which a repeat token beats a literal:
// a repeat costs ≤ 3 bytes (token + byte) while 4 literal bytes cost 4,
// plus potentially splitting a literal group.
const minRepeat = 4

// EncodeRuns appends the compressed encoding of runs to dst and returns
// the extended slice. Runs must be ascending, non-overlapping page
// offsets — exactly what MakeDiff emits.
func EncodeRuns(dst []byte, runs []Run) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prevEnd := int32(0)
	var scratch []byte
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, uint64(r.Off-prevEnd))
		prevEnd = r.Off + int32(len(r.Data))

		plainLen := rlePayloadSize(r.Data)
		scratch = xor8Filter(scratch[:0], r.Data)
		xorLen := rlePayloadSize(scratch)
		if xorLen < plainLen {
			dst = binary.AppendUvarint(dst, uint64(len(r.Data))<<1|1)
			dst = appendRLEPayload(dst, scratch)
		} else {
			dst = binary.AppendUvarint(dst, uint64(len(r.Data))<<1)
			dst = appendRLEPayload(dst, r.Data)
		}
	}
	return dst
}

// EncodedRunsSize reports len(EncodeRuns(nil, runs)) without building
// the encoding.
func EncodedRunsSize(runs []Run) int {
	n := uvarintSize(uint64(len(runs)))
	prevEnd := int32(0)
	var scratch []byte
	for _, r := range runs {
		n += uvarintSize(uint64(r.Off - prevEnd))
		prevEnd = r.Off + int32(len(r.Data))
		n += uvarintSize(uint64(len(r.Data)) << 1)
		plainLen := rlePayloadSize(r.Data)
		scratch = xor8Filter(scratch[:0], r.Data)
		if xorLen := rlePayloadSize(scratch); xorLen < plainLen {
			n += xorLen
		} else {
			n += plainLen
		}
	}
	return n
}

// DecodeRuns parses an EncodeRuns payload back into runs, returning the
// unconsumed remainder of src. It walks the payload twice: a validating
// pass that allocates nothing and sizes the result, then a pass that
// cannot fail and cuts every Run.Data from one slab — two allocations
// however many runs there are, the shape MakeDiff returns.
func DecodeRuns(src []byte) (runs []Run, rest []byte, err error) {
	count, total, _, err := walkRuns(src, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	runs = make([]Run, count)
	_, _, rest, _ = walkRuns(src, runs, make([]byte, total))
	return runs, rest, nil
}

// walkRuns parses an EncodeRuns payload. With runs nil it validates the
// payload and reports the run count and the data bytes of all runs; given
// runs and a slab of those sizes it fills them in as well.
func walkRuns(src []byte, runs []Run, slab []byte) (count, total int, rest []byte, err error) {
	c, src, err := readUvarint(src)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("core: diff run count: %w", err)
	}
	if c > 1<<20 {
		return 0, 0, nil, fmt.Errorf("core: diff run count %d too large", c)
	}
	off := int64(0)
	for k := 0; k < int(c); k++ {
		gap, s, err := readUvarint(src)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("core: diff run %d gap: %w", k, err)
		}
		lm, s, err := readUvarint(s)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("core: diff run %d header: %w", k, err)
		}
		length := int(lm >> 1)
		if length > 1<<24 {
			return 0, 0, nil, fmt.Errorf("core: diff run %d length %d too large", k, length)
		}
		off += int64(gap)
		var data []byte
		if runs != nil {
			data, slab = slab[:length:length], slab[length:]
		}
		if src, err = expandRLE(data, s, length); err != nil {
			return 0, 0, nil, fmt.Errorf("core: diff run %d payload: %w", k, err)
		}
		if runs != nil {
			if lm&1 != 0 {
				for i := 8; i < length; i++ {
					data[i] ^= data[i-8]
				}
			}
			runs[k] = Run{Off: int32(off), Data: data}
		}
		off += int64(length)
		total += length
	}
	return int(c), total, src, nil
}

// xor8Filter appends the xor8-prefiltered form of data to dst: the first
// 8 bytes verbatim, then each byte xored with the byte one word earlier.
func xor8Filter(dst, data []byte) []byte {
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

// appendRLEPayload tokenizes data: repeat tokens for byte runs of at
// least minRepeat, literal groups otherwise.
func appendRLEPayload(dst, data []byte) []byte {
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

// rlePayloadSize reports len(appendRLEPayload(nil, data)) without
// building it.
func rlePayloadSize(data []byte) int {
	size := 0
	i, litStart := 0, 0
	n := len(data)
	for i < n {
		j := i + 1
		for j < n && data[j] == data[i] {
			j++
		}
		if j-i >= minRepeat {
			if i > litStart {
				size += uvarintSize(uint64(i-litStart)<<1) + (i - litStart)
			}
			size += uvarintSize(uint64(j-i)<<1|1) + 1
			litStart = j
		}
		i = j
	}
	if n > litStart {
		size += uvarintSize(uint64(n-litStart)<<1) + (n - litStart)
	}
	return size
}

// expandRLE expands tokens from src until want bytes have been produced
// and returns what follows them. The bytes go to dst, which holds exactly
// want; a nil dst only checks the tokens.
func expandRLE(dst, src []byte, want int) ([]byte, error) {
	for at := 0; at < want; {
		t, s, err := readUvarint(src)
		if err != nil {
			return nil, err
		}
		src = s
		n := int(t >> 1)
		if t&1 != 0 {
			if len(src) < 1 || n > want-at {
				return nil, fmt.Errorf("bad repeat token %d at %d/%d", t, at, want)
			}
			if dst != nil {
				seg, b := dst[at:at+n], src[0]
				for i := range seg {
					seg[i] = b
				}
			}
			src = src[1:]
		} else {
			if len(src) < n || n > want-at {
				return nil, fmt.Errorf("bad literal token %d at %d/%d", t, at, want)
			}
			if dst != nil {
				copy(dst[at:], src[:n])
			}
			src = src[n:]
		}
		at += n
	}
	return src, nil
}

// AppendVClock appends a compact encoding of vt to dst: uvarint(length),
// then tokens covering the components in order — uvarint(zn<<1|1) skips
// zn zero components, uvarint(cnt<<1) is followed by cnt uvarint values.
// Vector times at scale are almost entirely zeros (a node has synced
// with few peers), so a 1024-component clock costs a few bytes instead
// of 4 KB.
func AppendVClock(dst []byte, vt VClock) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vt)))
	i, n := 0, len(vt)
	for i < n {
		j := i
		for j < n && vt[j] == 0 {
			j++
		}
		if j > i {
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1|1)
			i = j
		}
		for j < n && vt[j] != 0 {
			j++
		}
		if j > i {
			dst = binary.AppendUvarint(dst, uint64(j-i)<<1)
			for ; i < j; i++ {
				dst = binary.AppendUvarint(dst, uint64(uint32(vt[i])))
			}
		}
	}
	return dst
}

// VClockEncodedSize reports len(AppendVClock(nil, vt)) without building
// it.
func VClockEncodedSize(vt VClock) int {
	n := uvarintSize(uint64(len(vt)))
	i, l := 0, len(vt)
	for i < l {
		j := i
		for j < l && vt[j] == 0 {
			j++
		}
		if j > i {
			n += uvarintSize(uint64(j-i)<<1 | 1)
			i = j
		}
		for j < l && vt[j] != 0 {
			j++
		}
		if j > i {
			n += uvarintSize(uint64(j-i) << 1)
			for ; i < j; i++ {
				n += uvarintSize(uint64(uint32(vt[i])))
			}
		}
	}
	return n
}

// DecodeVClock parses an AppendVClock payload, returning the clock and
// the unconsumed remainder of src.
func DecodeVClock(src []byte) (VClock, []byte, error) {
	length, src, err := readUvarint(src)
	if err != nil {
		return nil, nil, fmt.Errorf("core: vclock length: %w", err)
	}
	if length > 1<<20 {
		return nil, nil, fmt.Errorf("core: vclock length %d too large", length)
	}
	vt := NewVClock(int(length))
	i := 0
	for i < int(length) {
		t, s, err := readUvarint(src)
		if err != nil {
			return nil, nil, fmt.Errorf("core: vclock token: %w", err)
		}
		src = s
		cnt := int(t >> 1)
		if i+cnt > int(length) {
			return nil, nil, fmt.Errorf("core: vclock token overruns %d+%d/%d", i, cnt, length)
		}
		if t&1 != 0 {
			i += cnt // zeros
			continue
		}
		for k := 0; k < cnt; k++ {
			v, s, err := readUvarint(src)
			if err != nil {
				return nil, nil, fmt.Errorf("core: vclock value: %w", err)
			}
			src = s
			vt[i] = int32(uint32(v))
			i++
		}
	}
	return vt, src, nil
}

// uvarintSize reports the encoded size of v.
func uvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint consumes one uvarint from src. The one-byte case, nearly
// every RLE token and run header, is small enough to inline.
func readUvarint(src []byte) (uint64, []byte, error) {
	if len(src) > 0 && src[0] < 0x80 {
		return uint64(src[0]), src[1:], nil
	}
	return readLongUvarint(src)
}

func readLongUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("truncated or malformed uvarint")
	}
	return v, src[n:], nil
}

// WireBytes reports the diff's payload size on the simulated wire: the
// legacy fixed-width accounting when compress is false (16-byte header,
// 4 bytes per vector-clock component, 8 bytes per run header plus raw
// data), or the compressed encoding's exact size when true. The
// compressed size is computed once and cached; callers must be on the
// diff's creator node (the only node that serves it), which keeps the
// cache single-writer under the parallel engine.
func (d *Diff) WireBytes(compress bool) int {
	if !compress {
		return d.Bytes()
	}
	if d.encSize == 0 {
		d.encSize = int32(16 + VClockEncodedSize(d.VT) + EncodedRunsSize(d.Runs))
	}
	return int(d.encSize)
}
