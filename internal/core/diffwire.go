package core

import (
	"encoding/binary"
	"fmt"
	"math"
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
// the runs MakeDiff produced, in the same one block. Every
// pass over run bytes — finding the runs, finding the repeat groups,
// the filter and its inverse — goes a word at a time (runScan, diff.go).
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
// offsets — exactly what MakeDiff emits. A run's xor8 trial is built in
// a stack buffer while it fits.
func EncodeRuns(dst []byte, runs []Run) []byte {
	var buf [512]byte
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	prevEnd := 0
	data := runBytes(runs)
	for _, r := range runs {
		off, n := int(r.Off), int(r.Len)
		dst = binary.AppendUvarint(dst, uint64(off-prevEnd))
		prevEnd = off + n
		b := data[:n]
		data = data[n:]
		dst = appendRun(dst, b, xor8Filter(buf[:], b))
	}
	return dst
}

// EncodeDiff returns head followed by EncodeRuns(nil, MakeDiff(0, twin,
// cur)) in one new buffer, and the number of runs — nil and 0 when twin
// equals cur. The runs are never built: the scanner's count sizes the
// buffer, its walk encodes each run straight from cur, and a run's xor8
// trial is built in twin's bytes of the run, behind the walk. twin is
// clobbered where it differed from cur.
func EncodeDiff(head, twin, cur []byte) ([]byte, int) {
	var mask [maskWords]uint64
	s := newRunScan(twin, cur, false, mask[:])
	n, total := s.count()
	if n == 0 {
		return nil, 0
	}
	// A uvarint below 2^21 is at most three bytes, and the RLE form of a
	// run under 8 KB at most three longer than its data.
	dst := append(make([]byte, 0, len(head)+3+10*n+total), head...)
	dst = binary.AppendUvarint(dst, uint64(n))
	prevEnd := 0
	for k := 0; k < n; k++ {
		start, end := s.next()
		dst = binary.AppendUvarint(dst, uint64(start-prevEnd))
		prevEnd = end
		dst = appendRun(dst, cur[start:end], xor8Filter(twin[start:end], cur[start:end]))
	}
	return dst, n
}

// appendRun appends one run's header and payload: the RLE of data, or of
// filt — data's xor8-filtered form, nil when the filter cannot help —
// when that is strictly smaller. The plain form is written first and
// kept unless the filtered one's size beats it, so a run the filter does
// not shrink is tokenized once and sized once.
func appendRun(dst, data, filt []byte) []byte {
	at := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(data))<<1)
	if filt == nil && !mayRepeat(data) {
		// The common run, a word or less of a float's low bytes: one
		// literal, whose token is the header over again.
		dst = binary.AppendUvarint(dst, uint64(len(data))<<1)
		return append(dst, data...)
	}
	body := len(dst)
	dst, size := rle(dst, data, true)
	if filt != nil {
		if _, fsize := rle(nil, filt, false); fsize < size {
			dst[at] |= 1 // the flag is the header's low bit
			dst, _ = rle(dst[:body], filt, true)
		}
	}
	return dst
}

// EncodedRunsSize reports len(EncodeRuns(nil, runs)) without building
// the encoding.
func EncodedRunsSize(runs []Run) int {
	var buf [512]byte
	n := uvarintSize(uint64(len(runs)))
	prevEnd := 0
	data := runBytes(runs)
	for _, r := range runs {
		off, length := int(r.Off), int(r.Len)
		n += uvarintSize(uint64(off - prevEnd))
		prevEnd = off + length
		n += uvarintSize(uint64(length) << 1)
		b := data[:length]
		data = data[length:]
		_, size := rle(nil, b, false)
		if filt := xor8Filter(buf[:], b); filt != nil {
			_, fsize := rle(nil, filt, false)
			size = min(size, fsize)
		}
		n += size
	}
	return n
}

// DecodeRuns parses an EncodeRuns payload back into runs, returning the
// unconsumed remainder of src. It walks the payload twice: a validating
// pass that allocates nothing and sizes the result, then a pass that
// cannot fail and writes the headers and their bytes into one
// pointer-free block — one allocation however many runs there are, the
// shape MakeDiff returns. A run that ends past 65,535 bytes, more than a
// Run holds, fails.
func DecodeRuns(src []byte) (runs []Run, rest []byte, err error) {
	count, total, _, err := walkRuns(src, math.MaxUint16, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	runs, data := newRuns(count, total)
	_, _, rest, _ = walkRuns(src, math.MaxUint16, data, runs)
	return runs, rest, nil
}

// ApplyRuns writes an EncodeRuns payload, all of src, into page: the
// diff applied from the wire, with no Run built and nothing allocated.
// It validates the whole payload first — every token, every run inside
// page, no byte left over — and writes nothing unless all of it is good;
// then it expands each run straight into page at its offset and undoes
// the xor8 filter there.
func ApplyRuns(page, src []byte) error {
	_, _, rest, err := walkRuns(src, len(page), nil, nil)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("core: %d bytes after the diff runs", len(rest))
	}
	if err != nil {
		return err
	}
	walkRuns(src, len(page), page, nil)
	return nil
}

// walkRuns parses an EncodeRuns payload. With dst nil it validates the
// payload — each run inside [0, limit) — and
// reports the run count and the data bytes of all runs. Otherwise it
// also writes the runs' bytes into dst: each run after the one before,
// its header recorded in runs, when runs is not nil (dst is then the
// bytes behind them); else into a page, each at its own offset.
func walkRuns(src []byte, limit int, dst []byte, runs []Run) (count, total int, rest []byte, err error) {
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
		if gap > uint64(limit) || off+int64(length) > int64(limit) {
			return 0, 0, nil, fmt.Errorf("core: diff run %d [%d,+%d) outside the %d-byte page", k, off, length, limit)
		}
		var data []byte
		if dst != nil {
			at := int(off)
			if runs != nil {
				at = total
			}
			data = dst[at : at+length : at+length]
		}
		if t, lit, _ := readUvarint(s); length > 0 && t == uint64(length)<<1 && len(lit) >= length {
			// One literal, the whole run: most runs, a float's low bytes.
			copy(data, lit)
			src = lit[length:]
		} else if src, err = expandRLE(data, s, length); err != nil {
			return 0, 0, nil, fmt.Errorf("core: diff run %d payload: %w", k, err)
		}
		if data != nil && lm&1 != 0 {
			unxor8(data)
		}
		if runs != nil {
			runs[k] = Run{Off: uint16(off), Len: uint16(length)}
		}
		off += int64(length)
		total += length
	}
	return int(c), total, src, nil
}

// xor8Filter returns data's xor8-filtered form — the first 8 bytes
// verbatim, then each byte xored with the byte one word earlier, a word
// at a time — built in buf when it fits, else in a new buffer; nil when
// data is at most 8 bytes long, which the filter leaves as it is.
func xor8Filter(buf, data []byte) []byte {
	n := len(data)
	if n <= 8 {
		return nil
	}
	if len(buf) < n {
		buf = make([]byte, n)
	}
	f := buf[:n]
	copy(f, data[:8])
	i := 8
	for ; i+8 <= n; i += 8 {
		le.PutUint64(f[i:], le.Uint64(data[i:])^le.Uint64(data[i-8:]))
	}
	for ; i < n; i++ {
		f[i] = data[i] ^ data[i-8]
	}
	return f
}

// unxor8 undoes xor8Filter in place, a word at a time: each word is
// xored with the word before it, which is already restored.
func unxor8(b []byte) {
	i := 8
	for ; i+8 <= len(b); i += 8 {
		le.PutUint64(b[i:], le.Uint64(b[i:])^le.Uint64(b[i-8:]))
	}
	for ; i < len(b); i++ {
		b[i] ^= b[i-8]
	}
}

// mayRepeat reports whether data may hold a group of minRepeat equal
// bytes, checking data of at most 8 bytes in one word: its bytes against
// their successors', and the equal ones for minRepeat−1 in a row.
func mayRepeat(data []byte) bool {
	n := len(data)
	if n < minRepeat || n > 8 {
		return n >= minRepeat
	}
	var w uint64
	for i := n - 1; i >= 0; i-- {
		w = w<<8 | uint64(data[i])
	}
	eq := ^diffBytes(w^w>>8) & (1<<(n-1) - 1)
	return eq&(eq>>1)&(eq>>2) != 0
}

// repeats scans data for its groups of equal bytes: the run scanner
// comparing data with itself one byte on, whose run [i, j) is the group
// data[i..j] of j−i+1 equal bytes.
func repeats(data []byte) runScan {
	if len(data) < minRepeat {
		return runScan{} // no group long enough: one literal
	}
	return newRunScan(data[:len(data)-1], data[1:], true, nil)
}

// rle tokenizes data: repeat tokens for groups of at least minRepeat
// equal bytes, literal groups between them. It appends the tokens to dst
// when emit is set and returns their size either way.
func rle(dst, data []byte, emit bool) ([]byte, int) {
	size, lit := 0, 0
	for s := repeats(data); ; {
		i, j := s.next() // data[i..j] are equal
		if i == j {
			i = len(data) // no group left: the last literal
		} else if j-i < minRepeat-1 {
			continue
		}
		if n := i - lit; n > 0 {
			size += uvarintSize(uint64(n)<<1) + n
			if emit {
				dst = append(binary.AppendUvarint(dst, uint64(n)<<1), data[lit:i]...)
			}
		}
		if i == len(data) {
			return dst, size
		}
		size += uvarintSize(uint64(j+1-i)<<1|1) + 1
		if emit {
			dst = append(binary.AppendUvarint(dst, uint64(j+1-i)<<1|1), data[i])
		}
		lit = j + 1
	}
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
// data), or the compressed encoding's exact size when true. Both are
// stamped at close; the compressed one only under Config.CompressDiffs.
func (d *Diff) WireBytes(compress bool) int {
	if !compress {
		return d.Bytes()
	}
	return int(d.encSize)
}
