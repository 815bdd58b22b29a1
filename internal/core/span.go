package core

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// Span accessors: the bulk fast path over shared memory. The scalar path
// (read8/write8) pays the full software access pipeline — locate,
// ensureAccess, byte codec, memory-system charge, task.Advance — per 8
// bytes. A span splits the request at page boundaries and runs that
// pipeline once per page instead of once per element: one fault check,
// one bulk copy, one coalesced charge. This is the simulation analogue of
// a real software DSM batching its access checks (Shasta-style): the
// protocol work is per page, so per-element repetition of the check is
// pure overhead.
//
// Virtual-time equivalence: the coalesced charge computes exactly the
// per-element costs (memsim.AccessStride8 is bit-identical to the element
// loop) and advances once with their sum, so counters, miss counts, and
// end times match the elementwise path.
//
// Handler interleaving: the copy happens immediately after ensureAccess
// with no intervening yields, so protocol handlers (write-notice
// invalidation, twin consumption) can only interleave at page-span
// boundaries — the same points where the fault machine already re-checks
// state. Within a span the elementwise path could additionally observe a
// handler between elements of one page; lazy release consistency permits
// either outcome (no acquire separates the elements), and the span's
// page-snapshot behavior is what mmap-based DSMs provide anyway. Write
// spans re-run the fault loop until the page holds still in ReadWrite
// with a live twin, exactly as write8 does.

// chargeSpan charges cnt consecutive 8-byte accesses at a through the
// node's memory hierarchy, advancing once with the exact elementwise
// total.
func (t *Thread) chargeSpan(a Addr, cnt int) {
	t.task.Advance(t.node.mem.AccessStride8(uint64(a), cnt))
}

// spanPages walks [a, a+8*len) splitting at page boundaries, calling body
// with the page, byte offset, element offset into the span, and element
// count. body runs the access check, copy, and charge for its segment.
func (t *Thread) spanPages(a Addr, n int, body func(p *page, off, idx, cnt int)) {
	for idx := 0; idx < n; {
		p, off := t.locate(a)
		cnt := (t.sys.cfg.PageSize - off) / 8
		if cnt > n-idx {
			cnt = n - idx
		}
		body(p, off, idx, cnt)
		t.chargeSpan(a, cnt)
		a += Addr(cnt) * 8
		idx += cnt
	}
}

// readSpan reads n 8-byte words starting at a into dst.
func (t *Thread) readSpan(a Addr, dst []uint64, n int) {
	t.spanPages(a, n, func(p *page, off, idx, cnt int) {
		t.ensureAccess(p, false)
		seg := dst[idx : idx+cnt]
		if p.data == nil {
			for i := range seg {
				seg[i] = 0
			}
			return
		}
		BytesToU64(p.data[off:off+cnt*8], seg)
	})
}

// writeSpan writes n 8-byte words from src starting at a.
func (t *Thread) writeSpan(a Addr, src []uint64, n int) {
	t.spanPages(a, n, func(p *page, off, idx, cnt int) {
		for {
			t.ensureAccess(p, true)
			if p.state == PageReadWrite {
				U64ToBytes(src[idx:idx+cnt], p.data[off:off+cnt*8])
				return
			}
			// A handler downgraded the page while ensureAccess was
			// charging fault costs; run the fault state machine again.
		}
	})
}

// fillSpan writes n copies of the 8-byte word v starting at a.
func (t *Thread) fillSpan(a Addr, n int, v uint64) {
	t.spanPages(a, n, func(p *page, off, idx, cnt int) {
		for {
			t.ensureAccess(p, true)
			if p.state == PageReadWrite {
				FillU64(p.data[off:off+cnt*8], v)
				return
			}
		}
	})
}

// ReadRangeF64 reads len(dst) float64s from shared memory starting at a.
// The access check and memory-system charge are batched per page; see the
// package comment above for the equivalence and interleaving contract.
func (t *Thread) ReadRangeF64(a Addr, dst []float64) {
	t.readSpan(a, F64sAsU64s(dst), len(dst))
}

// WriteRangeF64 writes src to shared memory starting at a.
func (t *Thread) WriteRangeF64(a Addr, src []float64) {
	t.writeSpan(a, F64sAsU64s(src), len(src))
}

// FillF64 writes n copies of v to shared memory starting at a.
func (t *Thread) FillF64(a Addr, n int, v float64) {
	t.fillSpan(a, n, math.Float64bits(v))
}

// ReadRangeI64 reads len(dst) int64s from shared memory starting at a.
func (t *Thread) ReadRangeI64(a Addr, dst []int64) {
	t.readSpan(a, I64sAsU64s(dst), len(dst))
}

// WriteRangeI64 writes src to shared memory starting at a.
func (t *Thread) WriteRangeI64(a Addr, src []int64) {
	t.writeSpan(a, I64sAsU64s(src), len(src))
}

// FillI64 writes n copies of v to shared memory starting at a.
func (t *Thread) FillI64(a Addr, n int, v int64) {
	t.fillSpan(a, n, uint64(v))
}

// AddF64 adds v to the float64 at a as one fused read-modify-write: one
// locate and one access check instead of the independent Get and Set
// round-trips, with both data accesses still charged. Fault counters and
// virtual time match the Get+Set pair exactly (an invalid page takes the
// remote fault then the twin fault, a read-only page just the twin fault,
// both orders charging the same access sequence).
func (t *Thread) AddF64(a Addr, v float64) {
	p, off := t.locate(a)
	for {
		t.ensureAccess(p, true)
		if p.state == PageReadWrite {
			old := math.Float64frombits(binary.LittleEndian.Uint64(p.data[off:]))
			binary.LittleEndian.PutUint64(p.data[off:], math.Float64bits(old+v))
			break
		}
	}
	t.charge(a) // the load
	t.charge(a) // the store
}

// hostLittleEndian reports whether the host stores multi-byte words
// little-endian, making page bytes directly aliasable as word slices.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// F64sAsU64s reinterprets a float64 slice as its raw 8-byte words (always
// safe: same size and alignment, no byte-order dependence).
func F64sAsU64s(s []float64) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// I64sAsU64s reinterprets an int64 slice as its raw 8-byte words.
func I64sAsU64s(s []int64) []uint64 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), len(s))
}

// aligned8 reports whether b starts on an 8-byte boundary.
func aligned8(b []byte) bool {
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

// BytesToU64 decodes little-endian page bytes into words, aliasing the
// page directly when the host layout permits.
func BytesToU64(b []byte, dst []uint64) {
	if hostLittleEndian && aligned8(b) {
		copy(dst, unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(dst)))
		return
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
}

// FillU64 sets every 8-byte word of b (a whole number of words) to v in
// the shared-memory byte order, doubling the filled prefix.
func FillU64(b []byte, v uint64) {
	binary.LittleEndian.PutUint64(b, v)
	for done := 8; done < len(b); done *= 2 {
		copy(b[done:], b[:done])
	}
}

// U64ToBytes encodes words as little-endian page bytes (the shared-memory
// byte order on every host), aliasing when permitted.
func U64ToBytes(src []uint64, b []byte) {
	if hostLittleEndian && aligned8(b) {
		copy(unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(src)), src)
		return
	}
	for i, v := range src {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
}
