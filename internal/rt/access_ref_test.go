package rt

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"cvm"
	"cvm/internal/core"
)

// refWorker is the access path this package had before Worker.span: every
// accessor a loop over read8/write8, and those paying the split by divide,
// the home test, the hmu section or the fetch, and the twin check once per
// word. The loops are the replaced ones verbatim; what they index is the
// page table where it was two maps. TestAccessMatchesReference runs the
// same programs through both.
type refWorker struct{ *Worker }

func (w refWorker) read8(a core.Addr) uint64 {
	n := w.n
	ps := core.Addr(n.c.cfg.PageSize)
	pg, off := core.PageID(a/ps), int(a%ps)
	if n.home(pg) == n.self {
		n.hmu.Lock()
		v := binary.LittleEndian.Uint64(n.pages[pg].data[off:])
		n.hmu.Unlock()
		return v
	}
	n.fetchPage(w.Worker, pg)
	return binary.LittleEndian.Uint64(n.pages[pg].data[off:])
}

func (w refWorker) write8(a core.Addr, v uint64) {
	n := w.n
	ps := core.Addr(n.c.cfg.PageSize)
	pg, off := core.PageID(a/ps), int(a%ps)
	if n.home(pg) == n.self {
		n.hmu.Lock()
		binary.LittleEndian.PutUint64(n.pages[pg].data[off:], v)
		n.hmu.Unlock()
		return
	}
	n.fetchPage(w.Worker, pg)
	p := &n.pages[pg]
	if p.twin == nil {
		p.twin = append([]byte(nil), p.data...)
		n.dirty = append(n.dirty, pg)
	}
	binary.LittleEndian.PutUint64(p.data[off:], v)
}

func (w refWorker) ReadF64(a core.Addr) float64     { return math.Float64frombits(w.read8(a)) }
func (w refWorker) WriteF64(a core.Addr, v float64) { w.write8(a, math.Float64bits(v)) }
func (w refWorker) ReadI64(a core.Addr) int64       { return int64(w.read8(a)) }
func (w refWorker) WriteI64(a core.Addr, v int64)   { w.write8(a, uint64(v)) }
func (w refWorker) AddF64(a core.Addr, v float64)   { w.WriteF64(a, w.ReadF64(a)+v) }

func (w refWorker) ReadRangeF64(a core.Addr, dst []float64) {
	for i := range dst {
		dst[i] = w.ReadF64(a + core.Addr(8*i))
	}
}

func (w refWorker) WriteRangeF64(a core.Addr, src []float64) {
	for i, v := range src {
		w.WriteF64(a+core.Addr(8*i), v)
	}
}

func (w refWorker) FillF64(a core.Addr, n int, v float64) {
	for i := 0; i < n; i++ {
		w.WriteF64(a+core.Addr(8*i), v)
	}
}

func (w refWorker) ReadRangeI64(a core.Addr, dst []int64) {
	for i := range dst {
		dst[i] = w.ReadI64(a + core.Addr(8*i))
	}
}

func (w refWorker) WriteRangeI64(a core.Addr, src []int64) {
	for i, v := range src {
		w.WriteI64(a+core.Addr(8*i), v)
	}
}

func (w refWorker) FillI64(a core.Addr, n int, v int64) {
	for i := 0; i < n; i++ {
		w.WriteI64(a+core.Addr(8*i), v)
	}
}

// accessOp is one step of a random program: thread does kind to the n
// words at word index at, with val the value written, filled or added.
// opLocked is a critical section under lock val: one AddF64 on the lock's
// counter and a read-modify-write span over its four guarded words.
type accessOp struct {
	kind   int
	thread int
	at, n  int
	val    int64
}

const (
	opReadF64 = iota
	opReadI64
	opWriteF64
	opWriteI64
	opFillF64
	opFillI64
	opAddF64
	opLocked
)

const (
	accessLocks   = 3
	lockedWords   = 5 // per lock: the counter, then four guarded words
	accessMemPage = 24
)

// accessProgram is barrier-separated phases of ops over memWords words of
// ordinary memory followed by accessLocks*lockedWords lock-guarded words.
// It is data-race-free by construction: a phase cuts the ordinary memory
// into segments, each written (and read) by one thread or only read, by
// anyone; the guarded words are touched under their lock alone.
type accessProgram struct {
	threads  int
	memWords int
	phases   [][]accessOp
}

func (p *accessProgram) words() int { return p.memWords + accessLocks*lockedWords }

// genAccessProgram draws a program. Spans are 1–2000 words at any aligned
// address, so they straddle page and home boundaries at either page size.
func genAccessProgram(seed int64, threads, pageSize int) *accessProgram {
	rng := rand.New(rand.NewSource(seed))
	p := &accessProgram{threads: threads, memWords: accessMemPage * pageSize / 8}
	spanLen := func(room int) int {
		n := 1 + []int{0, 2, rng.Intn(16), rng.Intn(700), rng.Intn(2000)}[rng.Intn(5)]
		return min(n, room)
	}
	for ph := 0; ph < 6; ph++ {
		var ops []accessOp
		cuts := []int{0, p.memWords}
		for i := 0; i < 3*threads; i++ {
			cuts = append(cuts, rng.Intn(p.memWords))
		}
		sort.Ints(cuts)
		for i := 0; i+1 < len(cuts); i++ {
			lo, room := cuts[i], cuts[i+1]-cuts[i]
			if room == 0 {
				continue
			}
			owner := rng.Intn(threads + threads/2 + 1) // ≥ threads: a read-only segment
			for k := 1 + rng.Intn(4); k > 0; k-- {
				op := accessOp{thread: owner, kind: rng.Intn(opLocked), val: rng.Int63n(1 << 40)}
				if owner >= threads {
					op.thread, op.kind = rng.Intn(threads), rng.Intn(opReadI64+1)
				}
				op.n = spanLen(room)
				if op.kind == opAddF64 {
					op.n = 1
				}
				op.at = lo + rng.Intn(room-op.n+1)
				ops = append(ops, op)
			}
		}
		for i := rng.Intn(2 * threads); i > 0; i-- {
			ops = append(ops, accessOp{kind: opLocked, thread: rng.Intn(threads),
				val: int64(rng.Intn(accessLocks)), n: 1 + rng.Intn(9)})
		}
		p.phases = append(p.phases, ops)
	}
	return p
}

// digest folds words a thread read into its running hash.
func digest(h uint64, words []uint64) uint64 {
	for _, x := range words {
		h = (h ^ x) * 1099511628211
	}
	return h
}

// expect interprets the program sequentially on a flat image: the memory
// every node must end up reading, and the digest of everything each
// thread reads on the way. Within a phase threads are independent, so any
// order of them gives this result.
func (p *accessProgram) expect() (image []uint64, digests []uint64) {
	image, digests = make([]uint64, p.words()), make([]uint64, p.threads)
	addF := func(i int, v float64) {
		image[i] = math.Float64bits(math.Float64frombits(image[i]) + v)
	}
	for _, ops := range p.phases {
		for _, op := range ops {
			seg := image[op.at : op.at+op.n]
			switch op.kind {
			case opReadF64, opReadI64:
				digests[op.thread] = digest(digests[op.thread], seg)
			case opWriteF64, opFillF64:
				for i := range seg {
					seg[i] = math.Float64bits(float64(op.val))
					if op.kind == opWriteF64 {
						seg[i] = math.Float64bits(float64(op.val + int64(i)))
					}
				}
			case opWriteI64, opFillI64:
				for i := range seg {
					seg[i] = uint64(op.val)
					if op.kind == opWriteI64 {
						seg[i] = uint64(op.val + int64(i))
					}
				}
			case opAddF64:
				addF(op.at, float64(op.val))
			case opLocked:
				ctr := p.memWords + int(op.val)*lockedWords
				addF(ctr, float64(op.n))
				for i := 1; i < lockedWords; i++ {
					image[ctr+i] += uint64(op.n)
				}
			}
		}
	}
	return image, digests
}

// run is the program as thread w executes it over the allocation at base:
// its own ops of each phase in order, a barrier after each phase. It
// returns the digest of what w read and, from each node's first thread,
// the image read back at the end.
func (p *accessProgram) run(w cvm.Worker, base core.Addr) (sum uint64, image []uint64) {
	addr := func(word int) core.Addr { return base + core.Addr(8*word) }
	me := w.GlobalID()
	for ph, ops := range p.phases {
		for _, op := range ops {
			if op.thread != me {
				continue
			}
			switch op.kind {
			case opReadF64:
				buf := make([]float64, op.n)
				w.ReadRangeF64(addr(op.at), buf)
				sum = digest(sum, core.F64sAsU64s(buf))
			case opReadI64:
				buf := make([]int64, op.n)
				w.ReadRangeI64(addr(op.at), buf)
				sum = digest(sum, core.I64sAsU64s(buf))
			case opWriteF64:
				buf := make([]float64, op.n)
				for i := range buf {
					buf[i] = float64(op.val + int64(i))
				}
				w.WriteRangeF64(addr(op.at), buf)
			case opWriteI64:
				buf := make([]int64, op.n)
				for i := range buf {
					buf[i] = op.val + int64(i)
				}
				w.WriteRangeI64(addr(op.at), buf)
			case opFillF64:
				w.FillF64(addr(op.at), op.n, float64(op.val))
			case opFillI64:
				w.FillI64(addr(op.at), op.n, op.val)
			case opAddF64:
				w.AddF64(addr(op.at), float64(op.val))
			case opLocked:
				ctr := p.memWords + int(op.val)*lockedWords
				var guarded [lockedWords - 1]int64
				w.Lock(int(op.val))
				w.AddF64(addr(ctr), float64(op.n))
				w.ReadRangeI64(addr(ctr+1), guarded[:])
				for i := range guarded {
					guarded[i] += int64(op.n)
				}
				w.WriteRangeI64(addr(ctr+1), guarded[:])
				w.Unlock(int(op.val))
			}
		}
		w.Barrier(ph)
	}
	if w.LocalID() == 0 {
		buf := make([]int64, p.words())
		w.ReadRangeI64(base, buf)
		image = core.I64sAsU64s(buf)
	}
	return sum, image
}

// TestAccessMatchesReference drives the span accessors and the replaced
// word-at-a-time loops with the same seeded programs — 4×2 and 3×1, 4 KB
// pages and pages of 1000 words — and requires of both what a sequential
// interpreter of the program says: every thread read the same words on
// the way, and every node reads back the same final image.
func TestAccessMatchesReference(t *testing.T) {
	for _, shape := range []struct{ nodes, threads, pageSize int }{
		{4, 2, 4096}, {4, 2, 8000}, {3, 1, 4096}, {3, 1, 8000},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			prog := genAccessProgram(seed, shape.nodes*shape.threads, shape.pageSize)
			wantImage, wantDigests := prog.expect()
			for _, path := range []string{"span", "reference"} {
				name := fmt.Sprintf("%dx%d/page%d/seed%d/%s", shape.nodes, shape.threads, shape.pageSize, seed, path)
				t.Run(name, func(t *testing.T) {
					cfg := DefaultConfig(shape.nodes, shape.threads)
					cfg.PageSize = shape.pageSize
					c, err := NewCluster(cfg)
					if err != nil {
						t.Fatal(err)
					}
					base := c.MustAlloc("mem", 8*prog.words())
					digests := make([]uint64, prog.threads)
					images := make([][]uint64, shape.nodes)
					_, err = c.RunLoopback(func(w cvm.Worker) {
						if path == "reference" {
							w = refWorker{w.(*Worker)}
						}
						d, image := prog.run(w, base)
						digests[w.GlobalID()] = d
						if image != nil {
							images[w.NodeID()] = image
						}
					})
					if err != nil {
						t.Fatal(err)
					}
					for g, d := range digests {
						if d != wantDigests[g] {
							t.Errorf("thread %d read a different sequence of words (digest %#x, want %#x)", g, d, wantDigests[g])
						}
					}
					for node, image := range images {
						for i, x := range image {
							if x != wantImage[i] {
								t.Fatalf("node %d reads word %d (page %d) as %#x, want %#x",
									node, i, i*8/shape.pageSize, x, wantImage[i])
							}
						}
					}
				})
			}
		}
	}
}
