package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/gapped"
)

// Serialization format, version 2 (written; all words little-endian,
// byte tables in docs/formats.md):
//
//	magic "ALEXGO02" (8 bytes)
//	header: rmi, maxKeysPerLeaf, splitFanout, splitOnInsert,
//	        numLeafModels, density (float64 bits), payloadBytes, count
//	        (eight uint64 words)
//	records: count pairs in strictly ascending key order, each a key
//	        (float64 bits) then its payload (16 bytes)
//	trailer: CRC-32C (Castagnoli, the WAL's polynomial) of every byte
//	        before it (uint32)
//
// The stream is a sorted run: it carries the configuration and the
// contents, not the shape. ReadFrom bulk-loads the pairs through the
// planner, which is the one place that decides a node's shape, so a
// tree degraded by incremental growth reopens planned.
//
// Version 1 ("ALEXGO01", read only) wrote the tree's shape: ten header
// words (a retired layout word, rmi, maxKeysPerLeaf, a retired inner
// fanout word, splitFanout, splitOnInsert, numLeafModels, density,
// payloadBytes, count), then a pre-order node stream of tags — 0 inner
// (two model words, a child count, the children), 1 leaf (an element
// count, the keys, the payloads), 2 a repeat of the previous child. The
// reader keeps only the leaf runs, in stream order, and plans from them
// like version 2.

const (
	magicV1 = "ALEXGO01"
	magicV2 = "ALEXGO02"
)

// Version-1 node tags.
const (
	tagInner  = 0
	tagLeaf   = 1
	tagRepeat = 2
)

// ErrBadFormat is returned when decoding fails structurally.
var ErrBadFormat = errors.New("core: bad index encoding")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// chunkPairs bounds the pairs the encoder buffers and the decoder reads
// at once. The decoder grows its runs chunk by chunk, so a corrupt count
// fails on a short read before it can size a large allocation.
const chunkPairs = 1 << 12

// Encoder streams pairs in the version-2 format. Feed it the data nodes
// in ascending key order; it buffers one chunk at a time, so encoding
// allocates nothing proportional to the element count. Errors are
// sticky and reported by Close.
type Encoder struct {
	w    io.Writer
	buf  []byte
	crc  uint32
	n    int64
	want int
	got  int
	err  error
}

// NewEncoder starts a stream of count pairs with configuration cfg,
// whose unset fields are written as their defaults.
func NewEncoder(w io.Writer, cfg Config, count int) *Encoder {
	cfg = cfg.withDefaults()
	e := &Encoder{w: w, buf: make([]byte, 0, 16*chunkPairs), want: count}
	e.buf = append(e.buf, magicV2...)
	for _, v := range [...]uint64{
		uint64(cfg.RMI), uint64(cfg.MaxKeysPerLeaf), uint64(cfg.SplitFanout), boolU64(cfg.SplitOnInsert),
		uint64(cfg.NumLeafModels), math.Float64bits(cfg.Density), uint64(cfg.PayloadBytes), uint64(count),
	} {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
	return e
}

// WriteLeaf appends every element of d, which must hold keys above all
// keys written so far.
func (e *Encoder) WriteLeaf(d *gapped.Array) {
	for i := d.NextSlot(-1); i >= 0; i = d.NextSlot(i) {
		if len(e.buf)+16 > cap(e.buf) {
			e.flush()
		}
		k, v := d.At(i)
		e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(k))
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
		e.got++
	}
}

// flush writes the buffered bytes and folds them into the checksum.
func (e *Encoder) flush() {
	if e.err == nil {
		e.crc = crc32.Update(e.crc, castagnoli, e.buf)
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	e.buf = e.buf[:0]
}

// Close checks that the stream holds the count its header promised,
// writes the trailer, and returns the number of bytes written.
func (e *Encoder) Close() (int64, error) {
	if e.err == nil && e.got != e.want {
		e.err = fmt.Errorf("core: encoded %d pairs, header promised %d", e.got, e.want)
	}
	e.flush()
	e.buf = binary.LittleEndian.AppendUint32(e.buf, e.crc)
	if e.err == nil {
		var n int
		n, e.err = e.w.Write(e.buf)
		e.n += int64(n)
	}
	return e.n, e.err
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WriteTo serializes the index by streaming its leaf chain. It returns
// the number of bytes written.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	e := NewEncoder(w, t.cfg, t.count)
	for l := t.head.Load(); l != nil; l = l.next.Load() {
		e.WriteLeaf(l.data())
	}
	return e.Close()
}

// ReadFrom deserializes an index written with WriteTo (either version)
// by bulk-loading its pairs.
func ReadFrom(r io.Reader) (*Tree, error) {
	cfg, keys, payloads, err := ReadPairs(r)
	if err != nil {
		return nil, err
	}
	return BulkLoadSorted(keys, payloads, cfg), nil
}

// ReadPairs decodes a stream written with WriteTo (either version) into
// its configuration and its pairs in ascending key order, building no
// tree. Every structural fault — bad magic or header, a short stream, a
// count that disagrees with the records, keys that are not finite and
// strictly ascending, a checksum mismatch — wraps ErrBadFormat.
func ReadPairs(r io.Reader) (Config, []float64, []uint64, error) {
	d := decoder{r: bufio.NewReader(r)}
	magic := d.bytes(8, "magic")
	if d.err == nil {
		switch string(magic) {
		case magicV2:
			d.readV2()
		case magicV1:
			d.readV1()
		default:
			d.fail("bad magic %q", magic)
		}
	}
	if d.err != nil {
		return Config{}, nil, nil, d.err
	}
	return d.cfg, d.keys, d.payloads, nil
}

// decoder accumulates one stream's pairs. Its first error is sticky.
type decoder struct {
	r        *bufio.Reader
	buf      []byte
	crc      uint32 // over every byte read, for the version-2 trailer
	cfg      Config
	count    uint64
	keys     []float64
	payloads []uint64
	leafKeys []float64 // version 1: the current leaf's keys
	err      error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrBadFormat}, args...)...)
	}
}

// bytes reads the next n bytes (n <= 16*chunkPairs) into a reused buffer.
func (d *decoder) bytes(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if cap(d.buf) < n {
		d.buf = make([]byte, n, max(n, 64))
	}
	b := d.buf[:n]
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.fail("short %s: %v", what, err)
		return nil
	}
	d.crc = crc32.Update(d.crc, castagnoli, b)
	return b
}

func (d *decoder) word(what string) uint64 {
	if b := d.bytes(8, what); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *decoder) words(n int, what string) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = d.word(what)
	}
	return w
}

// header reads the configuration and count words. It accepts every
// configuration the index options can set, so whatever WriteTo wrote
// reopens. The words that size an allocation or enter the planner's
// arithmetic are clamped instead of rejected: a density limit below
// gapped.MinDensity is raised to it, the static RMI's leaf models are
// capped at max(count, 2^16), and a leaf bound above the largest count
// the reader accepts is lowered to that count, which no leaf can exceed.
func (d *decoder) header(rmi, maxKeys, splitFanout, splitOnInsert, leafModels, density, payloadBytes, count uint64) {
	const maxCount = 1 << 40
	d.cfg = Config{
		RMI:            RMIMode(rmi),
		MaxKeysPerLeaf: int(min(maxKeys, maxCount)),
		SplitFanout:    int(splitFanout),
		SplitOnInsert:  splitOnInsert != 0,
		NumLeafModels:  int(min(leafModels, max(count, 1<<16))),
		Density:        math.Float64frombits(density),
		PayloadBytes:   int(payloadBytes),
	}
	if d.cfg.Density > 0 && d.cfg.Density < gapped.MinDensity {
		d.cfg.Density = gapped.MinDensity
	}
	d.count = count
	switch {
	case d.cfg.RMI != AdaptiveRMI && d.cfg.RMI != StaticRMI:
		d.fail("rmi %d", rmi)
	case math.IsNaN(d.cfg.Density):
		d.fail("density %v", d.cfg.Density)
	case count > maxCount:
		d.fail("count %d", count)
	}
	d.keys = make([]float64, 0, min(count, chunkPairs))
	d.payloads = make([]uint64, 0, min(count, chunkPairs))
}

// add appends one pair, enforcing finite, strictly ascending keys.
func (d *decoder) add(k float64, v uint64) {
	if n := len(d.keys); math.IsNaN(k) || math.IsInf(k, 0) || (n > 0 && !(k > d.keys[n-1])) {
		d.fail("key %v at %d is not finite and above its predecessor", k, n)
		return
	}
	d.keys = append(d.keys, k)
	d.payloads = append(d.payloads, v)
}

func (d *decoder) readV2() {
	h := d.words(8, "header")
	d.header(h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7])
	for left := d.count; left > 0 && d.err == nil; {
		n := min(left, chunkPairs)
		b := d.bytes(16*int(n), "records")
		for i := 0; i+16 <= len(b) && d.err == nil; i += 16 {
			d.add(math.Float64frombits(binary.LittleEndian.Uint64(b[i:])), binary.LittleEndian.Uint64(b[i+8:]))
		}
		left -= n
	}
	want := d.crc
	if b := d.bytes(4, "trailer"); b != nil && binary.LittleEndian.Uint32(b) != want {
		d.fail("checksum mismatch")
	}
}

// readV1 extracts the leaf runs of a version-1 node stream: inner
// models and repeat tags are skipped, the leaves' pairs concatenated.
func (d *decoder) readV1() {
	h := d.words(10, "header")
	if h[0] > 1 {
		d.fail("layout %d", h[0])
	}
	d.header(h[1], h[2], h[4], h[5], h[6], h[7], h[8], h[9])
	// pending counts the tags still owed (the root, then each inner
	// node's children); first marks a tag with no earlier sibling,
	// which a repeat cannot refer back to.
	first := true
	for pending := uint64(1); pending > 0 && d.err == nil; pending-- {
		switch tag := d.word("node tag"); {
		case d.err != nil:
		case tag == tagInner:
			d.word("inner model")
			d.word("inner model")
			if nc := d.word("child count"); d.err == nil && (nc == 0 || nc > 1<<24) {
				d.fail("child count %d", nc)
			} else {
				pending += nc
			}
			first = true
			continue
		case tag == tagLeaf:
			d.readV1Leaf()
		case tag == tagRepeat && !first:
		default:
			d.fail("tag %d", tag)
		}
		first = false
	}
	if d.err == nil && uint64(len(d.keys)) != d.count {
		d.fail("leaf totals %d != header count %d", len(d.keys), d.count)
	}
}

// readV1Leaf appends one leaf's run: its keys, then its payloads.
func (d *decoder) readV1Leaf() {
	cnt := d.word("leaf count")
	if have := uint64(len(d.keys)); d.err == nil && cnt > d.count-have {
		d.fail("leaf count %d exceeds the header's remaining %d", cnt, d.count-have)
	}
	d.leafKeys = d.leafKeys[:0]
	for left := cnt; left > 0 && d.err == nil; {
		n := min(left, chunkPairs)
		b := d.bytes(8*int(n), "leaf keys")
		for i := 0; i+8 <= len(b); i += 8 {
			d.leafKeys = append(d.leafKeys, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
		left -= n
	}
	for read := 0; read < len(d.leafKeys) && d.err == nil; {
		n := min(len(d.leafKeys)-read, chunkPairs)
		b := d.bytes(8*n, "leaf payloads")
		for i := 0; i+8 <= len(b); i += 8 {
			d.add(d.leafKeys[read], binary.LittleEndian.Uint64(b[i:]))
			read++
		}
	}
}
