package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/linmodel"
)

// Serialization format (little-endian):
//
//	magic "ALEXGO01" (8 bytes)
//	config: layout, rmi, maxKeysPerLeaf, innerFanout, splitFanout,
//	        splitOnInsert, numLeafModels, density, payloadBytes
//	        (layout and innerFanout are retired words: written as 0 and
//	        32, read and ignored — older builds wrote layout 1 for the
//	        removed Packed Memory Array, whose leaves load as gapped
//	        arrays like any other)
//	count (uint64)
//	tree: pre-order node stream — tag byte (0 inner, 1 leaf);
//	      inner: model (2 float64), child count, then children with
//	      run-length encoding of repeated pointers (repeat tag 2);
//	      leaf: element count, keys, payloads (capacities and models are
//	      rebuilt on load via the normal bulk-load path, so a saved
//	      index round-trips to an equivalent — not bit-identical —
//	      structure with identical contents and routing).
//
// Leaves are rebuilt rather than copied verbatim: gap placement is a
// performance property, not a logical one, and rebuilding restores the
// freshly-bulk-loaded layout (density d², model-based placement).

const magic = "ALEXGO01"

const (
	tagInner  = 0
	tagLeaf   = 1
	tagRepeat = 2
)

// Values written into the retired header words.
const (
	retiredLayoutWord = 0
	retiredFanoutWord = 32
)

// ErrBadFormat is returned when decoding fails structurally.
var ErrBadFormat = errors.New("core: bad index encoding")

// WriteTo serializes the index. It returns the number of bytes written.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	bw := &countingWriter{w: bufio.NewWriter(w)}
	if _, err := bw.Write([]byte(magic)); err != nil {
		return bw.n, err
	}
	cfg := t.cfg
	hdr := []uint64{
		retiredLayoutWord, uint64(cfg.RMI), uint64(cfg.MaxKeysPerLeaf),
		retiredFanoutWord, uint64(cfg.SplitFanout), boolU64(cfg.SplitOnInsert),
		uint64(cfg.NumLeafModels), math.Float64bits(cfg.Density), uint64(cfg.PayloadBytes),
		uint64(t.count),
	}
	for _, v := range hdr {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return bw.n, err
		}
	}
	if err := t.writeNode(bw, t.root.Load()); err != nil {
		return bw.n, err
	}
	return bw.n, bw.w.(*bufio.Writer).Flush()
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (t *Tree) writeNode(w io.Writer, n *node) error {
	if n == nil {
		return fmt.Errorf("%w: nil node", ErrBadFormat)
	}
	if !n.isLeaf() {
		if err := binary.Write(w, binary.LittleEndian, [3]uint64{
			tagInner, math.Float64bits(n.model.Slope), math.Float64bits(n.model.Intercept),
		}); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint64(len(n.children))); err != nil {
			return err
		}
		var last *node
		for i := range n.children {
			ch := n.children[i].Load()
			if ch == last {
				if err := binary.Write(w, binary.LittleEndian, uint64(tagRepeat)); err != nil {
					return err
				}
				continue
			}
			last = ch
			if err := t.writeNode(w, ch); err != nil {
				return err
			}
		}
		return nil
	}
	keys, payloads := n.data().Collect(nil, nil)
	if err := binary.Write(w, binary.LittleEndian, [2]uint64{tagLeaf, uint64(len(keys))}); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, keys); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, payloads)
}

// ReadFrom deserializes an index previously written with WriteTo.
func ReadFrom(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if string(m[:]) != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, m)
	}
	var hdr [10]uint64
	for i := range hdr {
		if err := binary.Read(br, binary.LittleEndian, &hdr[i]); err != nil {
			return nil, fmt.Errorf("%w: short header: %v", ErrBadFormat, err)
		}
	}
	cfg := Config{
		RMI:            RMIMode(hdr[1]),
		MaxKeysPerLeaf: int(hdr[2]),
		SplitFanout:    int(hdr[4]),
		SplitOnInsert:  hdr[5] != 0,
		NumLeafModels:  int(hdr[6]),
		Density:        math.Float64frombits(hdr[7]),
		PayloadBytes:   int(hdr[8]),
	}
	if hdr[0] > 1 {
		return nil, fmt.Errorf("%w: layout %d", ErrBadFormat, hdr[0])
	}
	if cfg.RMI != AdaptiveRMI && cfg.RMI != StaticRMI {
		return nil, fmt.Errorf("%w: rmi %d", ErrBadFormat, hdr[1])
	}
	count := int(hdr[9])
	if count < 0 || count > 1<<40 {
		return nil, fmt.Errorf("%w: count %d", ErrBadFormat, count)
	}
	t := &Tree{cfg: cfg.withDefaults()}
	root, total, err := t.readNode(br, count)
	if err != nil {
		return nil, err
	}
	if total != count {
		return nil, fmt.Errorf("%w: leaf totals %d != header count %d", ErrBadFormat, total, count)
	}
	t.root.Store(root)
	t.count = count
	t.linkLeaves()
	if t.head.Load() == nil {
		// Completely empty tree serialized as one empty leaf.
		if root.isLeaf() {
			t.head.Store(root)
		} else {
			return nil, fmt.Errorf("%w: no leaves", ErrBadFormat)
		}
	}
	return t, nil
}

// readNode reconstructs one subtree. budget bounds total elements to the
// header's count so corrupt streams cannot allocate unboundedly.
func (t *Tree) readNode(r io.Reader, budget int) (*node, int, error) {
	var tag uint64
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return nil, 0, fmt.Errorf("%w: missing node tag: %v", ErrBadFormat, err)
	}
	return t.readTagged(r, tag, budget)
}

// readTagged reconstructs a node whose tag has already been consumed.
func (t *Tree) readTagged(r io.Reader, tag uint64, budget int) (*node, int, error) {
	switch tag {
	case tagInner:
		var bits [2]uint64
		if err := binary.Read(r, binary.LittleEndian, &bits); err != nil {
			return nil, 0, fmt.Errorf("%w: short inner model: %v", ErrBadFormat, err)
		}
		var nc uint64
		if err := binary.Read(r, binary.LittleEndian, &nc); err != nil {
			return nil, 0, fmt.Errorf("%w: short child count: %v", ErrBadFormat, err)
		}
		if nc == 0 || nc > 1<<24 {
			return nil, 0, fmt.Errorf("%w: child count %d", ErrBadFormat, nc)
		}
		var model linmodel.Model
		model.Slope = math.Float64frombits(bits[0])
		model.Intercept = math.Float64frombits(bits[1])
		n := newInner(model, int(nc))
		total := 0
		var last *node
		for i := range n.children {
			var ctag uint64
			if err := binary.Read(r, binary.LittleEndian, &ctag); err != nil {
				return nil, 0, fmt.Errorf("%w: short child tag: %v", ErrBadFormat, err)
			}
			if ctag == tagRepeat {
				if last == nil {
					return nil, 0, fmt.Errorf("%w: repeat with no prior child", ErrBadFormat)
				}
				n.children[i].Store(last)
				continue
			}
			ch, sub, err := t.readTagged(r, ctag, budget-total)
			if err != nil {
				return nil, 0, err
			}
			n.children[i].Store(ch)
			last = ch
			total += sub
		}
		return n, total, nil
	case tagLeaf:
		return t.readLeafBody(r, budget)
	default:
		return nil, 0, fmt.Errorf("%w: tag %d", ErrBadFormat, tag)
	}
}

func (t *Tree) readLeafBody(r io.Reader, budget int) (*node, int, error) {
	var cnt uint64
	if err := binary.Read(r, binary.LittleEndian, &cnt); err != nil {
		return nil, 0, fmt.Errorf("%w: short leaf count: %v", ErrBadFormat, err)
	}
	if budget < 0 || cnt > uint64(budget) {
		return nil, 0, fmt.Errorf("%w: leaf count %d exceeds remaining budget %d", ErrBadFormat, cnt, budget)
	}
	// Read in bounded chunks so a corrupt count fails on EOF before a
	// single huge allocation can happen.
	const chunk = 1 << 16
	keys := make([]float64, 0, minU64(cnt, chunk))
	for read := uint64(0); read < cnt; {
		n := minU64(cnt-read, chunk)
		buf := make([]float64, n)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, 0, fmt.Errorf("%w: short leaf keys: %v", ErrBadFormat, err)
		}
		keys = append(keys, buf...)
		read += n
	}
	payloads := make([]uint64, 0, minU64(cnt, chunk))
	for read := uint64(0); read < cnt; {
		n := minU64(cnt-read, chunk)
		buf := make([]uint64, n)
		if err := binary.Read(r, binary.LittleEndian, buf); err != nil {
			return nil, 0, fmt.Errorf("%w: short leaf payloads: %v", ErrBadFormat, err)
		}
		payloads = append(payloads, buf...)
		read += n
	}
	prev := math.Inf(-1)
	for _, k := range keys {
		if math.IsNaN(k) || math.IsInf(k, 0) || k <= prev {
			return nil, 0, fmt.Errorf("%w: leaf keys not strictly increasing and finite", ErrBadFormat)
		}
		prev = k
	}
	return t.newLeaf(keys, payloads), int(cnt), nil
}

func minU64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
