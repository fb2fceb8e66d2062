// Package wal implements the write-ahead log behind alex.DurableIndex:
// an append-only sequence of length-prefixed, CRC-checked mutation
// records stored in numbered segment files.
//
// The on-disk format of a segment is
//
//	magic "ALEXWAL1" (8 bytes)
//	record*
//
// and each record is
//
//	u32 little-endian payload length n (1 <= n <= MaxRecordBytes)
//	u32 little-endian CRC-32C (Castagnoli) of the payload
//	payload (n bytes): op byte, then the op-specific body
//
// A record is the unit of atomicity: readers either yield a record
// whole or stop, so a batch logged as one record can never be replayed
// half-applied. The Reader validates every field and stops at the first
// invalid record — after a crash the tail of the last segment may be
// torn mid-record, and everything before the tear is still recovered.
//
// A live segment's file size is not the log's end. The Writer keeps
// the size a step (1 MiB) ahead of the last record with a sparse
// extension, so a commit's fsync does not also journal a size change;
// the bytes past the last record read as zeros. A crash therefore
// leaves a zero tail, which the Reader treats like any torn tail (a
// zero length prefix is invalid). Sealing a segment — rotation or
// close — trims it to the end of its last record, so a sealed
// segment's size is its log's end.
//
// The Writer implements group commit: concurrent appenders under the
// SyncAlways policy coalesce into a single fsync per flush window, so
// the measured fsyncs per operation drop well below one as concurrency
// rises (observable via Stats).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
)

// Magic begins every segment file.
const Magic = "ALEXWAL1"

// Op identifies a record type.
type Op byte

// Record types. Point and batch mutations carry keys (and payloads for
// the insert flavors); Checkpoint is a marker noting that a snapshot
// covering everything before it has been written.
const (
	OpInsert      Op = 1 // one key, one payload
	OpDelete      Op = 2 // one key
	OpInsertBatch Op = 3 // n keys, n payloads (upsert, last duplicate wins)
	OpDeleteBatch Op = 4 // n keys
	OpMerge       Op = 5 // n keys, n payloads (bulk upsert via the merge path)
	OpCheckpoint  Op = 6 // marker; Seq is the segment the checkpoint rotated to
	OpUpdate      Op = 7 // one key, one payload; replayed as update-if-present
)

// Size limits. A record's length prefix is validated against
// MaxRecordBytes before any allocation, so a corrupt length can never
// trigger a huge read; MaxRecordPairs bounds the element count of batch
// records (callers chunk larger batches into several records).
const (
	MaxRecordPairs = 1 << 20
	MaxRecordBytes = 1 + 4 + MaxRecordPairs*16
)

// ErrCorrupt marks an invalid record: torn tail, CRC mismatch, bad
// length, unknown op, malformed body, or a non-finite key. Readers
// return it (wrapped) and callers treat it as end-of-log.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrClosed is returned by appends to a closed Writer or Log.
var ErrClosed = errors.New("wal: closed")

// Record is one logical WAL entry.
type Record struct {
	Op       Op
	Keys     []float64
	Payloads []uint64 // parallel to Keys for insert/merge flavors; nil otherwise
	Seq      uint64   // OpCheckpoint only
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// payloadSize returns the encoded payload length of r (op byte + body).
func payloadSize(r *Record) (int, error) {
	switch r.Op {
	case OpInsert, OpUpdate:
		return 1 + 16, nil
	case OpDelete:
		return 1 + 8, nil
	case OpInsertBatch, OpMerge:
		if len(r.Keys) > MaxRecordPairs {
			return 0, fmt.Errorf("wal: batch of %d pairs exceeds MaxRecordPairs", len(r.Keys))
		}
		return 1 + 4 + len(r.Keys)*16, nil
	case OpDeleteBatch:
		if len(r.Keys) > MaxRecordPairs {
			return 0, fmt.Errorf("wal: batch of %d keys exceeds MaxRecordPairs", len(r.Keys))
		}
		return 1 + 4 + len(r.Keys)*8, nil
	case OpCheckpoint:
		return 1 + 8, nil
	}
	return 0, fmt.Errorf("wal: unknown op %d", r.Op)
}

// AppendRecord appends the framed encoding of r to dst and returns the
// extended slice. It errors on oversized batches and ops the insert
// flavors require payloads for.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	n, err := payloadSize(r)
	if err != nil {
		return dst, err
	}
	switch r.Op {
	case OpInsert, OpUpdate, OpInsertBatch, OpMerge:
		if len(r.Payloads) != len(r.Keys) {
			return dst, fmt.Errorf("wal: op %d has %d payloads for %d keys", r.Op, len(r.Payloads), len(r.Keys))
		}
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC placeholder
	body := len(dst)
	dst = append(dst, byte(r.Op))
	switch r.Op {
	case OpInsert, OpUpdate:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Keys[0]))
		dst = binary.LittleEndian.AppendUint64(dst, r.Payloads[0])
	case OpDelete:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Keys[0]))
	case OpInsertBatch, OpMerge:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Keys)))
		for _, k := range r.Keys {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(k))
		}
		for _, p := range r.Payloads {
			dst = binary.LittleEndian.AppendUint64(dst, p)
		}
	case OpDeleteBatch:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Keys)))
		for _, k := range r.Keys {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(k))
		}
	case OpCheckpoint:
		dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	}
	crc := crc32.Checksum(dst[body:], castagnoli)
	binary.LittleEndian.PutUint32(dst[start+4:], crc)
	return dst, nil
}

// decodeRecord parses one payload (already CRC-verified) into a Record.
// Every structural property is validated so a CRC-colliding corruption
// still cannot reach the index: exact body length, bounded counts, and
// finite keys.
func decodeRecord(payload []byte) (*Record, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	r := &Record{Op: Op(payload[0])}
	body := payload[1:]
	switch r.Op {
	case OpInsert, OpUpdate:
		if len(body) != 16 {
			return nil, fmt.Errorf("%w: insert body %d bytes", ErrCorrupt, len(body))
		}
		r.Keys = []float64{math.Float64frombits(binary.LittleEndian.Uint64(body))}
		r.Payloads = []uint64{binary.LittleEndian.Uint64(body[8:])}
	case OpDelete:
		if len(body) != 8 {
			return nil, fmt.Errorf("%w: delete body %d bytes", ErrCorrupt, len(body))
		}
		r.Keys = []float64{math.Float64frombits(binary.LittleEndian.Uint64(body))}
	case OpInsertBatch, OpMerge:
		n, err := batchCount(body, 16)
		if err != nil {
			return nil, err
		}
		r.Keys = decodeKeys(body[4:], n)
		r.Payloads = make([]uint64, n)
		for i := range r.Payloads {
			r.Payloads[i] = binary.LittleEndian.Uint64(body[4+n*8+i*8:])
		}
	case OpDeleteBatch:
		n, err := batchCount(body, 8)
		if err != nil {
			return nil, err
		}
		r.Keys = decodeKeys(body[4:], n)
	case OpCheckpoint:
		if len(body) != 8 {
			return nil, fmt.Errorf("%w: checkpoint body %d bytes", ErrCorrupt, len(body))
		}
		r.Seq = binary.LittleEndian.Uint64(body)
		return r, nil
	default:
		return nil, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[0])
	}
	for _, k := range r.Keys {
		if math.IsNaN(k) || math.IsInf(k, 0) {
			return nil, fmt.Errorf("%w: non-finite key", ErrCorrupt)
		}
	}
	return r, nil
}

// batchCount validates a batch body (u32 count + count*pairBytes) and
// returns the count.
func batchCount(body []byte, pairBytes int) (int, error) {
	if len(body) < 4 {
		return 0, fmt.Errorf("%w: batch body %d bytes", ErrCorrupt, len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	if n > MaxRecordPairs || len(body) != 4+n*pairBytes {
		return 0, fmt.Errorf("%w: batch count %d for %d body bytes", ErrCorrupt, n, len(body))
	}
	return n, nil
}

func decodeKeys(b []byte, n int) []float64 {
	keys := make([]float64, n)
	for i := range keys {
		keys[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return keys
}
