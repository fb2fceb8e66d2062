// Package atomicfield is an alexvet fixture: atomic-typed and
// //alex:atomic-annotated fields copied, overwritten, or leaked, next
// to the atomic access shapes the analyzer must accept.
package atomicfield

import (
	"sync/atomic"

	"repro/internal/lint/testdata/src/atomicfield/internal/leaf"
)

type node struct{ next *node }

type table struct {
	head atomic.Pointer[node]
	cnt  atomic.Uint64
	//alex:atomic
	word uint32
}

func good(t *table, n *node) {
	t.head.Store(n)
	_ = t.head.Load()
	t.cnt.Add(1)
	atomic.AddUint32(&t.word, 1)
	_ = atomic.LoadUint32(&t.word)
	p := &t.cnt
	p.Add(1)
}

func copies(t *table) atomic.Uint64 {
	return t.cnt // want `used as a value`
}

func overwrite(t *table) {
	t.cnt = atomic.Uint64{} // want `overwrites atomic field`
}

func plainStore(t *table) {
	t.word = 1 // want `accessed non-atomically`
}

func escape(t *table) *uint32 {
	return &t.word // want `escapes outside a sync/atomic call`
}

// array embeds an imported header with an annotated field: the
// annotation travels with the field into this package.
type array struct {
	leaf.Base
}

func importedGood(a *array, b *leaf.Base) {
	atomic.AddUint64(&a.Ver, 1)
	_ = atomic.LoadUint64(&b.Ver)
	_ = a.Keys
}

func importedPlain(a *array) uint64 {
	a.Ver++      // want `accessed non-atomically`
	return a.Ver // want `accessed non-atomically`
}
