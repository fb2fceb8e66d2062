// Package leaf declares an //alex:atomic field for the atomicfield
// fixture to reach from another package, the way core reaches
// gapped.Array.Ver.
package leaf

// Base is the stand-in node header.
type Base struct {
	//alex:atomic
	Ver  uint64
	Keys []float64
}
