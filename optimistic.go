//go:build !race

package alex

// optimisticReads enables the seqlock-style lock-free read path of
// SyncIndex and ShardedIndex.
//
// The protocol is a classic sequence lock at two granularities. A
// point read (Get, Contains) validates against the sequence word of
// the one data array it probes (gapped.Array.Ver, read through
// core.Tree.GetValidated): every in-place slot write makes that word
// odd before it starts and even after it ends, and the reader waits
// for an even word (a bounded spin), probes with plain loads, and
// trusts the result only if the word is unchanged. A write to any
// other leaf never disturbs it. The batch and scan probes span many
// leaves, so they validate against the wrapper's sequence word (the
// shard's, for ShardedIndex), which every write bumps under the write
// lock. The speculative probe intentionally races with writers on slot
// *values* — that is the entire point; any value read during a
// mutation is thrown away by the revalidation.
//
// Structure, by contrast, no longer races at all: every node reference
// in internal/core is an atomic.Pointer, restructures (expand, retrain,
// split, merge, redistribute) build their replacement off to the side
// and publish it with a single atomic store; the garbage collector frees
// a replaced structure once no reader or snapshot references it. A
// replaced array is never written again, so its word stays even and a reader
// still probing it gets a stale answer that was current when it loaded
// the array pointer — linearizable at that instant. A speculative
// probe therefore always walks a tree that was fully constructed at
// some instant — it can observe a *stale* leaf but never a torn one,
// so the probe cannot fault. The remaining racy reads are confined to
// slot values inside a data node (keys, payloads, occupancy words)
// during in-place writes, which the validation discards. The batch and
// scan probes keep a recover frame as defense-in-depth, not because a
// fault path is known.
//
// The race detector cannot model "racy value read, then revalidate and
// discard", so under `-race` builds this constant disables the
// speculation and every read takes the RLock fallback path. The
// structural path needs no such opt-out — atomic publication is
// race-clean and `-race` exercises it as-is; only the seqlock value
// reads are compiled out. See docs/concurrency.md for the full memory
// model.
const optimisticReads = true

// raceEnabled mirrors the race detector's presence for tests that need
// to know which read path is live.
const raceEnabled = false

// optimisticRetries bounds how many times a reader re-attempts the
// lock-free probe before giving up and taking the read lock. A failed
// attempt means a writer was mid-mutation; retrying once or twice
// bridges short mutations without spinning against a long rebuild.
const optimisticRetries = 3
