package core

// This file defines the sharding key of the serving layer: same-name
// blocks are the unit of state (as they are the unit of stage-2 work),
// and a block is owned by exactly one shard, chosen by hashing the
// author-name string. Hashing the *string* — not the interned ID —
// keeps the placement stable across restarts, snapshot restores, and
// intern-order differences, so a snapshot saved with N shards can be
// reloaded and re-partitioned under any runtime shard count.
//
// Because a block never spans shards, everything keyed by a name
// (its vertices, their slots, the byName index entry) lives wholly in
// one shard, and a write batch touches exactly the shards of the
// batch's author names. Kim's scale-free analysis (PAPERS.md) says
// block sizes are heavy-tailed but individually tiny relative to the
// corpus, so hash placement balances load without splitting blocks.

// MaxShards bounds the shard count; the per-vertex shard column is a
// byte, which keeps the routing spine at one byte per author.
const MaxShards = 256

// NormShards clamps a requested shard count into [1, MaxShards].
func NormShards(n int) int {
	if n < 1 {
		return 1
	}
	if n > MaxShards {
		return MaxShards
	}
	return n
}

// ShardOfName returns the shard owning the name block, via FNV-1a over
// the name string. Deterministic across processes and independent of
// interning order.
func ShardOfName(name string, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// ShardInfo is the point-in-time summary of one shard, served by the
// /shards debug endpoint: its last-touch epoch, how many publishes
// touched it, and the authors and assigned slots it owns.
type ShardInfo struct {
	Shard     int    `json:"shard"`
	Epoch     uint64 `json:"epoch"`
	Publishes uint64 `json:"publishes"`
	Authors   int    `json:"authors"`
	Slots     int    `json:"slots"`
}

// ShardSeed restores one shard's serving counters (last-touch epoch and
// publish count) from a composite snapshot manifest. Seeds only apply
// when the runtime shard count equals the saved one; placement itself
// is always re-derived from the name hash.
type ShardSeed struct {
	Epoch     uint64
	Publishes uint64
}

// ContentionStats is the write-path contention and copy accounting of
// the view publisher: how long a commit waited for the service's write
// lock, and how much base+delta state publishing re-copied. All
// counters are cumulative since the publisher was built.
type ContentionStats struct {
	Shards int `json:"shards"`
	// Publishes counts published epochs.
	Publishes int64 `json:"publishes"`
	// IngestWaitNs is time commits spent waiting for the service's
	// write lock. The commit turn already serializes commits, so this
	// only counts waits behind a compaction's pin and cut, a Save or a
	// Close.
	IngestWaitNs int64 `json:"ingest_wait_ns"`
	// ApplyWaitNs is always 0: publishes have one writer and take no
	// lock of their own. The field stays because the benchmark reports
	// it as core.view.apply_wait_ms.
	ApplyWaitNs int64 `json:"apply_wait_ns"`
	// DeltaEntriesCopied counts base+delta map entries re-copied at
	// publish time; sharding shrinks it because only the touched
	// shard's delta (≈1/N of the total) is copied per publish.
	DeltaEntriesCopied int64 `json:"delta_entries_copied"`
	// Flattens counts delta→base folds across all shards.
	Flattens int64 `json:"flattens"`
}
