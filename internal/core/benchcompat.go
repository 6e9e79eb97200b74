package core

import "io"

// This file keeps the five names the benchmark's traced run compiles
// against from before the serving layer had a single layout and a single
// snapshot writer. Product code calls none of them.

// ShardSeed was one shard's restored serving counters.
//
// Deprecated: bench/trace.go still names it; ROADMAP item 1(b)
// deletes it.
type ShardSeed struct {
	Epoch     uint64
	Publishes uint64
}

// RecoveryReport was what a partial snapshot load lost. Loads are
// never partial now, so it is always nil.
//
// Deprecated: bench/trace.go still names it; ROADMAP item 1(b)
// deletes it.
type RecoveryReport struct{}

// NewShardedViewPublisher is NewViewPublisher. The view has one layout,
// so shards must be 1 (it panics otherwise) and seeds are ignored.
//
// Deprecated: bench/trace.go calls it; ROADMAP item 1(b) deletes it.
// Use NewViewPublisher.
func NewShardedViewPublisher(pl *Pipeline, epoch uint64, shards int, seeds []ShardSeed) *ViewPublisher {
	if shards != 1 {
		panic("core: the view has one layout; shards must be 1")
	}
	return NewViewPublisher(pl, epoch)
}

// OpenServiceSnapshot is LoadServiceSnapshot with the old signature:
// allowPartial is ignored, and the seeds and the report are always nil.
//
// Deprecated: bench/trace.go calls it; ROADMAP item 1(b) deletes it.
// Use LoadServiceSnapshot.
func OpenServiceSnapshot(path string, allowPartial bool) (*Pipeline, uint64, []ShardSeed, *RecoveryReport, error) {
	pl, epoch, err := LoadServiceSnapshot(path)
	return pl, epoch, nil, nil, err
}

// SaveService writes the base snapshot of a pipeline at an epoch.
//
// Deprecated: bench/trace.go calls it; ROADMAP item 1(b) deletes it.
// Use NewViewPublisher(pl, epoch).Pin().Encode.
func SaveService(w io.Writer, pl *Pipeline, epoch uint64) error {
	return NewViewPublisher(pl, epoch).Pin().Encode(w)
}
