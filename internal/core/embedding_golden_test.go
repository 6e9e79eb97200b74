package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"iuad/internal/snapshot"
	"iuad/internal/synth"
	"iuad/internal/textvec"
)

// embeddingHash is FNV-64a over the little-endian bit patterns of every
// vector, in vocabulary order (most frequent first: the order the
// snapshot encoding lists the words in).
func embeddingHash(emb *textvec.Embeddings) string {
	var enc bytes.Buffer
	sw := snapshot.NewWriter(&enc, 0)
	emb.EncodeSnapshot(sw)
	sw.Close()
	sr, _ := snapshot.NewReader(&enc, 0)
	sr.Int() // dim
	h := fnv.New64a()
	var buf [4]byte
	for _, w := range sr.Strings() {
		v, _ := emb.Vector(w)
		for _, x := range v {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestTrainEmbeddingsGolden pins the embedding the server actually fits,
// bit for bit. The hash was computed at the commit before the trainer
// became a sample stream feeding a fused step kernel; a trainer that is
// only faster leaves it unchanged. Every F1 pin downstream (golden_test,
// the accuracy bands, the benchmark's smoke pins) depends on these bytes.
func TestTrainEmbeddingsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash measured on amd64; math.Exp and math.Pow may differ in the last bit elsewhere")
	}
	if testing.Short() {
		t.Skip("full-size embedding fit")
	}
	// The base library of a benchmark cold start: the first 10,000 papers
	// of the 24,000-paper synthetic corpus. The server gets them without
	// labels; the embedding reads titles only, so Subset's copy serves.
	corpus := synth.Generate(synth.ScaleConfig(24000, 1)).Corpus.Subset(10000)
	emb := TrainEmbeddings(corpus, DefaultConfig().Embedding)
	if got, want := emb.Len(), 2146; got != want {
		t.Errorf("vocabulary %d, want %d", got, want)
	}
	if got, want := embeddingHash(emb), "f2277ad80beecd45"; got != want {
		t.Errorf("embedding hash %s, want %s", got, want)
	}
}
