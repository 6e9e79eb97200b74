package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"iuad/internal/synth"
)

// smallBase fits a tiny synthetic corpus (12 papers, 7 vertices, a
// model), streams a batch onto it and returns the pipeline with its base
// snapshot at epoch 1: small enough for the fuzzer to mutate quickly.
func smallBase(t testing.TB) (*Pipeline, []byte) {
	t.Helper()
	scfg := synth.DefaultConfig()
	scfg.Seed = 4
	scfg.Authors = 4
	scfg.Communities = 1
	scfg.Vocabulary = 30
	d := synth.Generate(scfg)
	cfg := fastCoreConfig()
	cfg.Workers = 1
	cfg.Embedding.Dim = 2
	pl, err := Run(d.Corpus, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pl.AddPapers(context.Background(), streamBatch(d, 2)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewViewPublisher(pl, 1).Pin().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return pl, buf.Bytes()
}

// decodeBytes is readBase over an in-memory base.
func decodeBytes(b []byte) (*Pipeline, uint64, error) {
	return readBase(bytes.NewReader(b), int64(len(b)))
}

// TestRemergeAtWithoutPairScores: RemergeAt on a pipeline without the
// fit-only state — released, or loaded from a base, which never carries
// it — returns nil instead of dereferencing the missing SCN.
func TestRemergeAtWithoutPairScores(t *testing.T) {
	pl, base := smallBase(t)
	if pl.RemergeAt(0) == nil || len(pl.ScoredPairs()) == 0 {
		t.Fatal("a fresh fit has no pair scores to re-merge")
	}
	loaded, _, err := decodeBytes(base)
	if err != nil {
		t.Fatal(err)
	}
	pl.ReleaseFitState()
	for name, p := range map[string]*Pipeline{"released": pl, "loaded": loaded} {
		if p.SCN != nil || p.ScoredPairs() != nil || p.TrainingPairs != 0 {
			t.Errorf("%s pipeline holds fit-only state", name)
		}
		if net := p.RemergeAt(0); net != nil {
			t.Errorf("%s pipeline: RemergeAt = %d vertices, want nil", name, net.VertexCount())
		}
	}
}

// FuzzDecodeBase feeds mutated base bodies to the decoder. The harness
// appends a fresh CRC-32C, so a mutation reaches the decode instead of
// stopping at the trailer. Decoding never panics, and a body it accepts
// encodes again to bytes that decode and re-encode unchanged.
func FuzzDecodeBase(f *testing.F) {
	_, base := smallBase(f)
	f.Add(base[:len(base)-crcLen])
	f.Fuzz(func(t *testing.T, body []byte) {
		b := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.Checksum(body, castagnoli))
		pl, epoch, err := decodeBytes(b)
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := NewViewPublisher(pl, epoch).Pin().Encode(&again); err != nil {
			t.Fatalf("re-encode of an accepted base: %v", err)
		}
		pl2, epoch2, err := decodeBytes(again.Bytes())
		if err != nil {
			t.Fatalf("re-encoded base refused: %v", err)
		}
		var third bytes.Buffer
		if err := NewViewPublisher(pl2, epoch2).Pin().Encode(&third); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), third.Bytes()) {
			t.Fatalf("decode → encode is not byte-stable (%d vs %d bytes)", again.Len(), third.Len())
		}
	})
}
