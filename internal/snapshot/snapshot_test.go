package snapshot

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 3)
	w.Uvarint(42)
	w.Varint(-7)
	w.Int(123456)
	w.Bool(true)
	w.Bool(false)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.String("héllo")
	w.String("")
	w.Bytes([]byte{1, 2, 3})
	w.Strings([]string{"a", "", "c"})
	w.Uvarint(2) // an []int32 is a length and signed varints
	w.Varint(-5)
	w.Varint(5)
	w.F64s([]float64{1.5, -0.25})
	w.F32s([]float32{float32(math.E), -0})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Uvarint(); got != 42 {
		t.Fatalf("uvarint=%d", got)
	}
	if got := r.Varint(); got != -7 {
		t.Fatalf("varint=%d", got)
	}
	if got := r.Int(); got != 123456 {
		t.Fatalf("int=%d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bools")
	}
	if got := r.F64(); got != math.Pi {
		t.Fatalf("f64=%v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Fatalf("f64 inf=%v", got)
	}
	if got := r.String(); got != "héllo" {
		t.Fatalf("string=%q", got)
	}
	if got := r.String(); got != "" {
		t.Fatalf("empty string=%q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("bytes=%v", got)
	}
	if got := r.Strings(); !reflect.DeepEqual(got, []string{"a", "", "c"}) {
		t.Fatalf("strings=%v", got)
	}
	if got := r.Int32s(); !reflect.DeepEqual(got, []int32{-5, 5}) {
		t.Fatalf("int32s=%v", got)
	}
	if got := r.F64s(); !reflect.DeepEqual(got, []float64{1.5, -0.25}) {
		t.Fatalf("f64s=%v", got)
	}
	got := r.F32s()
	if len(got) != 2 || got[0] != float32(math.E) {
		t.Fatalf("f32s=%v", got)
	}
	if math.Float32bits(got[1]) != math.Float32bits(-0) {
		t.Fatalf("f32 -0 bits=%x", math.Float32bits(got[1]))
	}
	r.ExpectEOF()
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestHeaderAndTrailingBytes(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1004)
	w.Uvarint(7)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(strings.NewReader("IUADSN"), 1004); err == nil {
		t.Fatal("short magic accepted")
	}
	r, err := NewReader(bytes.NewReader(append(buf.Bytes(), 0)), 1004)
	if err != nil {
		t.Fatal(err)
	}
	if r.Uvarint() != 7 {
		t.Fatal("uvarint")
	}
	if r.ExpectEOF(); r.Err() == nil {
		t.Fatal("a byte after the stream was accepted")
	}

	buf.Reset()
	w = NewWriter(&buf, 1)
	w.Int(3)
	w.Int(-2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if r, err = NewReader(&buf, 1); err != nil {
		t.Fatal(err)
	}
	if n := r.Count("things"); n != 3 || r.Err() != nil {
		t.Fatalf("Count = %d, %v; want 3", n, r.Err())
	}
	if n := r.Count("things"); n != 0 || r.Err() == nil || !strings.Contains(r.Err().Error(), "-2 things") {
		t.Fatalf("negative Count = %d, %v; want 0 and an error naming -2 things", n, r.Err())
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOTASNAP\x01"), 1); err == nil {
		t.Fatal("bad magic accepted")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var ve *VersionError
	if _, err := NewReader(&buf, 1); !errors.As(err, &ve) || ve.Version != 2 || ve.Want != 1 || ve.LastBuild != "" {
		t.Fatalf("version mismatch = %v, want a *VersionError for 2 with no last build", err)
	}
	buf.Reset()
	if err := NewWriter(&buf, 2).Close(); err != nil {
		t.Fatal(err)
	}
	if r, err := NewReader(&buf, 3, 2); err != nil || r.Version() != 2 {
		t.Fatalf("an older version the caller still reads = %v, want it read as version 2", err)
	}
	buf.Reset()
	if err := NewWriter(&buf, 2001).Close(); err != nil {
		t.Fatal(err)
	}
	_, err := NewReader(&buf, 2002)
	if !errors.As(err, &ve) || ve.Version != 2001 || ve.LastBuild != "13f9370" || !strings.Contains(err.Error(), "13f9370") {
		t.Fatalf("retired version = %v, want a *VersionError for 2001 naming build 13f9370", err)
	}
}

func TestTruncatedStreamSticksError(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 1)
	w.String("abcdef")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	r, err := NewReader(bytes.NewReader(b[:len(b)-3]), 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.String()
	if r.Err() == nil {
		t.Fatal("truncated body not detected")
	}
	// Subsequent reads stay failed and return zero values.
	if got := r.Uvarint(); got != 0 {
		t.Fatalf("post-error read=%d", got)
	}
	if r.Err() == nil {
		t.Fatal("error not sticky")
	}
}
