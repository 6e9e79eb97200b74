// Package snapshot provides the versioned binary encoding primitives
// behind the base snapshot (internal/core) and the journal's record
// payloads (internal/wal): a sticky-error Writer/Reader pair over a
// magic-tagged, varint-encoded stream. Each layer of the system (bib, textvec, emfit, core) encodes
// its own state with these primitives, so unexported fields never leak
// across package boundaries and the wire format lives in one place.
//
// Format: the stream opens with an 8-byte magic ("IUADSNAP") and a
// uvarint format version. Everything after is a flat sequence of
// primitives; there is no self-description, so any layout change MUST
// bump the writer's version, and readers reject versions they don't
// know. Integers are varints, float64/float32 are IEEE-754 bit patterns
// (little-endian), strings and byte blobs are length-prefixed. The
// stream has no checksum: the base snapshot appends a CRC-32C and each
// journal record carries an FNV-64a in its frame.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic identifies a snapshot stream.
const Magic = "IUADSNAP"

// maxLen bounds any single length prefix (strings, slices) so a corrupt
// stream cannot claim absurd sizes outright; combined with chunked
// slice growth (allocChunk) a bad prefix costs at most one chunk of
// memory before the truncated body latches an error.
const maxLen = 1 << 31

// allocChunk caps the up-front capacity of any decoded slice; longer
// slices grow as their elements actually arrive, so allocation tracks
// real stream content, not the untrusted length prefix.
const allocChunk = 1 << 16

// Writer encodes primitives onto an io.Writer. Errors are sticky: the
// first failure latches and every later call is a no-op, so encode code
// can run straight-line and check Close once.
type Writer struct {
	w   *bufio.Writer
	err error
}

// NewWriter starts a snapshot stream: magic plus format version.
func NewWriter(w io.Writer, version uint64) *Writer {
	sw := &Writer{w: bufio.NewWriter(w)}
	if _, err := sw.w.WriteString(Magic); err != nil {
		sw.err = err
	}
	sw.Uvarint(version)
	return sw
}

// Err returns the latched error, if any.
func (w *Writer) Err() error { return w.err }

// Close flushes the stream and returns the latched error.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// Varint writes a signed varint (zigzag).
func (w *Writer) Varint(v int64) {
	if w.err != nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutVarint(buf[:], v)
	_, w.err = w.w.Write(buf[:n])
}

// Int writes an int as a signed varint.
func (w *Writer) Int(v int) { w.Varint(int64(v)) }

// Bool writes a boolean byte.
func (w *Writer) Bool(v bool) {
	b := uint64(0)
	if v {
		b = 1
	}
	w.Uvarint(b)
}

// F64 writes a float64 as its IEEE-754 bit pattern — an exact
// round-trip, no decimal formatting involved.
func (w *Writer) F64(v float64) { w.fixed64(math.Float64bits(v)) }

func (w *Writer) fixed64(v uint64) {
	if w.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	_, w.err = w.w.Write(buf[:])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.WriteString(s)
}

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(b)
}

// Strings writes a length-prefixed string slice.
func (w *Writer) Strings(s []string) {
	w.Uvarint(uint64(len(s)))
	for _, x := range s {
		w.String(x)
	}
}

// Int32s writes a length-prefixed []int32 as signed varints.
func (w *Writer) Int32s(s []int32) {
	w.Uvarint(uint64(len(s)))
	for _, x := range s {
		w.Varint(int64(x))
	}
}

// F64s writes a length-prefixed []float64 (bit patterns).
func (w *Writer) F64s(s []float64) {
	w.Uvarint(uint64(len(s)))
	for _, x := range s {
		w.F64(x)
	}
}

// F32s writes a length-prefixed []float32 (bit patterns).
func (w *Writer) F32s(s []float32) {
	w.Uvarint(uint64(len(s)))
	if w.err != nil {
		return
	}
	var buf [4]byte
	for _, x := range s {
		binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
		if _, err := w.w.Write(buf[:]); err != nil {
			w.err = err
			return
		}
	}
}

// Reader decodes a stream produced by Writer. Errors are sticky; decode
// code runs straight-line and checks Err at the end. After any error,
// value-returning methods yield zero values.
type Reader struct {
	r   *bufio.Reader
	err error
}

// ErrFormat reports a stream that is not a snapshot, or that has bytes
// after its end.
type ErrFormat struct{ msg string }

func (e *ErrFormat) Error() string { return "snapshot: " + e.msg }

// retired maps each format version an earlier build wrote, and this one
// no longer reads, to the last build that reads it. The base snapshot
// (internal/core) and the journal record (internal/wal) share one
// version space: 1 and 1000+ are bases, 2000+ records. DESIGN.md §6 has
// the upgrade path.
var retired = map[uint64]string{
	1:    "c7cccf9", // the pipeline snapshot
	1001: "13f9370", // the base without the CRC-32C trailer
	1002: "3d80390", // the sharded composite base: its manifest
	1003: "3d80390", // the sharded composite base: a shard segment
	2001: "13f9370", // the journal record without the previous outcome
}

// VersionError reports a stream in a format version this build does not
// read. Match it with errors.As.
type VersionError struct {
	Version uint64 // the stream's version
	Want    uint64 // the version this build reads
	// LastBuild is the last build that reads Version, for a version an
	// earlier build wrote; "" for a version no build wrote.
	LastBuild string
}

func (e *VersionError) Error() string {
	if e.LastBuild == "" {
		return fmt.Sprintf("snapshot: version %d, this build reads %d", e.Version, e.Want)
	}
	return fmt.Sprintf("snapshot: version %d is retired, this build reads %d; build %s is the last that reads %d (open it once with that build and close it to upgrade)",
		e.Version, e.Want, e.LastBuild, e.Version)
}

// NewReader validates the magic and version and returns a reader.
// wantVersion is the only version the caller understands; any other is
// a *VersionError.
func NewReader(r io.Reader, wantVersion uint64) (*Reader, error) {
	sr := &Reader{r: bufio.NewReader(r)}
	v, err := sr.header()
	if err == nil && v != wantVersion {
		err = &VersionError{Version: v, Want: wantVersion, LastBuild: retired[v]}
	}
	if err != nil {
		return nil, err
	}
	return sr, nil
}

func (r *Reader) header() (uint64, error) {
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(r.r, magic); err != nil {
		return 0, &ErrFormat{msg: "not a snapshot (short magic): " + err.Error()}
	}
	if string(magic) != Magic {
		return 0, &ErrFormat{msg: fmt.Sprintf("bad magic %q", magic)}
	}
	v := r.Uvarint()
	return v, r.err
}

// Err returns the latched error, if any.
func (r *Reader) Err() error { return r.err }

// ExpectEOF latches an error unless the stream is exhausted.
func (r *Reader) ExpectEOF() {
	if _, err := r.r.Peek(1); err == nil {
		r.fail(&ErrFormat{msg: "bytes after the end of the stream"})
	} else if err != io.EOF {
		r.fail(err)
	}
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("snapshot: uvarint: %w", err))
		return 0
	}
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	if err != nil {
		r.fail(fmt.Errorf("snapshot: varint: %w", err))
		return 0
	}
	return v
}

// Int reads an int.
func (r *Reader) Int() int { return int(r.Varint()) }

// Count reads an element count written with Writer.Int and latches an
// error naming what when it is negative.
func (r *Reader) Count(what string) int {
	n := r.Int()
	if n < 0 {
		r.fail(&ErrFormat{msg: fmt.Sprintf("%d %s", n, what)})
		return 0
	}
	return n
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.Uvarint() != 0 }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.fixed64()) }

func (r *Reader) fixed64() uint64 {
	if r.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(r.r, buf[:]); err != nil {
		r.fail(fmt.Errorf("snapshot: fixed64: %w", err))
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

// length reads and bounds a length prefix.
func (r *Reader) length() int {
	n := r.Uvarint()
	if n > maxLen {
		r.fail(&ErrFormat{msg: fmt.Sprintf("length %d exceeds limit", n)})
		return 0
	}
	return int(n)
}

// startCap bounds an initial slice capacity by allocChunk.
func startCap(n int) int {
	if n > allocChunk {
		return allocChunk
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.length()
	if r.err != nil || n == 0 {
		return ""
	}
	return string(r.body(n, "string"))
}

// Bytes reads a length-prefixed byte blob.
func (r *Reader) Bytes() []byte {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	return r.body(n, "bytes")
}

// body reads n raw bytes. Small bodies (the overwhelmingly common
// case: titles, names, venues) read directly into their final buffer;
// larger ones grow chunk by chunk, so a corrupt length prefix costs at
// most one chunk of memory before the truncated body errors out.
func (r *Reader) body(n int, what string) []byte {
	if n <= allocChunk {
		out := make([]byte, n)
		if _, err := io.ReadFull(r.r, out); err != nil {
			r.fail(fmt.Errorf("snapshot: %s body: %w", what, err))
			return nil
		}
		return out
	}
	out := make([]byte, 0, allocChunk)
	chunk := make([]byte, allocChunk)
	for n > 0 {
		c := n
		if c > len(chunk) {
			c = len(chunk)
		}
		if _, err := io.ReadFull(r.r, chunk[:c]); err != nil {
			r.fail(fmt.Errorf("snapshot: %s body: %w", what, err))
			return nil
		}
		out = append(out, chunk[:c]...)
		n -= c
	}
	return out
}

// Strings reads a length-prefixed string slice.
func (r *Reader) Strings() []string {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]string, 0, startCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.String())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// Int32s reads a length-prefixed []int32.
func (r *Reader) Int32s() []int32 {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]int32, 0, startCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, int32(r.Varint()))
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F64s reads a length-prefixed []float64.
func (r *Reader) F64s() []float64 {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float64, 0, startCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.F64())
	}
	if r.err != nil {
		return nil
	}
	return out
}

// F32s reads a length-prefixed []float32.
func (r *Reader) F32s() []float32 {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]float32, 0, startCap(n))
	var buf [4]byte
	for i := 0; i < n; i++ {
		if _, err := io.ReadFull(r.r, buf[:]); err != nil {
			r.fail(fmt.Errorf("snapshot: f32 body: %w", err))
			return nil
		}
		out = append(out, math.Float32frombits(binary.LittleEndian.Uint32(buf[:])))
	}
	return out
}
