// Package wire is the one codec for the simulator's control protocols
// (every COI/Snapify channel and record, and the Snapify-IO daemon
// protocol): a cursor over big-endian fields that runs in either
// direction, so a message's field list is written once and serves both
// its encoder and its decoder.
//
//	func (m *drainResp) fields(c *wire.Cursor) {
//		wire.U64(c, &m.Duration)
//		wire.U64(c, &m.LocalStoreBytes)
//	}
//
// Decoding never trusts the peer: every read is bounds-checked, a read
// past the end latches a sticky error and yields zero values, and the
// caller checks Err once after the field list ran. Nothing here panics on
// any input.
package wire

import (
	"errors"
	"fmt"
)

// ErrTruncated reports a message shorter than its fields claim.
var ErrTruncated = errors.New("wire: truncated message")

// Cursor walks one message, appending fields (Encoder) or consuming them
// (Decoder).
type Cursor struct {
	buf []byte
	off int
	dec bool
	err error
}

// Encoder returns a cursor that builds a message. Most messages fit the
// initial capacity, so a one-off message costs the cursor and a single
// buffer; a connection that sends many Resets one cursor instead.
func Encoder() *Cursor { return &Cursor{buf: make([]byte, 0, 64)} }

// Decoder returns a cursor that consumes raw.
func Decoder(raw []byte) *Cursor { return &Cursor{buf: raw, dec: true} }

// Reset empties an encoder (never a decoder: its buffer is the peer's
// message) for its next message and keeps its buffer, so the bytes an
// earlier Bytes returned are overwritten: each message must go to
// something that copies it (a SCIF send does) before the next Reset.
func (c *Cursor) Reset() { *c = Cursor{buf: c.buf[:0]} }

// Load makes c a decoder that consumes raw from its start, whatever c was
// before, so one cursor decodes message after message.
func (c *Cursor) Load(raw []byte) { *c = Cursor{buf: raw, dec: true} }

// Bytes returns the message built so far.
func (c *Cursor) Bytes() []byte { return c.buf }

// Err returns the first decoding failure; once every field was consumed
// cleanly it also rejects bytes left over, so an accepted message is
// exactly its fields.
func (c *Cursor) Err() error {
	if c.err == nil && c.dec && c.off != len(c.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(c.buf)-c.off)
	}
	return c.err
}

// Prefix returns how many bytes a decoder consumed and its first failure,
// leaving the bytes after them alone: for a record decoded from the front
// of a larger fixed region.
func (c *Cursor) Prefix() (int, error) { return c.off, c.err }

// take consumes n bytes, or latches ErrTruncated and returns nil.
func (c *Cursor) take(n uint64) []byte {
	if c.err != nil || n > uint64(len(c.buf)-c.off) {
		if c.err == nil {
			c.err = ErrTruncated
		}
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

// Int is any integer type a fixed-width field can live in: message
// structs keep natural types (int, simclock.Duration, simnet.NodeID) and
// the field list names the width on the wire.
type Int interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

func fixed[T Int](c *Cursor, p *T, width int) {
	if !c.dec {
		for i := width - 1; i >= 0; i-- {
			c.buf = append(c.buf, byte(uint64(*p)>>(8*i)))
		}
		return
	}
	var v uint64
	for _, b := range c.take(uint64(width)) {
		v = v<<8 | uint64(b)
	}
	*p = T(v)
}

// U8 codes *p as one byte.
func U8[T Int](c *Cursor, p *T) { fixed(c, p, 1) }

// U16 codes *p as two big-endian bytes.
func U16[T Int](c *Cursor, p *T) { fixed(c, p, 2) }

// U32 codes *p as four big-endian bytes.
func U32[T Int](c *Cursor, p *T) { fixed(c, p, 4) }

// U64 codes *p as eight big-endian bytes (two's complement for signed
// types, so a negative int64 or Duration round-trips).
func U64[T Int](c *Cursor, p *T) { fixed(c, p, 8) }

// Bool codes *p as one byte, 0 or 1; any other value is malformed.
func Bool(c *Cursor, p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	U8(c, &v)
	if v > 1 && c.err == nil {
		c.err = fmt.Errorf("wire: boolean byte %d", v)
	}
	*p = v == 1
}

// Text is what a length-prefixed or to-the-end field can live in. A
// []byte field decodes to a slice of the message itself, not a copy.
type Text interface{ ~string | ~[]byte }

func text[T Text](c *Cursor, p *T, width int) {
	n := uint64(len(*p))
	fixed(c, &n, width)
	if c.dec {
		*p = T(c.take(n))
		return
	}
	c.buf = append(c.buf, *p...)
}

// Str32 codes *p behind a four-byte length.
func Str32[T Text](c *Cursor, p *T) { text(c, p, 4) }

// Str64 codes *p behind an eight-byte length.
func Str64[T Text](c *Cursor, p *T) { text(c, p, 8) }

// Rest codes *p as everything up to the end of the message.
func Rest[T Text](c *Cursor, p *T) {
	if c.dec {
		*p = T(c.take(uint64(len(c.buf) - c.off)))
		return
	}
	c.buf = append(c.buf, *p...)
}

// Elems codes the elements of *s with elem. Decoding reads n of them (n
// comes from a count field the caller already coded) and stops at the
// first failure, so a hostile count cannot make it allocate more than the
// message holds.
func Elems[E any](c *Cursor, s *[]E, n int, elem func(*Cursor, *E)) {
	if !c.dec {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	*s = nil
	if n < 0 && c.err == nil {
		c.err = ErrTruncated
	}
	for i := 0; i < n && c.err == nil; i++ {
		var e E
		elem(c, &e)
		*s = append(*s, e)
	}
}

// List codes *s as a count (coded by count) followed by its elements.
func List[E any](c *Cursor, count func(*Cursor, *int), s *[]E, elem func(*Cursor, *E)) {
	n := len(*s)
	count(c, &n)
	Elems(c, s, n, elem)
}
