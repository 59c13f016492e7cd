package wire

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"
)

// sample exercises every field kind; fields is its one field list.
type sample struct {
	A    uint8
	B    int
	C    int
	D    int64
	Dur  time.Duration
	Flag bool
	S32  string
	S64  string
	L    []string
	N    []int
	Tail string
}

func (m *sample) fields(c *Cursor) {
	U8(c, &m.A)
	U16(c, &m.B)
	U32(c, &m.C)
	U64(c, &m.D)
	U64(c, &m.Dur)
	Bool(c, &m.Flag)
	Str32(c, &m.S32)
	Str64(c, &m.S64)
	List(c, U32[int], &m.L, Str32)
	n := len(m.N)
	U8(c, &n)
	Elems(c, &m.N, n, U64[int])
	Rest(c, &m.Tail)
}

func encodeSample(m *sample) []byte {
	c := Encoder()
	m.fields(c)
	return c.Bytes()
}

func TestRoundTripAndLayout(t *testing.T) {
	in := &sample{A: 0xAB, B: 0x1234, C: 0x01020304, D: -1, Dur: 1500 * time.Millisecond, Flag: true,
		S32: "hi", S64: "there", L: []string{"x", "yz"}, N: []int{7, 8}, Tail: "rest"}
	raw := encodeSample(in)
	want := []byte{0xAB, 0x12, 0x34, 1, 2, 3, 4,
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
		0, 0, 0, 0, 0x59, 0x68, 0x2F, 0, // 1.5e9
		1,
		0, 0, 0, 2, 'h', 'i',
		0, 0, 0, 0, 0, 0, 0, 5, 't', 'h', 'e', 'r', 'e',
		0, 0, 0, 2, 0, 0, 0, 1, 'x', 0, 0, 0, 2, 'y', 'z',
		2, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8,
		'r', 'e', 's', 't'}
	if !bytes.Equal(raw, want) {
		t.Fatalf("layout:\n got %x\nwant %x", raw, want)
	}
	var out sample
	c := Decoder(raw)
	out.fields(c)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&out, in) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, *in)
	}
}

// Every strict prefix of a message is rejected with ErrTruncated, decodes
// to zero values past the cut, and never panics. (The sample ends in a
// Rest field, which accepts any remainder — so cut a message without one.)
func TestEveryTruncationIsRejected(t *testing.T) {
	in := &sample{A: 1, B: 2, C: 3, D: 4, S32: "abc", S64: "defg", L: []string{"p", "q"}, N: []int{1}}
	raw := encodeSample(in)
	for k := 0; k < len(raw); k++ {
		var out sample
		c := Decoder(raw[:k])
		out.fields(c)
		if !errors.Is(c.Err(), ErrTruncated) {
			t.Fatalf("prefix %d of %d: err = %v, want ErrTruncated", k, len(raw), c.Err())
		}
	}
}

func TestTrailingBytesAndBadBoolAreRejected(t *testing.T) {
	var v uint8
	c := Decoder([]byte{1, 2})
	U8(c, &v)
	if c.Err() == nil {
		t.Fatal("trailing byte accepted")
	}
	var b bool
	c = Decoder([]byte{2})
	Bool(c, &b)
	if c.Err() == nil || b {
		t.Fatalf("boolean byte 2 decoded to %v with err %v", b, c.Err())
	}
}

// A count far beyond what the message holds must fail fast, not allocate.
func TestHostileCountsDoNotAllocate(t *testing.T) {
	raw := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 1, 'x'}
	var l []string
	c := Decoder(raw)
	List(c, U32[int], &l, Str32)
	if !errors.Is(c.Err(), ErrTruncated) || len(l) > 2 {
		t.Fatalf("err = %v, decoded %d elements", c.Err(), len(l))
	}
	var s string
	c = Decoder([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 'x'})
	Str64(c, &s)
	if !errors.Is(c.Err(), ErrTruncated) || s != "" {
		t.Fatalf("huge string length: err = %v, s = %q", c.Err(), s)
	}
	var n []int
	c = Decoder([]byte{0x80, 0, 0, 0, 0, 0, 0, 0})
	List(c, U64[int], &n, U64[int])
	if !errors.Is(c.Err(), ErrTruncated) {
		t.Fatalf("negative count: err = %v", c.Err())
	}
}

// A reused cursor codes each message exactly as a fresh one does: Reset
// drops what the encoder built, Load drops a decoder's position and its
// sticky error.
func TestReusedCursorsMatchFreshOnes(t *testing.T) {
	msgs := []*sample{
		{A: 1, S64: "a long string that outgrows the initial buffer capacity of sixty-four bytes", L: []string{"x"}},
		{A: 2, B: 3, Tail: "t"},
		{},
	}
	enc := Encoder()
	var dec Cursor
	for i, in := range msgs {
		enc.Reset()
		in.fields(enc)
		if want := encodeSample(in); !bytes.Equal(enc.Bytes(), want) {
			t.Fatalf("message %d: reused encoder built %x, want %x", i, enc.Bytes(), want)
		}
		raw := bytes.Clone(enc.Bytes())
		dec.Load(raw[:len(raw)/2])
		var cut sample
		cut.fields(&dec)
		if dec.Err() == nil && len(raw) > 1 {
			t.Fatalf("message %d: half a message decoded cleanly", i)
		}
		dec.Load(raw)
		var out sample
		out.fields(&dec)
		if err := dec.Err(); err != nil {
			t.Fatalf("message %d: reused decoder: %v", i, err)
		}
		if !reflect.DeepEqual(&out, in) {
			t.Fatalf("message %d: round trip:\n got %+v\nwant %+v", i, out, *in)
		}
	}
}

// A []byte field has a string field's layout and decodes to a slice of
// the message, not a copy.
func TestByteFieldsMatchStringsAndAlias(t *testing.T) {
	s32, tail := "abc", "rest"
	b32, btail := []byte(s32), []byte(tail)
	cs, cb := Encoder(), Encoder()
	Str32(cs, &s32)
	Rest(cs, &tail)
	Str32(cb, &b32)
	Rest(cb, &btail)
	if !bytes.Equal(cs.Bytes(), cb.Bytes()) {
		t.Fatalf("[]byte layout %x, string layout %x", cb.Bytes(), cs.Bytes())
	}
	raw := cb.Bytes()
	var got32, gotTail []byte
	c := Decoder(raw)
	Str32(c, &got32)
	Rest(c, &gotTail)
	if err := c.Err(); err != nil || string(got32) != s32 || string(gotTail) != tail {
		t.Fatalf("decoded %q, %q, err %v", got32, gotTail, err)
	}
	if &got32[0] != &raw[4] || &gotTail[0] != &raw[7] {
		t.Fatal("a decoded []byte field copies the message")
	}
}

// Prefix decodes a record from the front of a larger region: it reports
// what the record took and leaves the rest alone; a record cut short
// still fails.
func TestPrefixIgnoresWhatFollows(t *testing.T) {
	var v uint32
	c := Decoder([]byte{0, 0, 0, 7, 0xEE})
	U32(c, &v)
	if n, err := c.Prefix(); err != nil || n != 4 || v != 7 {
		t.Fatalf("Prefix() = %d, %v, v = %d", n, err, v)
	}
	if c.Err() == nil {
		t.Fatal("Err accepts the byte Prefix leaves")
	}
	c = Decoder([]byte{0, 0, 7})
	U32(c, &v)
	if _, err := c.Prefix(); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short record: Prefix err = %v", err)
	}
}
