package obs

import (
	"bytes"
	"reflect"
	"testing"
)

// A flight dump is a file on disk that `snapifyctl analyze flight` reads
// back, possibly written by another build or cut short by a crash.
// FuzzDecodeFlightDump holds DecodeFlightDump to three properties: no
// input panics, a rejection is an error (never a nil dump without one),
// and an accepted dump re-encodes through JSON() into bytes that decode
// to the same dump and re-encode to the same bytes. Seeds, under
// testdata/fuzz/: a real Trigger dump, a truncated copy, and one whose
// embedded trace has an unsupported phase.
func FuzzDecodeFlightDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeFlightDump(data)
		if err != nil {
			if d != nil {
				t.Fatalf("rejected with %v but returned a dump", err)
			}
			return
		}
		if d == nil {
			t.Fatal("accepted input decoded to a nil dump")
		}
		b1, err := d.JSON()
		if err != nil {
			t.Fatalf("accepted dump does not re-encode: %v", err)
		}
		d2, err := DecodeFlightDump(b1)
		if err != nil {
			t.Fatalf("re-encoded dump rejected: %v\n%s", err, b1)
		}
		b2, err := d2.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("re-encoding is not a fixpoint:\n%s\n---\n%s", b1, b2)
		}
		// The trace is raw JSON, compared above as bytes; an empty
		// counter list and an absent one encode alike.
		d.Trace, d2.Trace = nil, nil
		if len(d.CounterDeltas) == 0 {
			d.CounterDeltas = nil
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip changed the dump: %+v vs %+v", d, d2)
		}
	})
}
