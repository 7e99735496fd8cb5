package wire

import (
	"reflect"
	"testing"

	"asyncfd/internal/chen"
	"asyncfd/internal/core"
	"asyncfd/internal/core/tagset"
	"asyncfd/internal/heartbeat"
	"asyncfd/internal/phiaccrual"
)

// FuzzWireRoundTrip holds the decoder to its contract on arbitrary bytes,
// which is what a tcpnet peer can send: Decode never panics, and whatever it
// accepts re-encodes into bytes that decode to the same payload, with Size
// equal to the encoded length.
//
// The committed corpus (testdata/fuzz/FuzzWireRoundTrip) holds truncated,
// lying-count and non-canonical varint messages; the in-code seeds cover
// every message kind. CI runs this for a short budget on every push (see
// .github/workflows).
func FuzzWireRoundTrip(f *testing.F) {
	for _, p := range []any{
		core.Query{From: 3, Round: 77,
			Suspected: []tagset.Entry{{ID: 1, Tag: 5}, {ID: 200, Tag: 1 << 40}},
			Mistake:   []tagset.Entry{{ID: 2, Tag: 0}}},
		core.Response{From: 12, Round: 1 << 50},
		heartbeat.Message{From: 7, Seq: 123456},
		heartbeat.VectorMessage{From: 2, Vector: []uint64{0, 5, 1 << 33}},
		phiaccrual.Message{From: -1, Seq: 9},
		chen.Message{From: 4, Seq: 1},
	} {
		b, err := Encode(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			if p != nil {
				t.Fatalf("Decode(%x) returned %+v with error %v", data, p, err)
			}
			return
		}
		b, err := Encode(p)
		if err != nil {
			t.Fatalf("Encode(%+v) of a decoded payload: %v", p, err)
		}
		if got := Size(p); got != len(b) {
			t.Fatalf("Size(%+v) = %d, want len(Encode) = %d", p, got, len(b))
		}
		again, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)) = %v", p, err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip of %x: got %+v, want %+v", data, again, p)
		}
	})
}
