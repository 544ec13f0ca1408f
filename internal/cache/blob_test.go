package cache

import (
	"bytes"
	"errors"
	"testing"
)

// TestSealOpen pins the checksum framing: round trip, and every way a
// blob can rot — truncation, bad magic, a flipped payload bit — must be
// detected and classified as ErrBlobCorrupt.
func TestSealOpen(t *testing.T) {
	payload := []byte("stage result bytes")
	blob := Seal(payload)
	got, err := Open(blob)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %q, %v", got, err)
	}
	if _, err := Open(Seal(nil)); err != nil {
		t.Errorf("empty payload: %v", err)
	}

	cases := map[string][]byte{
		"truncated header":  blob[:4],
		"truncated payload": blob[:len(blob)-3],
		"bad magic":         append([]byte("XXXX"), blob[4:]...),
		"raw pre-header":    payload,
	}
	flipped := append([]byte(nil), blob...)
	flipped[blobHeaderLen] ^= 0x40
	cases["flipped payload bit"] = flipped
	for name, b := range cases {
		if _, err := Open(b); !errors.Is(err, ErrBlobCorrupt) {
			t.Errorf("%s: err = %v, want ErrBlobCorrupt", name, err)
		}
	}
}
