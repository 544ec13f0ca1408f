package core

import (
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/sim"
)

// TestSimCodecRoundTrip pins the simulation result's wire format: a
// profiled run must decode back to a deeply equal value.
func TestSimCodecRoundTrip(t *testing.T) {
	b, _ := bench.ByName("crc")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultConfig()
	cfg.Profile = true
	res, err := sim.Execute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	codec := SimCodec()
	blob, err := codec.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Errorf("sim result changed across the codec:\n got %+v\nwant %+v", got, res)
	}
}
