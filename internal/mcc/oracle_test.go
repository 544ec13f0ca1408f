package mcc_test

import (
	"fmt"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// TestIndexedOptMatchesReference requires the indexed propagate and
// localCSE to leave the same TAC as the map-scanning reference after
// every optimization pass, over the suite at -O0..-O3 and fixed-seed
// generated programs of every shape.
func TestIndexedOptMatchesReference(t *testing.T) {
	passes := 0
	check := func(name, src string, level int) {
		n, err := mcc.OptimizeOracle(src, level)
		if err != nil {
			t.Errorf("%s -O%d: %v", name, level, err)
		}
		passes += n
	}
	for _, bm := range bench.All() {
		for lvl := 0; lvl <= 3; lvl++ {
			check(bm.Name, bm.Source, lvl)
		}
	}
	for _, sh := range progen.Shapes() {
		for seed := int64(0); seed < 8; seed++ {
			check(fmt.Sprintf("%s/%d", sh.Name, seed), progen.Generate(seed, sh.Cfg).Source, int(seed)%4)
		}
	}
	if passes < 1000 {
		t.Fatalf("oracle compared only %d pass results", passes)
	}
	t.Logf("%d pass results identical", passes)
}
