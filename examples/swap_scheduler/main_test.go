package main

import (
	"io"
	"testing"
)

// TestSwapSchedulerSharesCard runs the example: three tenants that do
// not fit the card together must each finish with the uninterrupted
// reference checksum, having been swapped out to make room.
func TestSwapSchedulerSharesCard(t *testing.T) {
	res, err := run(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.checksums) != jobs {
		t.Fatalf("%d jobs reported, want %d", len(res.checksums), jobs)
	}
	for i, sum := range res.checksums {
		if sum != res.want {
			t.Errorf("job %d checksum %#x, want the reference %#x", i+1, sum, res.want)
		}
	}
	if res.swapOuts < 2 {
		t.Errorf("%d swap-outs; three tenants cannot share the card without swapping", res.swapOuts)
	}
}
