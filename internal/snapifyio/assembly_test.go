package snapifyio

import (
	"reflect"
	"testing"
)

// TestAssemblyCoverageMerge credits chunks into a striped assembly's
// coverage set and checks the merged spans: touching and overlapping
// credits collapse, disjoint ones stay apart in order, and a credit that
// bridges several spans absorbs them all.
func TestAssemblyCoverageMerge(t *testing.T) {
	for _, tc := range []struct {
		name    string
		credits []span
		want    []span
		covered int64
	}{
		{"empty credit ignored", []span{{5, 5}, {7, 3}}, nil, 0},
		{"touching", []span{{0, 10}, {10, 20}}, []span{{0, 20}}, 20},
		{"touching from below", []span{{10, 20}, {0, 10}}, []span{{0, 20}}, 20},
		{"overlapping", []span{{0, 10}, {5, 15}}, []span{{0, 15}}, 15},
		{"replay inside", []span{{0, 20}, {5, 10}}, []span{{0, 20}}, 20},
		{"replay after half", []span{{0, 5}, {0, 10}}, []span{{0, 10}}, 10},
		{"disjoint", []span{{0, 10}, {20, 30}}, []span{{0, 10}, {20, 30}}, 20},
		{"out of order", []span{{40, 50}, {0, 10}, {20, 30}}, []span{{0, 10}, {20, 30}, {40, 50}}, 30},
		{"bridge", []span{{0, 10}, {20, 30}, {40, 50}, {5, 45}}, []span{{0, 50}}, 50},
		{"bridge touching both", []span{{0, 10}, {20, 30}, {10, 20}}, []span{{0, 30}}, 30},
		{"between, no touch", []span{{0, 10}, {30, 40}, {15, 20}}, []span{{0, 10}, {15, 20}, {30, 40}}, 25},
		{"stripes interleaved", []span{{0, 4}, {16, 20}, {8, 12}, {4, 8}, {12, 16}}, []span{{0, 20}}, 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a assembly
			for _, c := range tc.credits {
				a.add(c.off, c.end)
			}
			if !reflect.DeepEqual(a.spans, tc.want) {
				t.Errorf("spans = %v, want %v", a.spans, tc.want)
			}
			if got := a.covered(); got != tc.covered {
				t.Errorf("covered = %d, want %d", got, tc.covered)
			}
		})
	}
}
