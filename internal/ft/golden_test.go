package ft_test

// External tests of the input layer on the generator's trees: pinned
// canonical hashes (the mpmcsd cache key and the
// GET /v1/solutions/{hash} address) and a deterministic allocation
// bound on parse + hash. They live outside package ft because
// internal/gen imports it.

import (
	"bytes"
	"strings"
	"testing"

	"mpmcs4fta/internal/ft"
	"mpmcs4fta/internal/gen"
)

// pinned300 is the 300-event random tree the golden and allocation
// tests share.
func pinned300(t testing.TB) *ft.Tree {
	t.Helper()
	tree, err := gen.Random(gen.Config{Events: 300, VotingFrac: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestCanonicalHashGolden pins the digest of the named trees and of one
// random tree. A change to any value invalidates every cached solution
// and every hash a client has stored, so it must be deliberate. Each
// tree is also hashed after a JSON round trip, which is how mpmcsd sees
// it.
func TestCanonicalHashGolden(t *testing.T) {
	cases := []struct {
		tree *ft.Tree
		want string
	}{
		{gen.FPS(), "sha256:4c7a12bd689edb23185bbe6fc150bb7045148af706db5fb378398b753c92f197"},
		{gen.PressureTank(), "sha256:13aea20018cc4dd1d4fad97b05ad5c73b1873761eaa90b6b3463a12c39a02788"},
		{gen.RedundantSCADA(), "sha256:bc4651db4b713b5a0b30c39d962b7d87a922297d2240385bbec8952b547e328b"},
		{gen.ReactorProtection(), "sha256:9b91f22bfe142d0307c31b870d7e5cf0830dda013c10794d0934ae5d10fff51a"},
		{gen.RailwayCrossing(), "sha256:042a18df9a7b7ebc24f9d482b45c872f471c8c7dda989fb792bc682ae12cccac"},
		{pinned300(t), "sha256:20db8fde5d5a6a4d542cff61da5a4ec7813e75faf12390e8d322ae4c793c646f"},
	}
	for _, tc := range cases {
		t.Run(tc.tree.Name(), func(t *testing.T) {
			got, err := ft.CanonicalHash(tc.tree)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Errorf("hash = %s, want %s", got, tc.want)
			}
			var buf bytes.Buffer
			if err := tc.tree.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := ft.ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got, err := ft.CanonicalHash(back); err != nil || got != tc.want {
				t.Errorf("after a JSON round trip: hash = %s (%v), want %s", got, err, tc.want)
			}
		})
	}
}

// TestInputAllocsGuard bounds the allocations of reading and hashing
// the pinned 300-event tree: the work of a cache hit before the
// response. The count repeats exactly, unlike a timing. The encoding/json
// reader with a per-node hasher took 4,193; this reader and hasher take about 80.
func TestInputAllocsGuard(t *testing.T) {
	var buf bytes.Buffer
	if err := pinned300(t).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	const bound = 200
	allocs := testing.AllocsPerRun(20, func() {
		tree, err := ft.ReadJSON(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ft.CanonicalHash(tree); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ReadJSON + CanonicalHash: %.0f allocs", allocs)
	if allocs > bound {
		t.Errorf("ReadJSON + CanonicalHash: %.0f allocs, bound %d", allocs, bound)
	}
}

// BenchmarkReadJSON reads the pinned 300-event tree as the repository
// writes it, and in two forms outside the single scan's subset that
// fall back to encoding/json: every event with an escaped description
// (as Python's json.dumps writes non-ASCII text by default), and every
// event with a null description.
//
//	go test -run='^$' -bench=BenchmarkReadJSON -benchmem ./internal/ft
func BenchmarkReadJSON(b *testing.B) {
	var buf bytes.Buffer
	if err := pinned300(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	writer := buf.String()
	for _, bc := range []struct{ name, body string }{
		{"writer", writer},
		{"escaped", strings.ReplaceAll(writer, `"probability"`, `"description": "caf\u00e9", "probability"`)},
		{"null", strings.ReplaceAll(writer, `"probability"`, `"description": null, "probability"`)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			body := []byte(bc.body)
			b.SetBytes(int64(len(body)))
			for b.Loop() {
				if _, err := ft.ReadJSON(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
