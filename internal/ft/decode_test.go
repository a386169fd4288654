package ft

// The single-scan decoder against its encoding/json reference. The
// oracle fuzz target holds the two to the same meaning on any input;
// the writer test holds the scanner to answering, rather than falling
// back, on the documents the repository writes.
//
//	go test -run='^$' -fuzz=FuzzReadJSONOracle -fuzztime=30s ./internal/ft

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func nodeIDs(t *Tree) (events, gates []string) {
	for _, e := range t.Events() {
		events = append(events, e.ID)
	}
	for _, g := range t.Gates() {
		gates = append(gates, g.ID)
	}
	return events, gates
}

func FuzzReadJSONOracle(f *testing.F) {
	for _, seed := range []string{
		`{"name":"demo","top":"g","events":[{"id":"a","probability":0.1},{"id":"b","probability":0.2}],"gates":[{"id":"g","type":"and","inputs":["a","b"]}]}`,
		`{"top":"g","events":[{"id":"a","probability":0.5},{"id":"b","probability":0.5},{"id":"c","probability":0.5}],"gates":[{"id":"g","type":"voting","k":2,"inputs":["a","b","c"]}]}`,
		// Escapes, non-ASCII text, nulls.
		`{"top":"g","events":[{"id":"a\u0062","description":"two\nlines","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["ab"]}]}`,
		`{"top":"g","events":[{"id":"a\"1","probability":0.1},{"id":"b","probability":0.2}],"gates":[{"id":"g","type":"or","inputs":["a\"1","b"]}]}`,
		`{"top":"g","events":[{"id":"a","description":"Pumpe fällt aus – 故障","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`,
		`{"top":"g","events":[{"id":"a","description":null,"probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`,
		`{"name":null,"top":"g","events":null,"gates":[{"id":"g","type":"or","inputs":null}]}`,
		// Duplicate and case-folded keys.
		`{"top":"g","top":"h","events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]},{"id":"h","type":"and","inputs":["a"]}]}`,
		`{"Top":"g","events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`,
		`{"top":"g","events":[{"id":"a","probability":0.1,"probability":0.3}],"gates":[{"ID":"g","type":"or","inputs":["a"]}]}`,
		// Numbers outside the subset, and trailing bytes.
		`{"top":"g","events":[{"id":"a","probability":0.5},{"id":"b","probability":0.5}],"gates":[{"id":"g","type":"voting","k":2.0,"inputs":["a","b"]}]}`,
		`{"top":"g","events":[{"id":"a","probability":1e400}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`,
		`{"top":"g","events":[{"id":"a","probability":-0}],"gates":[{"id":"g","type":"or","inputs":["a"]}]} x`,
		`{"top":"g","events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}{}`,
		// Builds that fail: duplicate id, bad threshold, unknown type.
		`{"top":"g","events":[{"id":"a","probability":0.1}],"gates":[{"id":"a","type":"or","inputs":["a"]}]}`,
		`{"top":"g","events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"voting","k":3,"inputs":["a"]}]}`,
		`{"top":"g","events":[],"gates":[{"id":"g","type":"xor","inputs":["a"]}]}`,
		`null`,
		"{\n  \"top\": \"g\",\n  \"gates\": [\n    {\"id\": \"g\", \"type\": \"or\", \"inputs\": [\"a\"]}\n  ],\n  \"events\": [\n    {\"id\": \"a\", \"probability\": 1E-3}\n  ]\n}\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := decodeTree(data)
		want, wantErr := decodeReference(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder error %v, reference error %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("decoder error %q, reference error %q", gotErr, wantErr)
			}
			return
		}
		gotJSON, err := got.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := want.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("decoder and reference disagree:\ndecoder   %s\nreference %s", gotJSON, wantJSON)
		}
		gotEvents, gotGates := nodeIDs(got)
		wantEvents, wantGates := nodeIDs(want)
		if !slices.Equal(gotEvents, wantEvents) || !slices.Equal(gotGates, wantGates) {
			t.Fatalf("node order differs: decoder %v %v, reference %v %v", gotEvents, gotGates, wantEvents, wantGates)
		}
		gotValid, wantValid := got.Validate(), want.Validate()
		if (gotValid == nil) != (wantValid == nil) || (gotValid != nil && gotValid.Error() != wantValid.Error()) {
			t.Fatalf("Validate: decoder tree %v, reference tree %v", gotValid, wantValid)
		}
	})
}

// The documents the repository writes must take the single scan, or
// every read pays for encoding/json again.
func TestScanTreeTakesWriterOutput(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata trees: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if scanTree(data) == nil {
			t.Errorf("%s: the scanner fell back to encoding/json", path)
			continue
		}
		tree, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		compact, err := tree.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if scanTree(buf.Bytes()) == nil || scanTree(compact) == nil {
			t.Errorf("%s: the scanner fell back on WriteJSON or MarshalJSON output", path)
		}
	}
}

// A body that is not a tree must cost about its own size to turn away,
// however many brackets it holds: nothing is sized from the document
// before the scan has built it. mpmcsd reads bodies of up to 16 MiB.
func TestReadJSONRejectsBracketBodiesCheaply(t *testing.T) {
	const size = 1 << 20
	for _, body := range []string{
		strings.Repeat("[", size),
		strings.Repeat("{", size),
		`{"top":"` + strings.Repeat("[{", size/2) + `"`,
	} {
		data := []byte(body)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := ReadJSON(bytes.NewReader(data)); err == nil {
			t.Fatalf("%.12q...: no error", body)
		}
		runtime.ReadMemStats(&after)
		perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(data))
		t.Logf("%.12q...: %.2f bytes allocated per input byte", body, perByte)
		if perByte > 8 {
			t.Errorf("%.12q...: %.2f bytes allocated per input byte, bound 8", body, perByte)
		}
	}
}
