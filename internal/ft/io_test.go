package ft

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	tree := buildFPS(t)
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, tree, back)
}

func TestJSONRoundTripVoting(t *testing.T) {
	tree := New("vote")
	for _, id := range []string{"a", "b", "c"} {
		if err := tree.AddEvent(id, 0.25); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.AddVoting("v", 2, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("v")
	var buf bytes.Buffer
	if err := tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := back.Gate("v")
	if g == nil || g.Type != GateVoting || g.K != 2 {
		t.Errorf("voting gate lost in round trip: %+v", g)
	}
}

func TestReadJSONErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"syntax", "{not json"},
		{"bad gate type", `{"top":"g","events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"xor","inputs":["a"]}]}`},
		{"bad probability", `{"top":"g","events":[{"id":"a","probability":7}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`},
		{"dangling input", `{"top":"g","events":[],"gates":[{"id":"g","type":"or","inputs":["ghost"]}]}`},
		{"duplicate id", `{"top":"g","events":[{"id":"a","probability":0.1},{"id":"a","probability":0.2}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`},
		{"missing top", `{"events":[{"id":"a","probability":0.1}],"gates":[{"id":"g","type":"or","inputs":["a"]}]}`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(tt.give)); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestTextRoundTrip(t *testing.T) {
	tree := buildFPS(t)
	tree.Event("x1").Description = "Sensor 1 fails"
	var buf bytes.Buffer
	if err := tree.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameTree(t, tree, back)
	if back.Event("x1").Description != "Sensor 1 fails" {
		t.Error("description lost in text round trip")
	}
}

func TestReadTextFormat(t *testing.T) {
	src := `
# Fire protection system
tree FPS
top t

event x1 0.2 Sensor 1
event x2 0.1
gate g and x1 x2
gate t or g x1
`
	tree, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if tree.Name() != "FPS" || tree.Top() != "t" {
		t.Errorf("name=%q top=%q", tree.Name(), tree.Top())
	}
	if tree.Event("x1").Description != "Sensor 1" {
		t.Errorf("description = %q", tree.Event("x1").Description)
	}
}

func TestReadTextVoting(t *testing.T) {
	src := `
top v
event a 0.1
event b 0.1
event c 0.1
gate v 2of3 a b c
`
	tree, err := ReadText(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	g := tree.Gate("v")
	if g.Type != GateVoting || g.K != 2 {
		t.Errorf("gate = %+v", g)
	}
}

func TestReadTextErrors(t *testing.T) {
	tests := []struct {
		name string
		give string
	}{
		{"unknown decl", "frob x\n"},
		{"tree no name", "tree\n"},
		{"top arity", "top a b\n"},
		{"event no prob", "event a\n"},
		{"event bad prob", "event a xyz\n"},
		{"gate too short", "gate g and\n"},
		{"gate bad type", "event a 0.1\ngate g nand a\ntop g\n"},
		{"kofn mismatch", "event a 0.1\nevent b 0.1\ngate g 2of3 a b\ntop g\n"},
		{"invalid final tree", "event a 0.1\n"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadText(strings.NewReader(tt.give)); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

func TestWriteDot(t *testing.T) {
	tree := buildFPS(t)
	var buf bytes.Buffer
	err := tree.WriteDot(&buf, DotOptions{
		Highlight:         map[string]bool{"x1": true, "x2": true},
		ShowProbabilities: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"digraph \"FPS\"",
		"fillcolor=salmon",
		"doubleoctagon",
		`"detection" -> "x1";`,
		"p=0.2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteDotVotingLabel(t *testing.T) {
	tree := New("")
	for _, id := range []string{"a", "b", "c"} {
		if err := tree.AddEvent(id, 0.1); err != nil {
			t.Fatal(err)
		}
	}
	if err := tree.AddVoting("v", 2, "a", "b", "c"); err != nil {
		t.Fatal(err)
	}
	tree.SetTop("v")
	var buf bytes.Buffer
	if err := tree.WriteDot(&buf, DotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "2/3") {
		t.Errorf("voting gate label missing:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "digraph \"faulttree\"") {
		t.Error("fallback graph name missing")
	}
}

// assertSameTree checks structural equality of two trees.
func assertSameTree(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.Top() != b.Top() {
		t.Errorf("top: %q vs %q", a.Top(), b.Top())
	}
	if a.NumEvents() != b.NumEvents() || a.NumGates() != b.NumGates() {
		t.Fatalf("size mismatch: %d/%d events, %d/%d gates",
			a.NumEvents(), b.NumEvents(), a.NumGates(), b.NumGates())
	}
	for _, e := range a.Events() {
		other := b.Event(e.ID)
		if other == nil || other.Prob != e.Prob {
			t.Errorf("event %s: %+v vs %+v", e.ID, e, other)
		}
	}
	for _, g := range a.Gates() {
		other := b.Gate(g.ID)
		if other == nil || other.Type != g.Type || other.K != g.K {
			t.Errorf("gate %s: %+v vs %+v", g.ID, g, other)
			continue
		}
		if len(other.Inputs) != len(g.Inputs) {
			t.Errorf("gate %s input count: %d vs %d", g.ID, len(g.Inputs), len(other.Inputs))
			continue
		}
		for i := range g.Inputs {
			if g.Inputs[i] != other.Inputs[i] {
				t.Errorf("gate %s input %d: %q vs %q", g.ID, i, g.Inputs[i], other.Inputs[i])
			}
		}
	}
}

// TestReadFileFormats: "" picks the format by extension (JSON for any
// case of .json, text otherwise); "json" and "text" override it.
func TestReadFileFormats(t *testing.T) {
	tree := buildFPS(t)
	var js, txt bytes.Buffer
	if err := tree.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if err := tree.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	jsonPath := write("fps.JSON", js.Bytes())
	textPath := write("fps.txt", txt.Bytes())
	jsonDat := write("fps.dat", js.Bytes())
	for _, tt := range []struct{ path, format string }{
		{jsonPath, ""}, {textPath, ""}, {jsonDat, "json"}, {textPath, "text"},
	} {
		back, err := ReadFile(tt.path, tt.format)
		if err != nil {
			t.Fatalf("ReadFile(%s, %q): %v", filepath.Base(tt.path), tt.format, err)
		}
		assertSameTree(t, tree, back)
	}
	if _, err := ReadFile(jsonDat, ""); err == nil {
		t.Error("JSON under a non-.json name parsed as text")
	}
	if _, err := ReadFile(jsonPath, "yaml"); err == nil || !strings.Contains(err.Error(), `unknown input format "yaml"`) {
		t.Errorf("unknown format: err = %v", err)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.json"), ""); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want os.ErrNotExist", err)
	}
}
