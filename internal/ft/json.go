package ft

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"
)

// treeJSON is the on-disk JSON representation of a fault tree, mirroring
// the input format of the MPMCS4FTA tool: a flat node list plus the top
// event id.
type treeJSON struct {
	Name   string      `json:"name,omitempty"`
	Top    string      `json:"top"`
	Events []eventJSON `json:"events"`
	Gates  []gateJSON  `json:"gates"`
}

type eventJSON struct {
	ID          string  `json:"id"`
	Description string  `json:"description,omitempty"`
	Probability float64 `json:"probability"`
}

type gateJSON struct {
	ID          string   `json:"id"`
	Description string   `json:"description,omitempty"`
	Type        string   `json:"type"`
	K           int      `json:"k,omitempty"`
	Inputs      []string `json:"inputs"`
}

// MarshalJSON implements json.Marshaler with deterministic node order.
func (t *Tree) MarshalJSON() ([]byte, error) {
	doc := treeJSON{Name: t.name, Top: t.top}
	for _, e := range t.Events() {
		doc.Events = append(doc.Events, eventJSON{
			ID:          e.ID,
			Description: e.Description,
			Probability: e.Prob,
		})
	}
	for _, g := range t.Gates() {
		doc.Gates = append(doc.Gates, gateJSON{
			ID:          g.ID,
			Description: g.Description,
			Type:        gateTypeName(g.Type),
			K:           g.K,
			Inputs:      g.Inputs,
		})
	}
	sort.Slice(doc.Events, func(i, j int) bool { return doc.Events[i].ID < doc.Events[j].ID })
	sort.Slice(doc.Gates, func(i, j int) bool { return doc.Gates[i].ID < doc.Gates[j].ID })
	return json.Marshal(doc)
}

// UnmarshalJSON implements json.Unmarshaler. The resulting tree is
// validated structurally (duplicate ids, probability ranges, thresholds)
// but full Validate is left to the caller so partially built documents
// can still be inspected.
func (t *Tree) UnmarshalJSON(data []byte) error {
	rebuilt, err := decodeTree(data)
	if err != nil {
		return err
	}
	t.name, t.top, t.events, t.gates, t.order = rebuilt.name, rebuilt.top, rebuilt.events, rebuilt.gates, rebuilt.order
	t.valid.Store(false)
	return nil
}

// WriteJSON writes the tree as indented JSON.
func (t *Tree) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t); err != nil {
		return fmt.Errorf("ft: encode tree: %w", err)
	}
	return nil
}

// readBufs recycles ReadJSON's input buffers: a decoded tree shares no
// memory with its document, so a buffer is free again once decoded.
// A buffer grown past maxPooledRead is dropped rather than pooled, so
// one large document does not keep its size pinned in every P's slot.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 1 << 20

// ReadJSON parses a fault tree from JSON and validates it.
func ReadJSON(r io.Reader) (*Tree, error) {
	buf := readBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledRead {
			readBufs.Put(buf)
		}
	}()
	buf.Reset()
	buf.Grow(sizeHint(r) + bytes.MinRead) // ReadFrom needs MinRead spare bytes to see EOF without regrowing
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("ft: read tree: %w", err)
	}
	tree, err := decodeTree(buf.Bytes())
	if err != nil {
		// A document that is not JSON at all is reported as
		// encoding/json words it, without the decode prefix.
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			return nil, syntax
		}
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
}

// sizeHint is how many bytes r holds, when r can tell without reading:
// an in-memory reader's Len or a regular file's size; 0 otherwise.
// Sizing the read buffer from it once replaces ReadFrom's doubling,
// which allocates about twice the document on its way up.
func sizeHint(r io.Reader) int {
	switch r := r.(type) {
	case interface{ Len() int }:
		return r.Len()
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			return int(fi.Size())
		}
	}
	return 0
}

// decodeTree is the JSON decoder behind ReadJSON and UnmarshalJSON:
// the single-scan decoder for the documents the repository's writers
// emit, and the encoding/json reference for everything else, which also
// words every error.
func decodeTree(data []byte) (*Tree, error) {
	if t := scanTree(data); t != nil {
		return t, nil
	}
	return decodeReference(data)
}

// decodeReference decodes with encoding/json into treeJSON and builds
// the tree through the public constructors. It defines what a document
// means; scanTree must agree with it wherever scanTree answers.
func decodeReference(data []byte) (*Tree, error) {
	var doc treeJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("ft: decode tree: %w", err)
	}
	t := New(doc.Name)
	t.SetTop(doc.Top)
	for _, e := range doc.Events {
		if err := t.AddEventDesc(e.ID, e.Description, e.Probability); err != nil {
			return nil, err
		}
	}
	for _, g := range doc.Gates {
		typ, err := parseGateType(g.Type)
		if err != nil {
			return nil, fmt.Errorf("ft: gate %q: %w", g.ID, err)
		}
		if err := t.AddGate(g.ID, g.Description, typ, g.K, g.Inputs...); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// scanTree decodes a tree in one pass over data, without encoding/json.
// It accepts the subset of JSON that ftgen, WriteJSON and the benchmark
// emit: one object with the keys name, top, events and gates, each at
// most once; event objects with id, description and probability; gate
// objects with id, description, type, an integer k and inputs; strings
// without escapes; no nulls. It returns nil for any other document, and
// for one that does not build (a duplicate id, a bad probability), so
// that decodeReference decides and words the error.
//
// Every string in the tree is a substring of one copy of the document,
// so a node costs no string allocations.
func scanTree(data []byte) *Tree {
	// Outside strings a backslash is not JSON, and inside one it starts
	// an escape the scan does not decode: leave such a document to
	// encoding/json before copying it.
	if bytes.IndexByte(data, '\\') >= 0 {
		return nil
	}
	s := scanner{src: string(data)}
	// Nothing is sized from the document before it is scanned: the maps
	// and slabs grow with the nodes built, so a body that fails early
	// costs about its own size.
	t := &Tree{
		events: make(map[string]*BasicEvent),
		gates:  make(map[string]*Gate),
	}
	if !s.object(func(key string) (ok bool) {
		switch key {
		case "name":
			t.name, ok = s.str()
		case "top":
			t.top, ok = s.str()
		case "events":
			ok = s.array(func() bool { return s.event(t) })
		case "gates":
			ok = s.array(func() bool { return s.gate(t) })
		}
		return ok
	}, "name", "top", "events", "gates") {
		return nil
	}
	s.ws()
	if s.pos != len(s.src) {
		return nil
	}
	return t
}

// scanner is scanTree's cursor over the document, with the slabs the
// tree's nodes and input lists are carved from.
type scanner struct {
	src    string
	pos    int
	events []BasicEvent // the unused rest of the current event slab
	gates  []Gate       // the unused rest of the current gate slab
	inputs []string     // the unused rest of the current input-list slab
	list   []string     // the input list being scanned
}

func (s *scanner) ws() {
	for s.pos < len(s.src) && jsonSpace[s.src[s.pos]] {
		s.pos++
	}
}

var jsonSpace = [256]bool{' ': true, '\t': true, '\n': true, '\r': true}

// lit consumes the byte c after optional white space.
func (s *scanner) lit(c byte) bool {
	s.ws()
	if s.pos < len(s.src) && s.src[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// object scans an object whose keys are all in keys, each at most once,
// calling member with the cursor on each key's value.
func (s *scanner) object(member func(key string) bool, keys ...string) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		i := slices.Index(keys, key)
		if i < 0 || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		if !member(key) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// array scans an array, calling elem with the cursor on each element.
func (s *scanner) array(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// str scans a string without control characters; scanTree has turned
// away any document with a backslash, so it has no escapes either. Its
// bytes must be valid UTF-8, which encoding/json would otherwise replace.
func (s *scanner) str() (string, bool) {
	if !s.lit('"') {
		return "", false
	}
	ascii := true
	for i := s.pos; i < len(s.src); i++ {
		switch c := s.src[i]; {
		case c == '"':
			v := s.src[s.pos:i]
			if !ascii && !utf8.ValidString(v) {
				return "", false
			}
			s.pos = i + 1
			return v, true
		case c < 0x20:
			return "", false
		case c >= 0x80:
			ascii = false
		}
	}
	return "", false
}

// number scans a JSON number; integer admits only -?(0|[1-9][0-9]*), so
// a fraction or exponent is left for the caller's next token to reject.
func (s *scanner) number(integer bool) (string, bool) {
	s.ws()
	start, i := s.pos, s.pos
	digits := func() int {
		j := i
		for i < len(s.src) && '0' <= s.src[i] && s.src[i] <= '9' {
			i++
		}
		return i - j
	}
	if i < len(s.src) && s.src[i] == '-' {
		i++
	}
	if i < len(s.src) && s.src[i] == '0' {
		i++
	} else if digits() == 0 {
		return "", false
	}
	if !integer {
		if i < len(s.src) && s.src[i] == '.' {
			i++
			if digits() == 0 {
				return "", false
			}
		}
		if i < len(s.src) && (s.src[i] == 'e' || s.src[i] == 'E') {
			i++
			if i < len(s.src) && (s.src[i] == '+' || s.src[i] == '-') {
				i++
			}
			if digits() == 0 {
				return "", false
			}
		}
	}
	s.pos = i
	return s.src[start:i], true
}

// event scans one event object and adds it to t.
func (s *scanner) event(t *Tree) bool {
	if len(s.events) == 0 {
		s.events = make([]BasicEvent, slabLen(len(t.events)))
	}
	e := &s.events[0]
	s.events = s.events[1:]
	if !s.object(func(key string) (ok bool) {
		switch key {
		case "id":
			e.ID, ok = s.str()
		case "description":
			e.Description, ok = s.str()
		case "probability":
			var num string
			if num, ok = s.number(false); ok {
				var err error
				e.Prob, err = strconv.ParseFloat(num, 64)
				ok = err == nil
			}
		}
		return ok
	}, "id", "description", "probability") {
		return false
	}
	return t.addEvent(e) == nil
}

// gate scans one gate object and adds it to t.
func (s *scanner) gate(t *Tree) bool {
	if len(s.gates) == 0 {
		s.gates = make([]Gate, slabLen(len(t.gates)))
	}
	g := &s.gates[0]
	s.gates = s.gates[1:]
	if !s.object(func(key string) (ok bool) {
		var err error
		switch key {
		case "id":
			g.ID, ok = s.str()
		case "description":
			g.Description, ok = s.str()
		case "type":
			var name string
			if name, ok = s.str(); ok {
				g.Type, err = parseGateType(name)
				ok = err == nil
			}
		case "k":
			var num string
			if num, ok = s.number(true); ok {
				g.K, err = strconv.Atoi(num)
				ok = err == nil
			}
		case "inputs":
			s.list = s.list[:0]
			ok = s.array(func() bool {
				id, ok := s.str()
				s.list = append(s.list, id)
				return ok
			})
			g.Inputs = s.carve()
		}
		return ok
	}, "id", "description", "type", "k", "inputs") {
		return false
	}
	return t.addGate(g) == nil
}

// slabLen is the length of the next node slab once built nodes of its
// kind are built: the slabs double the nodes so far, from 16 to at most
// 1024 per slab, so at most half of what they hold is ever unused.
func slabLen(built int) int {
	return min(max(built, 16), 1024)
}

// carve copies the scanned input list into the current slab and
// returns the copy, capped so that appending to it cannot reach a
// neighbour's inputs.
func (s *scanner) carve() []string {
	n := len(s.list)
	if n == 0 {
		return nil
	}
	if len(s.inputs) < n {
		s.inputs = make([]string, max(n, 256))
	}
	in := s.inputs[:n:n]
	copy(in, s.list)
	s.inputs = s.inputs[n:]
	return in
}

func gateTypeName(typ GateType) string {
	switch typ {
	case GateAnd:
		return "and"
	case GateOr:
		return "or"
	case GateVoting:
		return "voting"
	default:
		return "unknown"
	}
}

func parseGateType(s string) (GateType, error) {
	switch s {
	case "and", "AND":
		return GateAnd, nil
	case "or", "OR":
		return GateOr, nil
	case "voting", "VOTING", "kofn", "atleast":
		return GateVoting, nil
	default:
		return 0, fmt.Errorf("unknown gate type %q", s)
	}
}
