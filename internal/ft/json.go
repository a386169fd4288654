package ft

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
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
	var doc treeJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("ft: decode tree: %w", err)
	}
	rebuilt := New(doc.Name)
	rebuilt.SetTop(doc.Top)
	for _, e := range doc.Events {
		if err := rebuilt.AddEventDesc(e.ID, e.Description, e.Probability); err != nil {
			return err
		}
	}
	for _, g := range doc.Gates {
		typ, err := parseGateType(g.Type)
		if err != nil {
			return fmt.Errorf("ft: gate %q: %w", g.ID, err)
		}
		if err := rebuilt.AddGate(g.ID, g.Description, typ, g.K, g.Inputs...); err != nil {
			return err
		}
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

// ReadJSON parses a fault tree from JSON and validates it.
func ReadJSON(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ft: read tree: %w", err)
	}
	tree := New("")
	if err := json.Unmarshal(data, tree); err != nil {
		return nil, err
	}
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	return tree, nil
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
