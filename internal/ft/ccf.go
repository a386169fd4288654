package ft

import (
	"fmt"
	"math"
	"sort"
)

// CCFGroup declares a common-cause failure group under the beta-factor
// model: each member event fails independently with probability
// (1−β)·p, or together with every other member through a shared
// common-cause event of probability β·p̄, where p̄ is the geometric mean
// of the members' probabilities (the usual convention when members are
// near-identical components).
type CCFGroup struct {
	// ID names the group; the injected common-cause event is "ccf-<ID>".
	ID string
	// Members are basic-event ids; at least two are required.
	Members []string
	// Beta is the common-cause fraction in (0,1).
	Beta float64
}

// ApplyCCF returns a new tree with every group's common-cause event
// injected: each member event e is replaced (everywhere it is
// referenced) by an OR gate over the independent residual of e and the
// group's shared event. The original tree is unchanged.
func (t *Tree) ApplyCCF(groups []CCFGroup) (*Tree, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	out := t.Clone()
	memberGroup := make(map[string]string)
	for _, g := range groups {
		if g.ID == "" {
			return nil, fmt.Errorf("ft: CCF group without id")
		}
		if len(g.Members) < 2 {
			return nil, fmt.Errorf("ft: CCF group %q needs at least 2 members", g.ID)
		}
		if g.Beta <= 0 || g.Beta >= 1 {
			return nil, fmt.Errorf("ft: CCF group %q has beta %v outside (0,1)", g.ID, g.Beta)
		}
		product := 1.0
		for _, id := range g.Members {
			e := out.Event(id)
			if e == nil {
				return nil, fmt.Errorf("ft: CCF group %q member %q is not a basic event", g.ID, id)
			}
			if prev, taken := memberGroup[id]; taken {
				return nil, fmt.Errorf("ft: event %q in CCF groups %q and %q", id, prev, g.ID)
			}
			memberGroup[id] = g.ID
			product *= e.Prob
		}
		geoMean := math.Pow(product, 1/float64(len(g.Members)))

		ccfID := "ccf-" + g.ID
		if err := out.AddEventDesc(ccfID, fmt.Sprintf("Common cause (%s)", g.ID), g.Beta*geoMean); err != nil {
			return nil, err
		}

		// Rewire each member: rename the original event to the
		// independent residual, then install an OR gate under the old
		// id so every existing reference picks up the CCF term.
		for _, id := range g.Members {
			e := out.Event(id)
			indepID := id + "-indep"
			if out.HasNode(indepID) {
				return nil, fmt.Errorf("ft: id %q already taken", indepID)
			}
			if err := out.AddEventDesc(indepID, e.Description, e.Prob*(1-g.Beta)); err != nil {
				return nil, err
			}
			if err := out.replaceEventWithGate(id, GateOr, indepID, ccfID); err != nil {
				return nil, err
			}
		}
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ft: CCF transformation broke the tree: %w", err)
	}
	return out, nil
}

// replaceEventWithGate removes the event with the given id and installs
// an OR/AND gate under the same id, preserving all references.
func (t *Tree) replaceEventWithGate(id string, typ GateType, inputs ...string) error {
	if t.Event(id) == nil {
		return fmt.Errorf("ft: %q is not a basic event", id)
	}
	delete(t.events, id)
	in := make([]string, len(inputs))
	copy(in, inputs)
	t.gates[id] = &Gate{ID: id, Type: typ, Inputs: in}
	t.valid.Store(false)
	// Insertion order already contains id; the node merely changed kind.
	return nil
}

// CCFGroupsFromPrefix is a convenience that groups events sharing an id
// prefix (e.g. "pump-" matching pump-a, pump-b) into one CCF group.
func (t *Tree) CCFGroupsFromPrefix(prefix string, beta float64) (CCFGroup, error) {
	var members []string
	for _, e := range t.Events() {
		if len(e.ID) >= len(prefix) && e.ID[:len(prefix)] == prefix {
			members = append(members, e.ID)
		}
	}
	sort.Strings(members)
	if len(members) < 2 {
		return CCFGroup{}, fmt.Errorf("ft: prefix %q matches %d events, need at least 2", prefix, len(members))
	}
	return CCFGroup{ID: prefix, Members: members, Beta: beta}, nil
}
