package xenstore

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"xoar/internal/xtypes"
)

// Persistence implements the §7.1 future-work item: "XenStore could
// potentially be restarted by persisting its state to disk, and checking and
// recovering that state on restart." Save serializes the full tree —
// values, ownership and ACLs — and Load reconstructs an equivalent State, so
// even the long-lived XenStore-State shard becomes replaceable. Watches are
// deliberately not persisted: they are connection-scoped, and reconnecting
// clients re-register them, exactly as they re-negotiate rings.

// persistNode is the serialized form of one tree node.
type persistNode struct {
	Path  string   `json:"path"`
	Value string   `json:"value"`
	Owner uint32   `json:"owner"`
	Read  []uint32 `json:"read,omitempty"`
	Write []uint32 `json:"write,omitempty"`
	Gen   uint64   `json:"gen"`
}

// persistImage is the on-disk format.
type persistImage struct {
	Version   int           `json:"version"`
	Gen       uint64        `json:"gen"`
	Mutations int           `json:"mutations"`
	Nodes     []persistNode `json:"nodes"`
}

// save writes the State's contents to w.
func (s *State) save(w io.Writer) error {
	img := persistImage{Version: 1, Gen: s.gen, Mutations: s.mutations}
	var walk func(prefix string, n *node)
	walk = func(prefix string, n *node) {
		if prefix != "" {
			pn := persistNode{Path: prefix, Value: string(n.value), Owner: uint32(n.owner), Gen: n.gen}
			for d := range n.readACL {
				pn.Read = append(pn.Read, uint32(d))
			}
			for d := range n.writeACL {
				pn.Write = append(pn.Write, uint32(d))
			}
			sort.Slice(pn.Read, func(i, j int) bool { return pn.Read[i] < pn.Read[j] })
			sort.Slice(pn.Write, func(i, j int) bool { return pn.Write[i] < pn.Write[j] })
			img.Nodes = append(img.Nodes, pn)
		}
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(prefix+"/"+name, n.children[name])
		}
	}
	walk("", s.root)
	enc := json.NewEncoder(w)
	return enc.Encode(img)
}

// loadState reconstructs a State from a Save image.
func loadState(r io.Reader) (*State, error) {
	var img persistImage
	if err := json.NewDecoder(r).Decode(&img); err != nil {
		return nil, fmt.Errorf("xenstore: load: %w", err)
	}
	if img.Version != 1 {
		return nil, fmt.Errorf("xenstore: load: image version %d: %w", img.Version, xtypes.ErrInvalid)
	}
	s := NewState()
	s.gen = img.Gen
	s.mutations = img.Mutations
	for _, pn := range img.Nodes {
		parts, err := SplitPath(pn.Path)
		if err != nil {
			return nil, err
		}
		n := s.root
		for _, p := range parts {
			child := n.children[p]
			if child == nil {
				child = newNode(xtypes.DomID(pn.Owner))
				n.children[p] = child
			}
			n = child
		}
		n.value = []byte(pn.Value)
		n.owner = xtypes.DomID(pn.Owner)
		n.gen = pn.Gen
		for _, d := range pn.Read {
			n.readACL[xtypes.DomID(d)] = true
		}
		for _, d := range pn.Write {
			n.writeACL[xtypes.DomID(d)] = true
		}
	}
	return s, nil
}
