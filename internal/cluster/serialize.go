package cluster

// Dendrogram serialization: the clustering server (Figure 3a) can persist
// or ship merge histories so signature generation, visualization, and audit
// happen offline from distance computation.

import (
	"encoding/json"
	"io"
)

// dendrogramJSON is the wire form of a Dendrogram.
type dendrogramJSON struct {
	NumLeaves int     `json:"num_leaves"`
	Merges    []Merge `json:"merges"`
}

// WriteJSON serializes the dendrogram.
func (d *Dendrogram) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dendrogramJSON{NumLeaves: d.NumLeaves, Merges: d.Merges})
}
